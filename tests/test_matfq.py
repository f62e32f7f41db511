import random
from math import comb

import pytest

from support import random_invertible, random_matrix
from ffyb.errors import SingularMatrixError
from ffyb.gf import all_elements, make_field
from ffyb.matfq import (Matrix, char_coeffs, companion, conjugate, direct_sum,
                        gl_order, matrix_from_index, matrix_index,
                        parse_matrix)
from ffyb.polyfq import UniPoly, parse_unipoly


def q_block(field, a):
    return Matrix(field, [[field.zero(), field.one()], [field.zero(), a]])


def test_identity_is_neutral():
    f3 = make_field(3)
    rng = random.Random(1)
    i2 = Matrix.identity(f3, 2)
    for _ in range(20):
        x = random_matrix(rng, f3, 2)
        assert i2 * x == x
        assert x * i2 == x


def test_q_block_squares_to_itself_when_a_is_one():
    f5 = make_field(5)
    q = q_block(f5, f5.one())
    assert (q * q) == parse_matrix(f5, "0,1;0,1")


def test_scalar_matrices_commute_with_everything():
    f4 = make_field(2, 2)
    rng = random.Random(2)
    a = f4.from_encoding(3)
    ai = Matrix.scalar(f4, 3, a)
    for _ in range(20):
        x = random_matrix(rng, f4, 3)
        assert ai * x == x * ai == x * a


def test_det_rank_of_q_block():
    f7 = make_field(7)
    for enc in range(1, 7):
        q = q_block(f7, f7.from_encoding(enc))
        assert q.det().is_zero()
        assert q.rank() == 1


def test_det_of_identity_and_rank_of_zero():
    f3 = make_field(3)
    assert Matrix.identity(f3, 4).det() == f3.one()
    assert Matrix.zeros(f3, 4).rank() == 0


def test_inverse_round_trip_exhaustive_over_gl22():
    f2 = make_field(2)
    i2 = Matrix.identity(f2, 2)
    invertibles = [matrix_from_index(f2, 2, i) for i in range(16)]
    invertibles = [m for m in invertibles if not m.det().is_zero()]
    assert len(invertibles) == 6
    for m in invertibles:
        assert m.inverse() * m == i2
        assert m * m.inverse() == i2


def test_inverse_of_singular_raises():
    f3 = make_field(3)
    with pytest.raises(SingularMatrixError):
        Matrix.zeros(f3, 2).inverse()


def test_char_coeffs_of_q_block():
    f5 = make_field(5)
    a = f5.from_encoding(4)
    assert char_coeffs(q_block(f5, a)) == (a, f5.zero())


@pytest.mark.parametrize("p,s,n", [(2, 1, 3), (3, 1, 4), (2, 2, 3), (5, 1, 2)])
def test_char_coeffs_of_scalar_matrix_are_binomials(p, s, n):
    f = make_field(p, s)
    for enc in range(f.q):
        a = f.from_encoding(enc)
        got = char_coeffs(Matrix.scalar(f, n, a))
        want = tuple(f.from_int(comb(n, i)) * a**i for i in range(1, n + 1))
        assert got == want


def test_char_coeffs_of_zero_matrix():
    f3 = make_field(3)
    assert all(c.is_zero() for c in char_coeffs(Matrix.zeros(f3, 4)))


def test_first_and_last_char_coeffs_are_trace_and_det():
    rng = random.Random(11)
    for p, s in [(2, 1), (3, 1), (2, 2)]:
        f = make_field(p, s)
        for n in (2, 3, 4):
            for _ in range(10):
                x = random_matrix(rng, f, n)
                coeffs = char_coeffs(x)
                trace = f.zero()
                for i in range(n):
                    trace = trace + x[i, i]
                assert coeffs[0] == trace
                assert coeffs[-1] == x.det()


def test_companion_shape():
    f7 = make_field(7)
    f = parse_unipoly(f7, "3,2,1")  # x^2 + 2x + 3
    c = companion(f)
    assert c.text() == "0,1;4,5"  # last row is -a0, -a1
    g = parse_unipoly(f7, "5,1")  # x + 5 = x - 2
    assert companion(g).text() == "2"


def test_companion_requires_monic():
    f5 = make_field(5)
    with pytest.raises(ValueError):
        companion(parse_unipoly(f5, "1,2"))
    with pytest.raises(ValueError):
        companion(UniPoly.one(f5))


def test_char_coeffs_of_companion_reproduce_the_polynomial():
    # for monic f, det(xI - C(f)) = f; check all monic cubics over GF(3)
    f3 = make_field(3)
    one = f3.one()
    for e0 in range(3):
        for e1 in range(3):
            for e2 in range(3):
                f = UniPoly.from_elements(
                    f3, [f3.from_encoding(e0), f3.from_encoding(e1),
                         f3.from_encoding(e2), one])
                coeffs = char_coeffs(companion(f))
                rebuilt = [one]
                for i, c in enumerate(coeffs, start=1):
                    sign = -one if i % 2 else one
                    rebuilt.append(sign * c)
                # rebuilt holds x^3, x^2, x^1, x^0 coefficients
                assert UniPoly.from_elements(f3, list(reversed(rebuilt))) == f


def test_direct_sum_block_structure_and_multiplicativity():
    f3 = make_field(3)
    rng = random.Random(3)
    for _ in range(20):
        b = random_matrix(rng, f3, 2)
        c = random_matrix(rng, f3, 3)
        s = direct_sum(b, c)
        assert s.n_rows == 5
        assert s.det() == b.det() * c.det()
        assert s.rank() == b.rank() + c.rank()


def test_direct_sum_builds_the_block_solution():
    f5 = make_field(5)
    a = f5.from_encoding(2)
    s = direct_sum(Matrix.zeros(f5, 1), q_block(f5, a))
    assert s.text() == "0,0,0;0,0,1;0,0,2"


def test_conjugate_by_identity_and_invariance():
    rng = random.Random(4)
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        f = make_field(p, s)
        for _ in range(200):
            x = random_matrix(rng, f, 3)
            assert conjugate(Matrix.identity(f, 3), x) == x
            g = random_invertible(rng, f, 3)
            assert char_coeffs(conjugate(g, x)) == char_coeffs(x)


def test_conjugate_with_singular_matrix_raises():
    f2 = make_field(2)
    with pytest.raises(SingularMatrixError):
        conjugate(Matrix.zeros(f2, 2), Matrix.identity(f2, 2))


def test_cayley_hamilton_on_random_matrices():
    rng = random.Random(5)
    for p, s in [(2, 1), (3, 1), (2, 2)]:
        f = make_field(p, s)
        one = f.one()
        for n in range(1, 6):
            x = random_matrix(rng, f, n)
            coeffs = char_coeffs(x)
            acc = x**n
            sign = one
            for i in range(1, n + 1):
                sign = -sign
                acc = acc + (x ** (n - i)) * (sign * coeffs[i - 1])
            assert acc == Matrix.zeros(f, n)


def test_gl_order_values():
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(0, 5) == 1
    for q in (2, 3, 4, 5):
        assert gl_order(2, q) == (q * q - 1) * (q * q - q)


def test_matrix_index_round_trip():
    f4 = make_field(2, 2)
    for idx in range(0, 4**4, 7):
        m = matrix_from_index(f4, 2, idx)
        assert matrix_index(m) == idx


def test_parse_rejects_garbage():
    f3 = make_field(3)
    with pytest.raises(ValueError):
        parse_matrix(f3, "0,1;zebra")
    with pytest.raises(ValueError):
        parse_matrix(f3, "0,1;2")
    with pytest.raises(ValueError):
        parse_matrix(f3, "0,9;0,0")


def test_dimension_mismatch_raises():
    f3 = make_field(3)
    with pytest.raises(ValueError):
        Matrix.zeros(f3, 2) * Matrix.zeros(f3, 3)
    with pytest.raises(ValueError):
        Matrix.zeros(f3, 2) + Matrix.zeros(f3, 3)
