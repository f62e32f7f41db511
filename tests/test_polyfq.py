import random

import pytest

from support import (companion, companion_not_solution, direct_sum, matrix_from_index,
                     monic_irreducibles, monic_polys, random_invertible, random_matrix,
                     smith_normal_form)
from ffyb.gf import make_field
from ffyb.matfq import Matrix, char_coeffs
from ffyb.polyfq import (PolyMatrix, UniPoly, _enc_gcd, char_matrix, elementary_divisors,
                         factor_monic, invariant_factors, is_irreducible_poly,
                         rational_canonical_form)


def x_poly(field):
    return UniPoly.x(field)


def x_minus(field, c):
    return UniPoly.from_elements(field, [-c, field.one()])


def block_matrix(field, n, k, b, a):
    """b*I of size n-2k plus k copies of [[0,1],[0,a]]."""
    z, o = field.zero(), field.one()
    qa = Matrix(field, [[z, o], [z, a]])
    out = Matrix.scalar(field, n - 2 * k, b) if n > 2 * k else qa
    for _ in range(k if n > 2 * k else k - 1):
        out = direct_sum(out, qa)
    return out


# -- polynomial arithmetic ----------------------------------------------------

def test_gcd_of_x_and_x_minus_a_is_one_for_nonzero_a():
    f5 = make_field(5)
    for enc in range(1, 5):
        g = UniPoly(f5, _enc_gcd(f5, x_poly(f5).enc, x_minus(f5, f5.from_encoding(enc)).enc))
        assert g == UniPoly.one(f5)


def test_divmod_exact_example():
    f7 = make_field(7)
    a = f7.from_encoding(3)
    prod = x_minus(f7, a) * x_poly(f7)
    quot, rem = divmod(prod, x_poly(f7))
    assert quot == x_minus(f7, a)
    assert rem.is_zero()


def test_gcd_of_poly_with_itself_is_its_monic_part():
    f5 = make_field(5)
    two = f5.from_encoding(2)
    f = (x_poly(f5) + UniPoly.one(f5)) * two
    assert UniPoly(f5, _enc_gcd(f5, f.enc, f.enc)) == f.monic()


def test_division_by_zero_polynomial_raises():
    f3 = make_field(3)
    with pytest.raises(ZeroDivisionError):
        divmod(x_poly(f3), UniPoly.zero(f3))


def test_poly_text_round_trip():
    f5 = make_field(5)
    f = UniPoly.from_encodings(f5, [0, 4, 1])
    assert f.text() == "0,4,1"
    assert f.degree == 2
    assert f(f5.zero()).is_zero()
    assert f(f5.one()) == f5.zero()  # 1 + 4 = 0 mod 5


def test_zero_poly_degree_marker():
    f2 = make_field(2)
    assert UniPoly.zero(f2).degree == -1
    assert UniPoly.zero(f2).text() == "0"


# -- irreducibles and factoring ----------------------------------------------

def test_irreducible_enumeration_over_f2():
    f2 = make_field(2)
    quad = list(monic_irreducibles(f2, 2))
    assert [g.text() for g in quad] == ["1,1,1"]
    cubs = list(monic_irreducibles(f2, 3))
    assert sorted(g.text() for g in cubs) == ["1,0,1,1", "1,1,0,1"]


def test_factor_monic_recovers_structure():
    f3 = make_field(3)
    a = f3.from_encoding(2)
    f = x_poly(f3) ** 2 * x_minus(f3, a)
    fac = factor_monic(f)
    assert sorted((g.text(), e) for g, e in fac) == [("0,1", 2), ("1,1", 1)]

    g = next(monic_irreducibles(f3, 2))
    assert factor_monic(g * g) == [(g, 2)]
    assert is_irreducible_poly(g)
    assert not is_irreducible_poly(g * g)
    assert factor_monic(UniPoly.from_encodings(f3, [2])) == []
    with pytest.raises(ValueError):
        factor_monic(UniPoly.zero(f3))


# -- smith normal form ---------------------------------------------------------

def test_smith_of_q_block_char_matrix():
    f5 = make_field(5)
    a = f5.from_encoding(3)
    q = Matrix(f5, [[f5.zero(), f5.one()], [f5.zero(), a]])
    sf = smith_normal_form(char_matrix(q))
    assert sf == (UniPoly.one(f5), x_poly(f5) * x_minus(f5, a))


def test_smith_of_zero_matrix_char_matrix():
    f3 = make_field(3)
    sf = smith_normal_form(char_matrix(Matrix.zeros(f3, 4)))
    assert sf == (x_poly(f3),) * 4


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_invariant_factor_pattern_of_block_solutions(p, s):
    # k units, n-2k copies of x, k copies of x(x-a) when b = 0
    f = make_field(p, s)
    a = f.from_encoding(f.q - 1)
    for n in range(2, 6):
        for k in range(1, n // 2 + 1):
            mat = block_matrix(f, n, k, f.zero(), a)
            got = invariant_factors(mat)
            want = ((UniPoly.one(f),) * k + (x_poly(f),) * (n - 2 * k)
                    + (x_poly(f) * x_minus(f, a),) * k)
            assert got == want


def test_smith_divisibility_chain_and_det_product_on_random_matrices():
    rng = random.Random(6)
    for p, s in [(2, 1), (3, 1), (2, 2)]:
        f = make_field(p, s)
        one = f.one()
        for n in (2, 3, 4):
            for _ in range(15):
                x = random_matrix(rng, f, n)
                factors = invariant_factors(x)
                prod = UniPoly.one(f)
                for h, nxt in zip(factors, factors[1:]):
                    if not h.is_zero():
                        assert (nxt % h).is_zero()
                for h in factors:
                    prod = prod * h
                # the product is the characteristic polynomial
                coeffs = char_coeffs(x)
                rebuilt = [one]
                for i, c in enumerate(coeffs, start=1):
                    rebuilt.append((-one) ** i * c)
                assert prod == UniPoly.from_elements(f, list(reversed(rebuilt)))


def test_elementary_divisor_multiset_product_matches_invariant_factors():
    rng = random.Random(7)
    f3 = make_field(3)
    for _ in range(20):
        x = random_matrix(rng, f3, 4)
        eldiv = elementary_divisors(x)
        prod = UniPoly.one(f3)
        for g in eldiv:
            prod = prod * g
        want = UniPoly.one(f3)
        for h in invariant_factors(x):
            if h.degree >= 1:
                want = want * h
        assert prod == want


def test_elementary_divisors_examples():
    f7 = make_field(7)
    a = f7.from_encoding(2)
    x, xa = x_poly(f7), x_minus(f7, a)

    m1 = block_matrix(f7, 5, 2, f7.zero(), a)
    assert sorted(g.text() for g in elementary_divisors(m1)) \
        == sorted([x.text()] * 3 + [xa.text()] * 2)

    m2 = block_matrix(f7, 5, 2, a, a)
    assert sorted(g.text() for g in elementary_divisors(m2)) \
        == sorted([xa.text()] * 3 + [x.text()] * 2)

    m3 = Matrix.scalar(f7, 3, a)
    assert elementary_divisors(m3) == (xa, xa, xa)


# -- rational canonical form ---------------------------------------------------

def test_rcf_of_companion_is_itself():
    f2 = make_field(2)
    g = next(monic_irreducibles(f2, 3))
    c = companion(g)
    assert rational_canonical_form(c) == c


def test_rcf_of_block_solution():
    f5 = make_field(5)
    a = f5.from_encoding(2)
    m = block_matrix(f5, 3, 1, f5.zero(), a)
    rcf = rational_canonical_form(m)
    # invariant factors 1, x, x(x-a): blocks C(x) = (0) and C(x^2-ax)
    assert rcf.text() == "0,0,0;0,0,1;0,0,2"


def test_rcf_is_conjugation_invariant_and_similar():
    rng = random.Random(8)
    for p in (2, 3):
        f = make_field(p)
        for n in (2, 3, 4):
            for _ in range(10):
                x = random_matrix(rng, f, n)
                g = random_invertible(rng, f, n)
                y = g * x * g.inverse()
                assert rational_canonical_form(x) == rational_canonical_form(y)
                # equal invariant factors is equivalent to similarity
                assert invariant_factors(rational_canonical_form(x)) \
                    == invariant_factors(x)


# -- companion blocks of degree >= 3 never solve --------------------------------

def test_companion_cubes_over_f2():
    f2 = make_field(2)
    one = f2.one()
    assert companion_not_solution(UniPoly.from_encodings(f2, [0, 0, 0, 1]), one)
    assert companion_not_solution(UniPoly.from_encodings(f2, [1, 1, 0, 1]), one)


def test_companion_not_solution_exhaustive_cubics():
    for p in (2, 3):
        f = make_field(p)
        for g in monic_polys(f, 3):
            for enc in range(1, p):
                assert companion_not_solution(g, f.from_encoding(enc))


def test_companion_square_has_unit_in_first_row_third_column():
    # the structural reason the check always holds: squaring shifts the
    # superdiagonal, while a*C(f) keeps a zero in that slot
    for p in (2, 3, 5):
        f = make_field(p)
        for g in monic_polys(f, 3):
            c = companion(g)
            assert (c * c)[0, 2] == f.one()
        for g in monic_polys(f, 4):
            c = companion(g)
            assert (c * c)[0, 2] == f.one()


def test_companion_not_solution_rejects_small_degree():
    f2 = make_field(2)
    with pytest.raises(ValueError):
        companion_not_solution(UniPoly.from_encodings(f2, [1, 1, 1]), f2.one())


def test_char_matrix_entry_layout():
    f3 = make_field(3)
    m = matrix_from_index(f3, 2, 50)
    cm = char_matrix(m)
    assert isinstance(cm, PolyMatrix)
    for i in range(2):
        for j in range(2):
            want = x_poly(f3) - UniPoly.constant(m[i, j]) if i == j \
                else UniPoly.constant(-m[i, j])
            assert cm[i, j] == want
