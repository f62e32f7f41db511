"""Property tests of the encoded matrices against an entry-wise reference.

A Matrix holds the integer encodings of its entries.  Every operation is
checked against the FieldElement arithmetic of tests/support.py, over prime
fields, extension fields of characteristic 2 and 3, and two larger fields.
The oracles that return matrices build them from decoded digit arrays; they
are checked against one matrix_from_index call per index."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from support import random_invertible, ref_det, ref_inverse, ref_product, ref_rows, ref_rref
from ffyb import matfq
from ffyb.errors import SingularMatrixError
from ffyb.gf import Field, make_field
from ffyb.matfq import (Matrix, char_coeffs, conjugate, matrix_from_index,
                        matrix_index, parse_matrix)
from ffyb.orbits import (GL_SCAN_BUDGET, _gl_scan, all_labels,
                         brute_force_conjugacy_classes, classify, enumerate_gl,
                         representative)
from ffyb.polyfq import invariant_factors, rational_canonical_form
from ffyb.solutions import (EquationInstance, brute_force_indices,
                            brute_force_solutions, is_solution)

# GF(2), GF(3), GF(4), GF(5), GF(8), GF(9), GF(101), GF(11^2)
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (101, 1), (11, 2)]


def matrices(f, n_rows, n_cols):
    return st.lists(st.lists(st.integers(0, f.q - 1).map(f.from_encoding),
                             min_size=n_cols, max_size=n_cols),
                    min_size=n_rows, max_size=n_rows).map(lambda rows: Matrix(f, rows))


def assert_encoded(X: Matrix, f, want_rows) -> None:
    """X is over f, holds plain ints in 0..q-1 and equals the reference rows."""
    assert X.field is f
    assert all(type(e) is int and 0 <= e < f.q for row in X.enc for e in row)
    assert ref_rows(X) == want_rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_arithmetic_agrees_with_the_entrywise_reference(data):
    f = make_field(*data.draw(st.sampled_from(FIELDS)))
    r, k, c = (data.draw(st.integers(1, 5)) for _ in range(3))
    A, B = data.draw(matrices(f, r, k)), data.draw(matrices(f, r, k))
    C = data.draw(matrices(f, k, c))
    s = f.from_encoding(data.draw(st.integers(0, f.q - 1)))
    a, b = ref_rows(A), ref_rows(B)
    assert_encoded(A + B, f, [[x + y for x, y in zip(u, v)] for u, v in zip(a, b)])
    assert_encoded(A - B, f, [[x - y for x, y in zip(u, v)] for u, v in zip(a, b)])
    assert_encoded(-A, f, [[-x for x in u] for u in a])
    assert_encoded(A * C, f, ref_product(a, ref_rows(C), f.zero()))
    assert_encoded(A * s, f, [[x * s for x in u] for u in a])
    assert_encoded(s * A, f, [[s * x for x in u] for u in a])
    assert A.entries == tuple(map(tuple, a))
    # equality and hash follow the entries, not the construction path
    rebuilt = Matrix(f, a)
    assert rebuilt == A and hash(rebuilt) == hash(A)
    assert (A == B) == (a == b)
    assert A.rank() == ref_rref(a)[1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_square_operations_and_codecs_agree_with_the_reference(data):
    f = make_field(*data.draw(st.sampled_from(FIELDS)))
    n = data.draw(st.integers(1, 5))
    X = data.draw(matrices(f, n, n))
    x = ref_rows(X)
    assert X.det() == ref_det(x, f.one())
    assert X.rank() == ref_rref(x)[1]
    want = ref_inverse(x, f.zero(), f.one())
    if want is None:
        with pytest.raises(SingularMatrixError):
            X.inverse()
    else:
        assert_encoded(X.inverse(), f, want)
    assert parse_matrix(f, X.text()) == X
    idx = matrix_index(X)
    assert 0 <= idx < f.q ** (n * n)
    assert_encoded(matrix_from_index(f, n, idx), f, x)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_nothing_edits_a_matrix_in_place(data):
    """_echelon and _hessenberg edit their rows in place; they must get copies."""
    f = make_field(*data.draw(st.sampled_from(FIELDS[:6])))
    n = data.draw(st.integers(1, 5))
    inst = EquationInstance(f, n, f.from_encoding(data.draw(st.integers(1, f.q - 1))))
    P = random_invertible(random.Random(data.draw(st.integers(0, 2**32))), f, n)
    solution = conjugate(P, representative(inst, data.draw(st.sampled_from(all_labels(n)))))
    for X in (data.draw(matrices(f, n, n)), solution):
        snapshot, digest = [list(row) for row in X.enc], hash(X)
        X.det(), X.rank(), char_coeffs(X), invariant_factors(X)
        rational_canonical_form(X)
        try:
            X.inverse()
        except SingularMatrixError:
            pass
        if is_solution(inst, X):
            classify(inst, X)
        else:
            assert X is not solution
        assert [list(row) for row in X.enc] == snapshot and hash(X) == digest


def test_constructor_and_scalar_product_reject_foreign_entries():
    f2, f4, f5 = make_field(2), make_field(2, 2), make_field(5)
    with pytest.raises(ValueError):
        Matrix(f5, [[f5.one(), f5.zero()], [f5.one()]])
    with pytest.raises(ValueError):
        Matrix(f5, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        Matrix(f4, [[f2.one(), f2.zero()], [f2.zero(), f2.one()]])
    with pytest.raises(ValueError):
        Matrix.scalar(f4, 2, f2.one())
    X = Matrix.identity(f5, 2)
    with pytest.raises(ValueError):
        X * f4.one()
    with pytest.raises(ValueError):
        f4.one() * X
    with pytest.raises(ValueError):
        matrix_from_index(f5, 2, 5**4)
    with pytest.raises(ValueError):
        matrix_from_index(f5, 2, -1)


@pytest.mark.parametrize("text,message", [
    ("0,5", "malformed matrix text '0,5': encoding 5 out of range 0..4"),
    ("0,1;zebra", "malformed matrix text '0,1;zebra': invalid literal for int() "
                  "with base 10: 'zebra'"),
    ("0,1;2", "ragged rows"),
])
def test_parse_matrix_error_texts(text, message):
    with pytest.raises(ValueError) as err:
        parse_matrix(make_field(5), text)
    assert str(err.value) == message


def refuse(*args, **kwargs):
    raise AssertionError("a result matrix was built entry by entry")


@pytest.mark.parametrize("p,s,n", [(p, s, n) for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]
                                   for n in (1, 2, 3)])
def test_oracle_matrices_are_built_from_digit_arrays(monkeypatch, p, s, n):
    f = make_field(p, s)
    inst = EquationInstance(f, n, f.from_encoding(f.q - 1))
    with monkeypatch.context() as m:
        m.setattr(matfq, "matrix_from_index", refuse)
        m.setattr(Field, "from_encoding", refuse)
        gl = enumerate_gl(f, n) if f.q ** (n * n) <= 10**5 else None
        solutions = brute_force_solutions(inst)
        classes = brute_force_conjugacy_classes(inst, budget=10**7)

    def built(indices):
        return [matrix_from_index(f, n, i) for i in indices]

    for got in [gl or [], solutions] + classes:
        assert all(type(e) is int for X in got for row in X.enc for e in row)
    if gl is not None:
        assert gl == built(_gl_scan(f, n, GL_SCAN_BUDGET).tolist())
    assert solutions == built(brute_force_indices(inst))
    members = [matrix_index(X) for c in classes for X in c]
    assert sorted(members) == brute_force_indices(inst)
    for c in classes:
        assert c == built(sorted(map(matrix_index, c)))
