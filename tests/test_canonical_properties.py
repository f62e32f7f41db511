"""Property tests of the canonical-form layer against its references.

char_coeffs (Hessenberg recurrence) is checked against the Bareiss
determinant of x*I - X, factor_monic against is_irreducible_poly, the
invariants against random conjugation, and the Smith form of a general
polynomial matrix against random unimodular row and column operations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from support import random_invertible
from ffyb import polyfq
from ffyb.gf import make_field
from ffyb.matfq import Matrix, char_coeffs, direct_sum, parse_matrix
from ffyb.orbits import all_labels, classify, representative
from ffyb.polyfq import (PolyMatrix, UniPoly, char_matrix, factor_monic,
                         invariant_factors, is_irreducible_poly, monic_polys,
                         smith_normal_form)
from ffyb.solutions import EquationInstance

# GF(2), GF(3), GF(4), GF(5), GF(8), GF(9), GF(101), GF(23^2)
FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (101, 1), (23, 2)]


def signed_bareiss_coeffs(X):
    cp = char_matrix(X).det()
    n = X.n_rows
    return tuple(cp.coeff(n - i) * (-X.field.one()) ** i for i in range(1, n + 1))


@st.composite
def square_matrices(draw, max_n=8):
    """Dense, sparse, upper triangular (no pivot below the diagonal) and
    block-diagonal matrices, so the Hessenberg reduction meets its swap and
    its skip of a column with nothing to clear."""
    f = make_field(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(["dense", "sparse", "upper", "blocks"]))
    entry = st.integers(0, f.q - 1)
    if shape == "sparse":
        entry = st.one_of(st.just(0), st.just(0), entry)
    encs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if shape == "upper":
        encs = [[e if j >= i else 0 for j, e in enumerate(row)] for i, row in enumerate(encs)]
    X = Matrix(f, [[f.from_encoding(e) for e in row] for row in encs])
    if shape == "blocks" and n >= 2:
        k = draw(st.integers(1, n - 1))
        top = Matrix(f, [row[:k] for row in X.entries[:k]])
        bottom = Matrix(f, [row[k:] for row in X.entries[k:]])
        X = direct_sum(bottom, top)
    return X


@settings(deadline=None, max_examples=150)
@given(square_matrices())
def test_char_coeffs_equal_the_bareiss_reference(X):
    assert char_coeffs(X) == signed_bareiss_coeffs(X)


@settings(deadline=None, max_examples=60)
@given(square_matrices(max_n=6), st.integers(0, 2**32))
def test_char_coeffs_are_conjugation_invariant(X, seed):
    P = random_invertible(random.Random(seed), X.field, X.n_rows)
    assert char_coeffs(P * X * P.inverse()) == char_coeffs(X)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(FIELDS), st.integers(1, 8), st.data())
def test_classify_is_conjugation_invariant(ps, n, data):
    f = make_field(*ps)
    a = f.from_encoding(data.draw(st.integers(1, f.q - 1)))
    inst = EquationInstance(f, n, a)
    label = data.draw(st.sampled_from(all_labels(n)))
    B = representative(inst, label)
    P = random_invertible(random.Random(data.draw(st.integers(0, 2**32))), f, n)
    X = P * B * P.inverse()
    assert classify(inst, X) == label
    assert char_coeffs(X) == char_coeffs(B)


@settings(deadline=None, max_examples=60)
@given(square_matrices(max_n=6))
def test_invariant_factors_form_a_chain_whose_product_is_the_determinant(X):
    hs = invariant_factors(X)
    assert all(h.is_monic() for h in hs)
    for lo, hi in zip(hs, hs[1:]):
        assert (hi % lo).is_zero()
    prod = UniPoly.one(X.field)
    for h in hs:
        prod = prod * h
    assert prod == char_matrix(X).det()


@st.composite
def unimodular_pairs(draw):
    """A random square polynomial matrix, with entries of degree <= 2 and not
    of the form x*I - X, and its image under 1..5 random unimodular row or
    column operations: a swap, a scaling by a nonzero constant, or adding a
    polynomial multiple of degree <= 1 of one line to another."""
    f = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    n = draw(st.integers(1, 4))

    def polys(deg):
        return st.lists(st.integers(0, f.q - 1), max_size=deg + 1).map(
            lambda encs: UniPoly.from_encodings(f, encs))

    rows = draw(st.lists(st.lists(polys(2), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if all(rows[i][i].degree == 1 and rows[i][i].is_monic() for i in range(n)):
        rows[0][0] = rows[0][0] * UniPoly.x(f)  # x*I - X has a monic linear diagonal
    M = [list(r) for r in rows]
    for _ in range(draw(st.integers(1, 5))):
        kind, by_cols = draw(st.sampled_from(["swap", "scale", "add"])), draw(st.booleans())
        if by_cols:
            M = [list(c) for c in zip(*M)]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "swap":
            M[i], M[j] = M[j], M[i]
        elif kind == "scale":
            c = UniPoly.from_encodings(f, [draw(st.integers(1, f.q - 1))])
            M[i] = [c * e for e in M[i]]
        elif i != j:
            g = draw(polys(1))
            M[i] = [e + g * d for e, d in zip(M[i], M[j])]
        if by_cols:
            M = [list(c) for c in zip(*M)]
    return PolyMatrix(f, rows), PolyMatrix(f, M)


@settings(deadline=None, max_examples=100)
@given(unimodular_pairs())
def test_smith_form_is_invariant_under_unimodular_operations(pair):
    M, N = pair
    assert smith_normal_form(N) == smith_normal_form(M)


def value_at(g, c):
    """g(c) summed term by term with FieldElement arithmetic."""
    out = c.field.zero()
    for k, e in enumerate(g.coeffs):
        out = out + e * c**k
    return out


@settings(deadline=None, max_examples=100)
@given(st.sampled_from(FIELDS), st.data())
def test_unipoly_arithmetic_commutes_with_evaluation(ps, data):
    f = make_field(*ps)
    polys = st.lists(st.integers(0, f.q - 1), max_size=7).map(
        lambda encs: UniPoly.from_encodings(f, encs))
    g, h = data.draw(polys), data.draw(polys)
    for c in map(f.from_encoding, range(min(f.q, 9))):
        assert g(c) == value_at(g, c)
        assert value_at(g + h, c) == value_at(g, c) + value_at(h, c)
        assert value_at(g - h, c) == value_at(g, c) - value_at(h, c)
        assert value_at(-g, c) == -value_at(g, c)
        assert value_at(g * h, c) == value_at(g, c) * value_at(h, c)
    if not h.is_zero():
        quot, rem = divmod(g, h)
        assert quot * h + rem == g
        assert rem.degree < h.degree
    assert UniPoly.x(f) != UniPoly.x(make_field(3) if f.q == 2 else make_field(2))


@st.composite
def products_of_monics(draw):
    """Products of random monic polynomials, with repeated factors; degrees
    stay small over the two large fields, where trial division by every
    monic quadratic would take seconds."""
    f = make_field(*draw(st.sampled_from(FIELDS)))
    max_deg = 8 if f.q <= 9 else 3
    out = UniPoly.one(f)
    while out.degree < max_deg and draw(st.booleans()):
        d = draw(st.integers(1, min(3, max_deg - out.degree)))
        tail = draw(st.lists(st.integers(0, f.q - 1), min_size=d, max_size=d))
        g = UniPoly.from_encodings(f, (*tail, 1))
        out = out * g ** draw(st.integers(1, 2)) if out.degree + 2 * d <= max_deg else out * g
    lead = f.from_encoding(draw(st.integers(1, f.q - 1)))
    return out * lead


@settings(deadline=None, max_examples=150)
@given(products_of_monics())
def test_factor_monic_gives_ordered_irreducible_factors(f):
    found = factor_monic(f)
    prod = UniPoly.one(f.field)
    for g, e in found:
        assert g.is_monic() and e >= 1
        prod = prod * g**e
    assert prod == f.monic()
    linear = [g for g, _ in found if g.degree == 1]
    rest = [g for g, _ in found if g.degree >= 2]
    assert [g for g, _ in found] == linear + rest
    roots = [(-g.coeff(0)).encoding for g in linear]
    assert roots == sorted(set(roots))
    keys = [(g.degree, g.enc) for g in rest]
    assert keys == sorted(set(keys))
    assert all(is_irreducible_poly(g) for g in rest)


@settings(deadline=None)
@given(square_matrices())
def test_parse_matrix_and_text_round_trip(X):
    assert parse_matrix(X.field, X.text()) == X


# -- wiring: the fast paths must not fall back on their references ------------

def test_char_coeffs_does_not_use_the_bareiss_determinant(monkeypatch):
    f = make_field(3, 2)
    X = parse_matrix(f, "1,2,0,5;0,0,7,1;3,0,0,2;8,4,6,0")
    want = signed_bareiss_coeffs(X)

    def refuse(self):
        raise AssertionError("PolyMatrix.det called")
    monkeypatch.setattr(polyfq.PolyMatrix, "det", refuse)
    assert char_coeffs(X) == want


def test_factor_monic_runs_no_irreducibility_test(monkeypatch):
    f = make_field(3)
    quads = [g for g in monic_polys(f, 2) if is_irreducible_poly(g)][:2]
    prod = quads[0] * quads[1]

    def refuse(g):
        raise AssertionError("is_irreducible_poly called")
    monkeypatch.setattr(polyfq, "is_irreducible_poly", refuse)
    assert factor_monic(prod) == [(quads[0], 1), (quads[1], 1)]


def test_from_encodings_rejects_out_of_range_coefficients():
    with pytest.raises(ValueError):
        UniPoly.from_encodings(make_field(5), [1, 5])
