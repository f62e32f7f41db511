"""Property tests of the canonical-form layer against its references.

char_coeffs (Hessenberg recurrence) is checked against the Bareiss
determinant of x*I - X, factor_monic and is_irreducible_poly against trial
division and factor_monic's multiplications against factor_cost, the
invariants against random conjugation, the Smith form of a general
polynomial matrix against random unimodular row and column operations, and
the invariant factors (Hessenberg sweep), elementary divisors and rational
canonical form against the full Smith form of x*I - X."""

import random
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from support import (companion, direct_sum, monic_polys, random_invertible,
                     ref_factor_monic, ref_is_irreducible, ref_modulus, smith_normal_form)
from ffyb import polyfq
from ffyb.errors import InternalInvariantError
from ffyb.gf import is_prime, make_field
from ffyb.matfq import Matrix, char_coeffs, parse_matrix
from ffyb.orbits import all_labels, classify, representative
from ffyb.polyfq import (PolyMatrix, UniPoly, char_matrix, elementary_divisors,
                         factor_monic, invariant_factors, is_irreducible_poly,
                         rational_canonical_form)
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


# GF(2), GF(3), GF(4), GF(5), GF(7), GF(8), GF(9), GF(101), GF(23^2)
FORM_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (101, 1), (23, 2)]


@st.composite
def canonical_form_inputs(draw):
    """n <= 9 matrices whose x*I - X has every Smith shape: dense, sparse,
    nilpotent and scalar matrices, direct sums of companion blocks drawn
    from two polynomials (so blocks repeat), their squares, and solution
    representatives of X^2 = aX; all but the dense ones are conjugated by a
    random invertible matrix about half the time."""
    f = make_field(*draw(st.sampled_from(FORM_FIELDS)))
    n = draw(st.integers(1, 9))
    shape = draw(st.sampled_from(["dense", "sparse", "nilpotent", "scalar",
                                  "companions", "squared", "solution"]))
    entry = st.integers(0, f.q - 1)
    if shape in ("dense", "sparse", "nilpotent"):
        if shape == "sparse":
            entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
        encs = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=n, max_size=n))
        if shape == "nilpotent":
            encs = [[e if j > i else 0 for j, e in enumerate(row)]
                    for i, row in enumerate(encs)]
        X = Matrix(f, [[f.from_encoding(e) for e in row] for row in encs])
    elif shape == "scalar":
        X = Matrix.scalar(f, n, f.from_encoding(draw(entry)))
    elif shape == "solution":
        inst = EquationInstance(f, n, f.from_encoding(draw(st.integers(1, f.q - 1))))
        X = representative(inst, draw(st.sampled_from(all_labels(n))))
    else:
        polys = [UniPoly.from_encodings(f, [*draw(st.lists(entry, min_size=1, max_size=2)), 1])
                 for _ in range(2)]
        X = None
        while X is None or X.n_rows < n:
            block = companion(draw(st.sampled_from(polys)))
            X = block if X is None else direct_sum(X, block)
        if shape == "squared":
            X = X * X
    if shape != "dense" and draw(st.booleans()):
        P = random_invertible(random.Random(draw(st.integers(0, 2**32))), f, X.n_rows)
        X = P * X * P.inverse()
    return X


def reference_invariant_factors(X):
    return smith_normal_form(char_matrix(X))


@settings(deadline=None, max_examples=200)
@given(canonical_form_inputs())
def test_invariant_factors_equal_the_full_smith_form(X):
    hs = reference_invariant_factors(X)
    assert invariant_factors(X) == hs
    blocks = [companion(h) for h in hs if h.degree >= 1]
    want_rcf = blocks[0]
    for b in blocks[1:]:
        want_rcf = direct_sum(want_rcf, b)
    assert rational_canonical_form(X) == want_rcf
    # Factoring a minimal polynomial of degree >= 4 over GF(101) or GF(23^2)
    # runs trial division by ~10^4 or ~3*10^5 monic quadratics.
    if X.field.q <= 9 or hs[-1].degree <= 3:
        want_ed = sorted((g**e for h in hs if h.degree >= 1 for g, e in factor_monic(h)),
                         key=lambda g: (g.degree, g.enc))
        assert elementary_divisors(X) == tuple(want_ed)


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
    """Products of random monic polynomials, with repeated factors."""
    f = make_field(*draw(st.sampled_from(FIELDS)))
    max_deg = 8
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


# GF(2), GF(3), GF(4), GF(5), GF(7), GF(8), GF(9): the trace split runs over
# GF(4) and GF(8), the p-th root wherever the input is g(x^p)
REF_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@st.composite
def factoring_inputs(draw):
    """Constants and products with repeated factors, times a random nonzero
    leading coefficient; some are g(x^p), whose derivative is 0."""
    f = make_field(*draw(st.sampled_from(REF_FIELDS)))
    max_deg = 8 if f.q <= 4 else 6
    step = f.p if draw(st.booleans()) else 1
    g = UniPoly.one(f)
    while g.degree < max_deg // step and draw(st.booleans()):
        room = max_deg // step - g.degree
        d = draw(st.integers(1, room))
        tail = draw(st.lists(st.integers(0, f.q - 1), min_size=d, max_size=d))
        g = g * UniPoly(f, (*tail, 1)) ** draw(st.integers(1, room // d))
    enc = [0] * (g.degree * step + 1)
    enc[::step] = g.enc
    return UniPoly(f, tuple(enc)) * f.from_encoding(draw(st.integers(1, f.q - 1)))


@settings(deadline=None, max_examples=300)
@given(factoring_inputs())
def test_factor_monic_equals_trial_division(f):
    assert factor_monic(f) == ref_factor_monic(f)


@settings(deadline=None, max_examples=100)
@given(factoring_inputs(), st.integers(0, 3))
def test_factor_monic_with_a_power_of_x_equals_trial_division(g, e):
    f = g * UniPoly.x(g.field) ** e
    assert factor_monic(f) == ref_factor_monic(f)


def test_is_irreducible_poly_equals_trial_division():
    for ps in REF_FIELDS:
        f = make_field(*ps)
        for d in range(7 if f.q <= 3 else 5):
            for g in monic_polys(f, d):
                assert is_irreducible_poly(g) == ref_is_irreducible(g), g


def test_make_field_finds_the_trial_division_modulus():
    for p in range(2, 2**6 + 1):
        if not is_prime(p):
            continue
        s = 2
        while p**s <= 2**12:
            assert make_field(p, s).modulus == ref_modulus(p, s), (p, s)
            s += 1


def test_factor_cost_bounds_the_field_multiplications(monkeypatch):
    calls = [0, 0]  # per factor_monic call, per field

    def counted(mul):
        def call(a, b):
            calls[0] += 1
            calls[1] += 1
            return mul(a, b)
        return call
    rng = random.Random(13)
    for ps in [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (2, 8), (3, 5), (1021, 1),
               (1048573, 1)]:
        f = make_field(*ps)
        monkeypatch.setattr(f, "_mul", counted(f._mul))  # each field binds its own
        calls[1] = 0
        for _ in range(40):
            m = rng.randint(1, 8)
            g = UniPoly.one(f)
            while g.degree < m:  # many small factors: the most splitting
                d = rng.randint(1, min(2, m - g.degree))
                g = g * UniPoly(f, (*(rng.randrange(f.q) for _ in range(d)), 1))
            calls[0] = 0
            factor_monic(g)
            assert calls[0] <= polyfq.factor_cost(f.q, m), (f, g)
        assert calls[1], f  # the hook sees the field's products


def test_two_quartics_over_gf101_factor_in_under_a_second():
    f = make_field(101)
    X = parse_matrix(f, ";".join(",".join("1" if j == i + 1 else "0" for j in range(8))
                                 for i in range(7)) + ";100,99,98,91,94,95,88,8")
    start = time.perf_counter()
    divisors = elementary_divisors(X)
    assert time.perf_counter() - start < 1
    assert [g.degree for g in divisors] == [4, 4]
    assert all(ref_is_irreducible(g) for g in divisors)
    assert divisors[0] * divisors[1] == invariant_factors(X)[-1]


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


def test_equal_degree_split_of_an_irreducible_raises_instead_of_spinning():
    # x^2 + 1 is irreducible over GF(3), so no draw splits it into linear factors
    with pytest.raises(InternalInvariantError):
        polyfq._equal_degree(make_field(3), (1, 0, 1), 1, random.Random(0))


def test_from_encodings_rejects_out_of_range_coefficients():
    with pytest.raises(ValueError):
        UniPoly.from_encodings(make_field(5), [1, 5])


def test_invariant_factors_do_not_build_the_characteristic_matrix(monkeypatch):
    f = make_field(5)
    X = parse_matrix(f, "1,0,0,0;0,1,0,0;0,0,2,1;3,0,0,2")
    want = reference_invariant_factors(X)

    def refuse(X):
        raise AssertionError("char_matrix called")
    monkeypatch.setattr(polyfq, "char_matrix", refuse)
    assert invariant_factors(X) == want


def test_invariant_factors_of_a_cyclic_matrix_run_no_smith_form(monkeypatch):
    f = make_field(101)
    g = UniPoly.from_encodings(f, [3, 0, 7, 1, 0, 1])
    P = random_invertible(random.Random(10), f, 5)
    X = P * companion(g) * P.inverse()

    def refuse(*args):
        raise AssertionError("Smith form called")
    monkeypatch.setattr(polyfq, "_smith_chain", refuse)
    assert invariant_factors(X) == (UniPoly.one(f),) * 4 + (g,)


def raises_internal_error_within(seconds, fn, *args):
    """Whether fn(*args) raised InternalInvariantError, run in a daemon
    thread so that a call that spins fails the test instead of hanging it."""
    raised = []

    def run():
        try:
            fn(*args)
        except InternalInvariantError as exc:
            raised.append(exc)
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"{fn.__name__} is still running"
    return bool(raised)


def test_smith_form_and_gcd_with_a_broken_division_raise_instead_of_spinning(monkeypatch):
    f = make_field(3)
    M = char_matrix(parse_matrix(f, "1,2,0;0,1,1;2,0,2"))
    g, h = UniPoly.from_encodings(f, [1, 1]), UniPoly.from_encodings(f, [2, 1])

    def no_progress(fld, a, b):
        return (), tuple(a)  # quotient 0: the dividend is its own remainder
    monkeypatch.setattr(polyfq, "_enc_divmod", no_progress)
    assert raises_internal_error_within(30, smith_normal_form, M)
    assert raises_internal_error_within(30, polyfq._enc_gcd, f, g.enc, h.enc)


@pytest.fixture
def smith_inputs(monkeypatch):
    """The matrices polyfq._smith_chain is handed from now on.  The reference
    Smith form in support imported its own _smith_chain, so it adds none."""
    chain, seen = polyfq._smith_chain, []

    def spy(fld, a):
        seen.append([row[:] for row in a])
        return chain(fld, a)
    monkeypatch.setattr(polyfq, "_smith_chain", spy)
    return seen


@pytest.mark.parametrize("ps, rank", [((2, 3), 1), ((3, 2), 2)])
def test_invariant_factors_of_a_solution_hand_the_smith_chain_a_diagonal(smith_inputs, ps,
                                                                          rank):
    f, n = make_field(*ps), 8
    inst = EquationInstance(f, n, f.from_encoding(f.q - 1))
    B = representative(inst, all_labels(n)[rank])
    for seed in range(5):
        P = random_invertible(random.Random(seed), f, n)
        X = P * B * P.inverse()
        smith_inputs.clear()
        assert invariant_factors(X) == reference_invariant_factors(X)
        [t] = smith_inputs
        assert len(t) > 1 and all(not t[i][j] for i in range(len(t))
                                  for j in range(len(t)) if i != j), (seed, t)


def test_invariant_factors_clear_by_a_column_where_only_the_left_diagonal_divides(
        smith_inputs):
    # a solution of X^2 = 4X whose T is [[x, 3x], [0, 4x^2 + 4x]]: x divides
    # 3x, and 4x^2 + 4x does not
    f = make_field(5)
    X = parse_matrix(f, "0,3,3;0,0,0;0,4,4")
    assert X * X == X * f.from_encoding(4)
    assert invariant_factors(X) == reference_invariant_factors(X)
    assert smith_inputs == [[[(0, 1), ()], [(), (0, 4, 4)]]]


@pytest.mark.parametrize("e", [1, 2, 3])
def test_factor_monic_splits_off_the_power_of_x_with_no_draw(monkeypatch, e):
    def refuse(*args):
        raise AssertionError("random.Random built")
    for ps in [(5, 1), (7, 1), (2, 3), (3, 2)]:
        f = make_field(*ps)
        x = UniPoly.x(f)
        for a in range(1, f.q):
            g = x**e * (x - UniPoly.constant(f.from_encoding(a)))
            want = ref_factor_monic(g)
            with monkeypatch.context() as m:
                m.setattr(polyfq.random, "Random", refuse)
                assert factor_monic(g) == want, (f, a)
