"""Property tests of the chunked scanner against the object-level reference."""

import functools
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from support import evaluate, matrix_from_index, variety
from ffyb import scan
from ffyb.errors import SingularMatrixError
from ffyb.gf import Field, make_field
from ffyb.ideal import GeneratorSet, MultiPoly, generating_set
from ffyb.matfq import Matrix
from ffyb.solutions import EquationInstance, brute_force_indices, is_solution

SCAN_FIELDS = [(2, 1), (2, 2), (5, 1), (2, 3), (3, 2)]  # GF(2), GF(4), GF(5), GF(8), GF(9)
VARIETY_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]  # GF(2), GF(3), GF(4), GF(5)
PROPERTY_FIELDS = VARIETY_FIELDS + [(2, 3), (3, 2)]  # and GF(8), GF(9)


@st.composite
def matrix_batches(draw):
    # GF(257), GF(17^2) and GF(2^9) compute their arithmetic past one scan chunk
    f = make_field(*draw(st.sampled_from(SCAN_FIELDS + [(257, 1), (17, 2), (2, 9)])))
    n = draw(st.integers(1, 4))
    entries = st.integers(0, f.q - 1)
    cols = draw(st.lists(st.lists(entries, min_size=n * n, max_size=n * n),
                         min_size=1, max_size=12))
    return f, n, cols


@settings(deadline=None)
@given(matrix_batches())
def test_batched_det_and_inverse_match_matrix(batch):
    # Tables.det is the batched elimination; exactly the matrices it gives a
    # nonzero determinant have a Matrix inverse
    f, n, cols = batch
    det = scan.Tables(f).det(n, np.array(cols, dtype=np.int64).T)
    assert det.shape == (len(cols),)
    for k, col in enumerate(cols):
        X = Matrix(f, [[f.from_encoding(col[i * n + j]) for j in range(n)]
                       for i in range(n)])
        assert det[k] == X.det().encoding
        if det[k] == 0:
            try:
                X.inverse()
            except SingularMatrixError:
                continue
            raise AssertionError("Matrix.inverse accepted a singular matrix")
        assert X * X.inverse() == Matrix.identity(f, n)


def test_det_builds_the_inverse_vector_once_per_tables():
    f = make_field(7)
    mats = np.array([[2, 1, 1, 3], [0, 4, 5, 6], [0, 0, 0, 1]], dtype=np.int64).T
    with mock.patch.object(Field, "_inv", autospec=True, side_effect=Field._inv) as inv:
        tabs = scan.Tables(f)
        assert inv.call_count == 0  # a scan that reads no determinant builds nothing
        dets = [tabs.det(2, mats) for _ in range(2)]
    assert inv.call_count <= f.q - 1
    for det in dets:
        assert det.tolist() == [5, 1, 0]


@functools.cache
def _is_solution_indices(ps, n, a, lo, hi):
    f = make_field(*ps)
    inst = EquationInstance(f, n, f.from_encoding(a))
    return [i for i in range(lo, hi) if is_solution(inst, matrix_from_index(f, n, i))]


@settings(deadline=None, max_examples=40)
@given(st.sampled_from([((2, 1), 1), ((3, 1), 1), ((2, 2), 1), ((5, 1), 1),
                        ((2, 1), 2), ((3, 1), 2), ((2, 2), 2), ((5, 1), 2),
                        ((2, 1), 3)]),
       st.integers(1, 64))
def test_hook_scan_decides_every_matrix(case, chunk):
    ps, n = case
    f = make_field(*ps)
    for a in range(1, f.q):
        inst = EquationInstance(f, n, f.from_encoding(a))
        with mock.patch.object(scan, "CHUNK", chunk):
            got = brute_force_indices(inst)
        assert got == _is_solution_indices(ps, n, a, 0, f.q ** (n * n))


@functools.cache
def _default_chunk_indices(ps, n, a):
    f = make_field(*ps)
    return brute_force_indices(EquationInstance(f, n, f.from_encoding(a)))


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([((2, 3), 2), ((3, 2), 2), ((3, 1), 3), ((5, 1), 3), ((2, 1), 4),
                        ((3, 1), 4)]),
       st.data())
def test_hook_scan_window_matches_is_solution(case, data):
    # where deciding every matrix by is_solution is too slow, a window of the
    # full list is; CHUNK below 64 is covered by the test above
    ps, n = case
    f = make_field(*ps)
    a = data.draw(st.integers(1, f.q - 1))
    space = f.q ** (n * n)
    lo = data.draw(st.integers(0, space - 1))
    hi = data.draw(st.integers(lo, min(space, lo + 150)))
    if space > 10**6:  # GF(3), n = 4 runs at the default CHUNK only
        got = _default_chunk_indices(ps, n, a)
    else:
        with mock.patch.object(scan, "CHUNK", data.draw(st.integers(64, 4096))):
            got = brute_force_indices(EquationInstance(f, n, f.from_encoding(a)))
    assert [i for i in got if lo <= i < hi] == _is_solution_indices(ps, n, a, lo, hi)


@settings(deadline=None, max_examples=40)
@given(st.sampled_from(SCAN_FIELDS), st.integers(2, 4), st.data())
def test_variety_hits_do_not_depend_on_chunk_boundaries(ps, n, data):
    f = make_field(*ps)
    inst = EquationInstance(f, n, f.from_encoding(data.draw(st.integers(1, f.q - 1))))
    gens = generating_set(inst)
    whole = variety(gens, f)
    with mock.patch.object(scan, "CHUNK", data.draw(st.integers(1, f.q**n))):
        assert variety(gens, f) == whole


@st.composite
def sparse_generator_sets(draw):
    """GeneratorSets of up to four sparse polynomials of degree <= 2, each on
    all n variables or, in some sets, on the first or the last one only."""
    f = make_field(*draw(st.sampled_from(VARIETY_FIELDS)))
    n = draw(st.integers(1, 4))
    var = draw(st.sampled_from([st.integers(0, n - 1), st.just(0), st.just(n - 1)]))
    monomial = st.lists(var, max_size=2).map(
        lambda vs: tuple(vs.count(v) for v in range(n)))
    polys = st.dictionaries(monomial, st.integers(0, f.q - 1), max_size=3).map(
        lambda terms: MultiPoly(f, n, {e: f.from_encoding(c) for e, c in terms.items()}))
    gens = tuple(draw(st.lists(polys, max_size=4)))
    return f, GeneratorSet(n, f.one(), gens)


@settings(deadline=None, max_examples=150)
@given(sparse_generator_sets(), st.integers(1, 700))
def test_pruned_variety_matches_evaluation_at_every_point(case, chunk):
    f, gens = case
    elems = [f.from_encoding(k) for k in range(f.q)]
    # product() varies the last coordinate fastest: reversed, that is
    # ascending point-encoding order
    want = [pt[::-1] for pt in product(elems, repeat=gens.n)
            if all(evaluate(g, pt[::-1]).is_zero() for g in gens.generators)]
    with mock.patch.object(scan, "CHUNK", chunk):
        assert variety(gens, f) == want


@st.composite
def one_layer_generator_sets(draw):
    """Up to 12 polynomials that all read x_j and otherwise only x_j..x_n,
    so the scan tests them in one layer, with 1 to 5 terms of degree <= 3
    each, plus at most one constant polynomial, over fields with q^n <= 4096."""
    f = make_field(*draw(st.sampled_from(PROPERTY_FIELDS)))
    n = draw(st.integers(1, max(n for n in range(1, 13) if f.q**n <= 4096)))
    j = draw(st.integers(0, n - 1))
    var = st.integers(j, n - 1)

    def exps(vs):
        return tuple(vs.count(v) for v in range(n))
    coef = st.integers(1, f.q - 1).map(f.from_encoding)
    polys = []
    for _ in range(draw(st.integers(1, 12))):
        lead = exps([j] + draw(st.lists(var, max_size=2)))
        terms = draw(st.dictionaries(st.lists(var, max_size=3).map(exps), coef, max_size=4))
        terms[lead] = draw(coef)
        polys.append(MultiPoly(f, n, terms))
    for c in draw(st.lists(st.integers(0, f.q - 1), max_size=1)):
        polys.insert(draw(st.integers(0, len(polys))),
                     MultiPoly(f, n, {(0,) * n: f.from_encoding(c)}))
    return f, GeneratorSet(n, f.one(), tuple(polys))


@settings(deadline=None, max_examples=60)
@given(one_layer_generator_sets(), st.sampled_from([1, 1, 5, 64, 4096]))
def test_batched_layer_matches_evaluation_at_every_point(case, chunk):
    # CHUNK = 1 makes every block one polynomial, so a layer splits into
    # blocks of different widths
    f, gens = case
    elems = [f.from_encoding(k) for k in range(f.q)]
    want = [pt[::-1] for pt in product(elems, repeat=gens.n)
            if all(evaluate(g, pt[::-1]).is_zero() for g in gens.generators)]
    with mock.patch.object(scan, "CHUNK", chunk):
        assert variety(gens, f) == want


def test_variety_without_pruning_holds_one_chunk_per_depth():
    # The scan fixes x_20 first, so each generator x_i + x_20 is tested as
    # soon as x_i is fixed, at depth 21 - i: from depth 2 on only the
    # prefixes with x_i = x_20 survive, and the scan forms 79 prefixes.
    f = make_field(2)
    n, one = 20, f.one()
    unit = [tuple(int(v == i) for v in range(n)) for i in range(n)]
    gens = GeneratorSet(n, one, tuple(
        MultiPoly(f, n, {unit[i]: one, unit[n - 1]: one}) for i in range(n - 1)))
    tracemalloc.start()
    try:
        got = variety(gens, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [(f.zero(),) * n, (one,) * n]
    assert peak < 8 * 10**6


def test_variety_without_pruning_from_the_last_variable_holds_one_chunk_per_depth():
    # every generator x_1 + x_i reads the first variable, and the scan fixes
    # x_1 last, so no prefix is dropped before depth 20
    f = make_field(2)
    n, one = 20, f.one()
    unit = [tuple(int(v == i) for v in range(n)) for i in range(n)]
    gens = GeneratorSet(n, one, tuple(
        MultiPoly(f, n, {unit[0]: one, unit[i]: one}) for i in range(1, n)))
    tracemalloc.start()
    try:
        got = variety(gens, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [(f.zero(),) * n, (one,) * n]
    assert peak < 8 * 10**6


def test_variety_of_one_full_layer_holds_one_chunk_at_a_time():
    # all 38 generators x_1 + x_i and x_1 x_i + x_i read x_1, which the scan
    # fixes last, so they share the last layer, and at full depth a chunk of
    # prefixes lets each block hold only one of them
    f = make_field(2)
    n, one = 20, f.one()
    unit = [tuple(int(v == i) for v in range(n)) for i in range(n)]
    both = [tuple(int(v in (0, i)) for v in range(n)) for i in range(n)]
    gens = []
    for i in range(1, n):
        gens.append(MultiPoly(f, n, {unit[0]: one, unit[i]: one}))
        gens.append(MultiPoly(f, n, {both[i]: one, unit[i]: one}))
    gens = GeneratorSet(n, one, tuple(gens))
    tracemalloc.start()
    try:
        got = variety(gens, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [(f.zero(),) * n, (one,) * n]
    assert peak < 8 * 10**6
