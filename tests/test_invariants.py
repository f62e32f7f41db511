from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from support import orbit_invariants
from ffyb.errors import BudgetExceededError
from ffyb.gf import make_field
from ffyb.invariants import (_minimal_subsets, image_points, minimal_separating_subsets,
                             separation_report, subset_separates, trace_separates)
from ffyb.matfq import char_coeffs
from ffyb.orbits import all_labels, label_rank
from ffyb.solutions import EquationInstance, brute_force_solutions


def instance(p, s, n, enc=1):
    f = make_field(p, s)
    return EquationInstance(f, n, f.from_encoding(enc))


def encs(point):
    return [c.encoding for c in point.coords]


def test_image_points_n3_generic_shape():
    inst = instance(7, 1, 3, enc=2)  # a = 2 over GF(7)
    pts = image_points(inst)
    a = 2
    assert encs(pts[0]) == [0, 0, 0]
    assert encs(pts[1]) == [a, 0, 0]
    assert encs(pts[2]) == [2 * a % 7, a * a % 7, 0]
    assert encs(pts[3]) == [3 * a % 7, 3 * a * a % 7, a**3 % 7]


def test_image_points_n3_q2():
    pts = image_points(instance(2, 1, 3))
    assert [encs(p) for p in pts] == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]]


def test_image_points_n2():
    inst = instance(5, 1, 2, enc=3)
    pts = image_points(inst)
    assert [encs(p) for p in pts] == [[0, 0], [3, 0], [6 % 5, 9 % 5]]


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_image_points_distinct_for_all_n_and_a(p, s):
    f = make_field(p, s)
    for n in range(1, 9):
        for enc in range(1, f.q):
            pts = image_points(EquationInstance(f, n, f.from_encoding(enc)))
            assert len(pts) == n + 1
            assert len({p_.coords for p_ in pts}) == n + 1


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_orbit_invariants_equal_image_point_of_same_rank(p, s):
    f = make_field(p, s)
    for n in range(1, 7):
        for enc in list(range(1, f.q))[: 2 if f.q > 5 else None]:
            inst = EquationInstance(f, n, f.from_encoding(enc))
            pts = {pt.index: pt.coords for pt in image_points(inst)}
            for label in all_labels(n):
                assert orbit_invariants(inst, label) == pts[label_rank(inst, label)]


def test_orbit_invariants_constant_on_brute_forced_orbits():
    inst = instance(2, 1, 3)
    from ffyb.orbits import brute_force_conjugacy_classes

    for cls in brute_force_conjugacy_classes(inst):
        vectors = {char_coeffs(x) for x in cls}
        assert len(vectors) == 1


def test_full_set_always_separates():
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        f = make_field(p, s)
        for n in range(1, 7):
            inst = EquationInstance(f, n, f.from_encoding(f.q - 1))
            assert subset_separates(inst, range(1, n + 1))


def test_example_subsets_char2():
    inst = instance(2, 1, 3)
    assert subset_separates(inst, [1, 2])
    assert not subset_separates(inst, [1, 3])
    assert not subset_separates(inst, [1])
    assert not subset_separates(inst, [3])


def test_example_subsets_char3():
    inst = instance(3, 1, 3, enc=2)
    assert subset_separates(inst, [1, 3])
    assert not subset_separates(inst, [1, 2])


def test_subset_validation():
    inst = instance(3, 1, 3)
    with pytest.raises(ValueError):
        subset_separates(inst, [])
    with pytest.raises(ValueError):
        subset_separates(inst, [0, 1])
    with pytest.raises(ValueError):
        subset_separates(inst, [4])


def test_trace_separation_matches_characteristic_bound():
    assert trace_separates(instance(5, 1, 3))       # p = 5 > n = 3
    assert not trace_separates(instance(2, 1, 3))   # 0 and 2a collide? no: 2a = 0
    assert not trace_separates(instance(2, 1, 2))   # 0*a and 2*a collide
    assert trace_separates(instance(7, 1, 4, enc=3))


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_trace_separates_whenever_p_exceeds_n(p, s):
    f = make_field(p, s)
    for n in range(1, 9):
        if p > n:
            for enc in range(1, f.q):
                assert trace_separates(EquationInstance(f, n, f.from_encoding(enc)))


def test_minimal_subsets_char2_require_second_coordinate():
    for p, s in [(2, 1), (2, 2), (2, 3)]:
        inst = instance(p, s, 3)
        minimal = minimal_separating_subsets(inst)
        assert minimal == [(1, 2)]
        assert all(2 in s_ for s_ in minimal)


def test_minimal_subsets_char3_require_third_coordinate():
    for p, s in [(3, 1), (3, 2)]:
        inst = instance(p, s, 3)
        minimal = minimal_separating_subsets(inst)
        assert minimal == [(1, 3)]
        assert all(3 in s_ for s_ in minimal)


def test_minimal_subsets_trace_only_when_p_large():
    assert minimal_separating_subsets(instance(3, 1, 2)) == [(1,)]
    assert minimal_separating_subsets(instance(5, 1, 2, enc=4)) == [(1,)]


def test_minimal_subsets_are_minimal_and_separating():
    inst = instance(2, 1, 4)
    minimal = minimal_separating_subsets(inst)
    for s_ in minimal:
        assert subset_separates(inst, s_)
        for i in s_:
            smaller = tuple(x for x in s_ if x != i)
            if smaller:
                assert not subset_separates(inst, smaller)


def test_subset_sweep_budget():
    inst = instance(2, 1, 21)
    with pytest.raises(BudgetExceededError):
        minimal_separating_subsets(inst)


def test_separation_report():
    rep = separation_report(instance(2, 1, 3), with_minimal_subsets=True)
    assert rep.full_set_separates
    assert not rep.trace_alone_separates
    assert rep.minimal_separating_subsets == ((1, 2),)
    d = rep.to_json_dict()
    assert d["minimal_separating_subsets"] == [[1, 2]]
    rep2 = separation_report(instance(5, 1, 2))
    assert rep2.minimal_separating_subsets is None
    assert "minimal_separating_subsets" not in rep2.to_json_dict()


def test_invariants_agree_with_direct_evaluation_on_solutions():
    # evaluating the invariant vector on every solution matches its orbit's
    # image point
    inst = instance(2, 1, 2)
    pts = {p.index: p.coords for p in image_points(inst)}
    from ffyb.orbits import classify, label_rank

    for x in brute_force_solutions(inst):
        label = classify(inst, x)
        assert char_coeffs(x) == pts[label_rank(inst, label)]


def _bitmask_minimal_subsets(f, n, enc):
    """Inclusion-minimal separating subsets by a bitmask sweep over image
    points computed directly from C(j, i) * a^i mod the field."""
    a = f.from_encoding(enc)
    rows = [[(f.from_int(comb(j, i)) * a**i).encoding for i in range(1, n + 1)]
            for j in range(n + 1)]
    separating = [mask for mask in range(1, 1 << n)
                  if len({tuple(r[i] for i in range(n) if mask >> i & 1)
                          for r in rows}) == n + 1]
    minimal = [m for m in separating
               if not any(o != m and o & m == o for o in separating)]
    subsets = [tuple(i + 1 for i in range(n) if m >> i & 1) for m in minimal]
    return sorted(subsets, key=lambda s_: (len(s_), s_))


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_minimal_subsets_match_bitmask_brute_force(p, s):
    f = make_field(p, s)
    for n in range(1, 9):
        for enc in range(1, f.q):
            got = minimal_separating_subsets(EquationInstance(f, n, f.from_encoding(enc)))
            assert got == _bitmask_minimal_subsets(f, n, enc), (n, enc)


@st.composite
def mask_sets(draw):
    """n <= 8 and a set of 1..6 nonzero masks over n coordinates: random
    hitting-set instances, most with several minimal subsets."""
    n = draw(st.integers(1, 8))
    return n, draw(st.sets(st.integers(1, 2**n - 1), min_size=1, max_size=6))


def brute_force_minimal_subsets(diffs, n):
    """Every subset of 1..n in (size, tuple) order, kept when it meets every
    mask and no proper subset does."""
    def separates(s):
        mask = sum(1 << (i - 1) for i in s)
        return all(mask & d for d in diffs)

    found = []
    for size in range(n + 1):
        for s in combinations(range(1, n + 1), size):
            if separates(s) and not any(set(m) < set(s) for m in found):
                found.append(s)
    return found


@settings(deadline=None, max_examples=200)
@given(mask_sets())
def test_subset_sweep_equals_brute_force_enumeration(case):
    n, diffs = case
    assert _minimal_subsets(diffs, n) == brute_force_minimal_subsets(diffs, n)
