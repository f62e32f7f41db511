import dataclasses
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from support import image_points, orbit_invariants, subset_separates, trace_separates
from ffyb.errors import BudgetExceededError
from ffyb.gf import make_field
from ffyb import invariants, verify
from ffyb.invariants import (_difference_masks, _image_encodings, _minimal_subsets,
                             minimal_separating_subsets, separation_report)
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


def test_closed_form_answers_past_the_sweep_bound(monkeypatch):
    def no_work(*args):
        raise AssertionError("work done")

    inst = instance(2, 1, 21)
    monkeypatch.setattr(invariants, "_difference_masks", no_work)
    assert minimal_separating_subsets(inst) == [(1, 2, 4, 8, 16)]
    assert separation_report(inst, with_minimal_subsets=True).minimal_separating_subsets \
        == ((1, 2, 4, 8, 16),)
    # the sweep itself still refuses n = 21, before any work
    monkeypatch.setattr(invariants, "np", None)
    with pytest.raises(BudgetExceededError):
        _minimal_subsets({1}, 21)


def test_closed_form_rejects_a_zero():
    with pytest.raises(ValueError):
        minimal_separating_subsets(instance(3, 1, 4, enc=0))


LUCAS_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@pytest.mark.parametrize("p,s", LUCAS_FIELDS)
def test_powers_of_p_equal_the_sweep(p, s):
    f = make_field(p, s)
    for n in range(1, 21):
        for enc in range(1, f.q) if n <= 12 else sorted({1, f.q - 1}):
            inst = EquationInstance(f, n, f.from_encoding(enc))
            got = minimal_separating_subsets(inst)
            assert got == [tuple(p**k for k in range(n) if p**k <= n)], (n, enc)
            assert got == _minimal_subsets(_difference_masks(_image_encodings(inst)), n), \
                (n, enc)


@pytest.mark.parametrize("wrong,want", [
    # drops the largest power of p
    (lambda subset, n: subset[:-1], "minimal subsets ((),) != swept ((1,),) at n=1 q=2 a=1"),
    # adds 3, which is not a power of 2
    (lambda subset, n: tuple(sorted({*subset, 3})) if n >= 3 else subset,
     "minimal subsets ((1, 2, 3),) != swept ((1, 2),) at n=3 q=2 a=1"),
])
def test_separation_check_fails_on_a_wrong_closed_form(monkeypatch, wrong, want):
    real = invariants.minimal_separating_subsets
    monkeypatch.setattr(invariants, "minimal_separating_subsets",
                        lambda inst: [wrong(real(inst)[0], inst.n)])
    assert verify._check_separation(None) == (False, want)


@pytest.mark.parametrize("flip_when_p_exceeds_n,want", [
    (True, "trace alone separates: False, want True at n=1 q=2 a=1"),
    (False, "trace alone separates: True, want False at n=2 q=2 a=1"),
])
def test_separation_check_fails_on_the_trace_rule_either_way(monkeypatch,
                                                             flip_when_p_exceeds_n, want):
    real = invariants.separation_report

    def flipped(inst, **kw):
        rep = real(inst, **kw)
        if (inst.field.p > inst.n) != flip_when_p_exceeds_n:
            return rep
        return dataclasses.replace(rep, trace_alone_separates=not rep.trace_alone_separates)

    monkeypatch.setattr(invariants, "separation_report", flipped)
    assert verify._check_separation(None) == (False, want)


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


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (7, 1)])
def test_projection_rule_equals_the_mask_rule(p, s):
    # a subset separates iff its projection of the image points is injective,
    # iff its bitmask meets every pairwise difference mask
    f = make_field(p, s)
    for n in range(1, 9):
        for enc in sorted({1, f.q - 1}):
            inst = EquationInstance(f, n, f.from_encoding(enc))
            diffs = _difference_masks(_image_encodings(inst))
            for mask in range(1, 1 << n):
                subset = [i + 1 for i in range(n) if mask >> i & 1]
                assert subset_separates(inst, subset) == all(mask & d for d in diffs), \
                    (n, enc, subset)
            rep = separation_report(inst)
            assert rep.full_set_separates == all(diffs)
            assert rep.trace_alone_separates == all(d & 1 for d in diffs)


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
