"""Acceptance suite: one test per criterion, every check exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

from math import comb

import pytest

from support import (companion_not_solution, image_points, orbit_sum_count,
                     satisfies_yang_baxter, subset_separates, trace_separates)
from ffyb.gf import all_elements, make_field
from ffyb.ideal import generating_set, variety, verify_variety
from ffyb.invariants import minimal_separating_subsets
from ffyb.matfq import Matrix, matrix_from_index
from ffyb.orbits import (block_solution, brute_force_centralizer_order,
                         brute_force_conjugacy_classes, classify, list_orbits,
                         orbit_size)
from ffyb.polyfq import UniPoly, elementary_divisors, monic_polys
from ffyb.solutions import (EquationInstance, brute_force_count,
                            closed_form_count, yang_baxter_count)

# (n, p, s) for the counting criteria; q = p^s in {2, 3, 4, 5}
COUNT_CASES = [(2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1),
               (3, 2, 1), (3, 3, 1), (4, 2, 1)]

SEPARATION_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def inst_of(p, s, n, enc=1):
    f = make_field(p, s)
    return EquationInstance(f, n, f.from_encoding(enc))


@pytest.fixture(scope="session")
def brute_counts():
    """Brute-force counts for every counting case and every nonzero a."""
    import time

    start = time.perf_counter()
    counts = {}
    for n, p, s in COUNT_CASES:
        f = make_field(p, s)
        for enc in range(1, f.q):
            inst = EquationInstance(f, n, f.from_encoding(enc))
            counts[(n, f.q, enc)] = brute_force_count(inst)
    return counts, time.perf_counter() - start


def test_criterion_01_closed_form_matches_brute_force(brute_counts):
    counts, elapsed = brute_counts
    expected_totals = {}
    for n, p, s in COUNT_CASES:
        f = make_field(p, s)
        q = f.q
        for enc in range(1, q):
            inst = EquationInstance(f, n, f.from_encoding(enc))
            closed = closed_form_count(inst).total
            assert counts[(n, q, enc)] == closed, (n, q, enc)
            expected_totals[(n, q)] = closed
    # pinned values
    for q in (2, 3, 4, 5):
        assert expected_totals[(2, q)] == q * q + q + 2
    assert expected_totals[(3, 2)] == 58
    assert expected_totals[(4, 2)] == 802
    assert elapsed < 60.0  # runtime target for the whole sweep
    print("\nPASS criterion 1: closed form = brute force on all counting cases "
          f"({sorted(expected_totals.items())}) in {elapsed:.2f}s")


def test_criterion_02_count_independent_of_a(brute_counts):
    counts, _ = brute_counts
    for n, p, s in COUNT_CASES:
        q = p**s
        seen = {counts[(n, q, enc)] for enc in range(1, q)}
        assert len(seen) == 1, (n, q, seen)
    print("\nPASS criterion 2: brute-force count identical across all nonzero a")


def test_criterion_03_orbit_census():
    for n, p, s in [(2, 2, 1), (2, 3, 1), (3, 2, 1)]:
        f = make_field(p, s)
        for enc in range(1, f.q):
            inst = EquationInstance(f, n, f.from_encoding(enc))
            classes = brute_force_conjugacy_classes(inst)
            assert len(classes) == n + 1
            total = 0
            for cls in classes:
                label = classify(inst, cls[0])
                assert len(cls) == orbit_size(inst, label)
                total += len(cls)
            assert total == closed_form_count(inst).total
    print("\nPASS criterion 3: n+1 conjugacy classes with formula sizes; "
          "sizes sum to the total count")


def test_criterion_04_stabilizers():
    for n, p, s in [(2, 2, 1), (2, 3, 1), (3, 2, 1)]:
        f = make_field(p, s)
        q = f.q
        for enc in range(1, q):
            inst = EquationInstance(f, n, f.from_encoding(enc))
            for rec in list_orbits(inst):
                got = brute_force_centralizer_order(inst, rec.representative)
                assert got == rec.stabilizer_order, rec.label.text()
                if n == 2 and rec.label.kind == "mixed":
                    assert got == (q - 1) ** 2
    print("\nPASS criterion 4: brute-force centralizer orders match "
          "|GL(n-k)| * |GL(k)| for every orbit")


def test_criterion_05_elementary_divisor_fingerprints():
    checked = 0
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        f = make_field(p, s)
        x = UniPoly.x(f)
        for n in range(2, 7):
            for enc in range(1, f.q):
                a = f.from_encoding(enc)
                inst = EquationInstance(f, n, a)
                xa = x - UniPoly.constant(a)
                for k in range(1, n // 2 + 1):
                    for b in (f.zero(), a):
                        got = sorted(elementary_divisors(block_solution(inst, k, b)),
                                     key=lambda g: (g.degree, g.text()))
                        n_xa = k if b.is_zero() else n - k  # n = 2k: both agree
                        want = sorted([x] * (n - n_xa) + [xa] * n_xa,
                                      key=lambda g: (g.degree, g.text()))
                        assert got == want, (n, f.q, k, b.encoding)
                        checked += 1
    print(f"\nPASS criterion 5: exact elementary-divisor multisets for "
          f"{checked} block solutions (n <= 6, q <= 5, both b)")


def test_criterion_06_no_degree3_companion_solves():
    checked = 0
    for p in (2, 3):
        f = make_field(p)
        for g in monic_polys(f, 3):
            for enc in range(1, p):
                assert companion_not_solution(g, f.from_encoding(enc))
                checked += 1
    print(f"\nPASS criterion 6: C(f)^2 != a*C(f) for all {checked} "
          "(monic cubic, nonzero a) pairs over GF(2) and GF(3)")


def test_criterion_07_separation_suite():
    for p, s in SEPARATION_FIELDS:
        f = make_field(p, s)
        for n in range(1, 9):
            for enc in range(1, f.q):
                inst = EquationInstance(f, n, f.from_encoding(enc))
                pts = image_points(inst)
                assert len(pts) == n + 1
                assert len({pt.coords for pt in pts}) == n + 1
                assert subset_separates(inst, range(1, n + 1))
                if p > n:
                    assert trace_separates(inst)
    # the two characteristic-bound examples at n = 3
    for p, s in [(2, 1), (2, 2), (2, 3)]:
        f = make_field(p, s)
        for enc in range(1, f.q):
            inst = EquationInstance(f, 3, f.from_encoding(enc))
            assert subset_separates(inst, [1, 2])
            assert all(2 in sub for sub in minimal_separating_subsets(inst))
    for p, s in [(3, 1), (3, 2)]:
        f = make_field(p, s)
        for enc in range(1, f.q):
            inst = EquationInstance(f, 3, f.from_encoding(enc))
            assert subset_separates(inst, [1, 3])
            assert all(3 in sub for sub in minimal_separating_subsets(inst))
    print("\nPASS criterion 7: n+1 distinct image points and separating full set "
          "(n <= 8, q in {2,3,4,5,7,8,9}); trace separates when p > n; "
          "characteristic-2 and -3 subset structure reproduced")


def test_criterion_08_ideal_suite():
    f5 = make_field(5)
    base = EquationInstance(f5, 2, f5.from_encoding(2))
    for n in range(2, 13):
        gens = generating_set(base, n)
        assert len(gens.generators) == comb(n + 1, 2)
    # the displayed 6-element generating set at n = 3, per characteristic
    from test_ideal import display_generators
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        f = make_field(p, s)
        for enc in range(1, f.q):
            a = f.from_encoding(enc)
            inst = EquationInstance(f, 3, a)
            assert set(generating_set(inst).generators) == display_generators(f, 3, a)
    verified = 0
    for p, s in SEPARATION_FIELDS:
        f = make_field(p, s)
        for n in range(2, 7):
            if f.q**n > 10**6:
                continue
            for enc in range(1, f.q):
                inst = EquationInstance(f, n, f.from_encoding(enc))
                check = verify_variety(inst)
                assert check.equal and check.variety_size == n + 1, (n, f.q, enc)
                verified += 1
    print(f"\nPASS criterion 8: generator count = C(n+1,2) for n <= 12; display "
          f"matches at n = 3; variety = image points in {verified} cases "
          "(q^n <= 10^6, n <= 6, all nonzero a)")


def test_criterion_09_degenerate_cases():
    for p, s in [(2, 1), (5, 1), (3, 2)]:
        f = make_field(p, s)
        for enc in range(1, f.q):
            inst = EquationInstance(f, 1, f.from_encoding(enc))
            from ffyb.solutions import brute_force_solutions
            sols = brute_force_solutions(inst)
            assert {m[0, 0] for m in sols} == {f.zero(), inst.a}
            assert closed_form_count(inst).total == 2
    for n, p in [(2, 2), (2, 3)]:
        f = make_field(p)
        inst = EquationInstance(f, n, f.zero())
        space = f.q ** (n * n)
        assert yang_baxter_count(inst) == space
        assert sum(1 for i in range(space)
                   if satisfies_yang_baxter(inst, matrix_from_index(f, n, i))) == space
    print("\nPASS criterion 9: n = 1 gives exactly {0, a}; a = 0 gives q^(n^2), "
          "confirmed by exhaustive Yang-Baxter verification")


def test_criterion_10_formula_equals_orbit_sum():
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]:
        f = make_field(p, s)
        for n in range(1, 11):
            inst = EquationInstance(f, n, f.from_encoding(f.q - 1))
            assert closed_form_count(inst).total == orbit_sum_count(inst)[0]
    print("\nPASS criterion 10: closed form equals the sum of all orbit sizes "
          "for n <= 10, q in {2,3,4,5,7,9}")
