import random
import time
import tracemalloc

import pytest

from support import matrix_from_index, matrix_index, random_invertible, satisfies_yang_baxter
from ffyb.errors import BudgetExceededError
from ffyb.gf import make_field
from ffyb.matfq import Matrix, parse_matrix
from ffyb.orbits import brute_force_centralizer_order, enumerate_gl
from ffyb.scan import INDEX_LIMIT
from ffyb.solutions import (EquationInstance, brute_force_count,
                            brute_force_solutions, closed_form_count,
                            is_solution, yang_baxter_count)


def instance(p, s, n, enc=1):
    f = make_field(p, s)
    return EquationInstance(f, n, f.from_encoding(enc))


def test_zero_and_scalar_are_solutions():
    inst = instance(3, 1, 2, enc=2)
    f = inst.field
    assert is_solution(inst, Matrix.zeros(f, 2))
    assert is_solution(inst, Matrix.scalar(f, 2, inst.a))


def test_q_block_is_a_solution():
    inst = instance(5, 1, 2, enc=3)
    assert is_solution(inst, parse_matrix(inst.field, "0,1;0,3"))


def test_nonsingular_solutions_are_exactly_a_times_identity():
    for n, p, s, enc in [(2, 2, 1, 1), (2, 3, 1, 2), (3, 2, 1, 1), (2, 2, 2, 3)]:
        inst = instance(p, s, n, enc=enc)
        ai = Matrix.scalar(inst.field, n, inst.a)
        nonsingular = [x for x in brute_force_solutions(inst)
                       if not x.det().is_zero()]
        assert nonsingular == [ai]


def test_shape_and_field_mismatch_raise():
    inst = instance(3, 1, 2)
    with pytest.raises(ValueError):
        is_solution(inst, Matrix.zeros(inst.field, 3))
    with pytest.raises(ValueError):
        is_solution(inst, Matrix.zeros(make_field(5), 2))


def test_is_solution_refuses_a_zero():
    f = make_field(3)
    inst = EquationInstance(f, 2, f.zero())
    with pytest.raises(ValueError):
        is_solution(inst, Matrix.zeros(f, 2))


def test_brute_force_counts_small_cases():
    assert brute_force_count(instance(2, 1, 2)) == 8
    assert brute_force_count(instance(2, 1, 3)) == 58


def test_brute_force_list_matches_count_and_membership():
    inst = instance(3, 1, 2, enc=2)
    sols = brute_force_solutions(inst)
    assert len(sols) == brute_force_count(inst)
    assert all(is_solution(inst, x) for x in sols)
    # enumeration order is by the canonical matrix index
    idxs = [matrix_index(x) for x in sols]
    assert idxs == sorted(idxs)


def test_n1_solutions_are_zero_and_a():
    for p, s in [(2, 1), (5, 1), (3, 2)]:
        f = make_field(p, s)
        for enc in range(1, f.q):
            inst = EquationInstance(f, 1, f.from_encoding(enc))
            sols = brute_force_solutions(inst)
            assert {x[0, 0] for x in sols} == {f.zero(), inst.a}
            assert closed_form_count(inst).total == 2


def test_closed_form_small_n_formulas():
    for q, p, s in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1), (7, 7, 1), (9, 3, 2)]:
        inst = instance(p, s, 2)
        assert closed_form_count(inst).total == q * q + q + 2
        inst3 = instance(p, s, 3)
        assert closed_form_count(inst3).total == 2 * q * q * (q * q + q + 1) + 2


def test_closed_form_n4_and_n5_values():
    assert closed_form_count(instance(2, 1, 4)).total == 802
    q = 2
    want = 2 * q**4 * (q * q - q + 1) * (q * q + q + 1) * (q**4 + q**3 + q**2 + q + 1) + 2
    assert closed_form_count(instance(2, 1, 5)).total == want
    # sanity for n=4 formula shape at another q
    q = 3
    want4 = q**3 * (q * q + 1) * (q**3 + q * q + 3 * q + 2) + 2
    assert closed_form_count(instance(3, 1, 4)).total == want4


def test_closed_form_is_a_independent():
    for p, s in [(5, 1), (2, 2), (3, 2)]:
        f = make_field(p, s)
        totals = {closed_form_count(EquationInstance(f, 3, f.from_encoding(e))).total
                  for e in range(1, f.q)}
        assert len(totals) == 1


def test_oracle_agreement_across_all_nonzero_a():
    for n, p, s in [(2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1)]:
        f = make_field(p, s)
        for enc in range(1, f.q):
            inst = EquationInstance(f, n, f.from_encoding(enc))
            assert brute_force_count(inst) == closed_form_count(inst).total


def test_hook_scan_with_little_pruning_holds_one_chunk_per_depth():
    # at n = 2 the first entry equation reads three entries, so all q^3
    # prefixes are formed before any is dropped
    inst = instance(97, 1, 2)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        got = brute_force_count(inst)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == closed_form_count(inst).total == 9508
    assert peak < 8 * 10**6
    assert elapsed < 2


def test_budget_refusal():
    inst = instance(2, 1, 3)
    with pytest.raises(BudgetExceededError) as info:
        brute_force_count(inst, budget=100)
    assert info.value.required == 512


def test_index_space_beyond_int64_is_refused_whatever_the_budget():
    # 128^9 = 2^63 matrix indices would wrap around in int64
    with pytest.raises(BudgetExceededError) as info:
        brute_force_count(instance(2, 7, 3), budget=10**30)
    assert info.value.required == 2**63
    assert info.value.budget == INDEX_LIMIT
    # 3^49 matrix indices: the GL and centralizer scans share the gate
    inst = instance(3, 1, 7)
    for run in (lambda: enumerate_gl(inst.field, 7, budget=10**30),
                lambda: brute_force_centralizer_order(
                    inst, Matrix.zeros(inst.field, 7), budget=10**30)):
        with pytest.raises(BudgetExceededError) as info:
            run()
        assert info.value.required == 3**49
        assert info.value.budget == INDEX_LIMIT


def test_solutions_closed_under_conjugation():
    rng = random.Random(9)
    inst = instance(3, 1, 2, enc=2)
    sols = set(brute_force_solutions(inst))
    for x in sols:
        g = random_invertible(rng, inst.field, 2)
        assert g * x * g.inverse() in sols


def test_equation_matches_yang_baxter_for_nonzero_a():
    for n, p in [(2, 2), (2, 3)]:
        f = make_field(p)
        for enc in range(1, f.q):
            inst = EquationInstance(f, n, f.from_encoding(enc))
            for idx in range(f.q ** (n * n)):
                x = matrix_from_index(f, n, idx)
                assert is_solution(inst, x) == satisfies_yang_baxter(inst, x)


def test_a_zero_routing():
    f = make_field(3)
    inst0 = EquationInstance(f, 2, f.zero())
    assert yang_baxter_count(inst0) == 81
    with pytest.raises(ValueError):
        closed_form_count(inst0)
    inst1 = EquationInstance(f, 2, f.one())
    with pytest.raises(ValueError):
        yang_baxter_count(inst1)


def test_yang_baxter_vacuous_at_a_zero():
    for p in (2, 3):
        f = make_field(p)
        inst = EquationInstance(f, 2, f.zero())
        assert all(satisfies_yang_baxter(inst, matrix_from_index(f, 2, i))
                   for i in range(f.q**4))


def test_instance_validation():
    f = make_field(3)
    with pytest.raises(ValueError):
        EquationInstance(f, 0, f.one())
    with pytest.raises(ValueError):
        EquationInstance(f, 2, make_field(5).one())


def test_n_1_scan_at_the_largest_prime_field():
    # q^2 is past 2^40, yet every arithmetic vector holds O(q) entries
    f = make_field(1048573)  # the largest prime below the field cap
    assert brute_force_count(EquationInstance(f, 1, f.one())) == 2


def test_n_1_scan_past_one_chunk_stays_under_1_mib():
    # q^2 = 99,460,729: two int64 q x q tables would need about 1.6 GB, while
    # red has 2q - 1 entries and a scan chunk q indices
    f = make_field(9973)
    inst = EquationInstance(f, 1, f.one())
    tracemalloc.start()
    try:
        assert brute_force_count(inst) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
