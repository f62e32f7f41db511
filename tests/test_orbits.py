import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from support import (matrix_from_index, matrix_index, orbit_sum_count, random_invertible,
                     ref_block_solution, ref_generators)
from ffyb import orbits, scan, verify
from ffyb.errors import BudgetExceededError, InternalInvariantError
from ffyb.gf import make_field
from ffyb.matfq import Matrix, gl_order
from ffyb.orbits import (SCALAR_A, ZERO, _label_of_rank, all_labels, block_solution,
                         brute_force_centralizer_order,
                         brute_force_conjugacy_classes, classify,
                         enumerate_gl, label_rank, list_orbits, mixed_label,
                         orbit_size, representative, stabilizer_order)
from ffyb.polyfq import UniPoly, elementary_divisors
from ffyb.solutions import (EquationInstance, brute_force_solutions,
                            closed_form_count, is_solution)


def instance(p, s, n, enc=1):
    f = make_field(p, s)
    return EquationInstance(f, n, f.from_encoding(enc))


def test_representative_shapes():
    inst = instance(5, 1, 3, enc=2)
    assert representative(inst, ZERO).text() == "0,0,0;0,0,0;0,0,0"
    assert representative(inst, SCALAR_A).text() == "2,0,0;0,2,0;0,0,2"
    assert representative(inst, mixed_label(3, 1, "0")).text() == "0,0,0;0,0,1;0,0,2"
    assert representative(inst, mixed_label(3, 1, "a")).text() == "2,0,0;0,0,1;0,0,2"


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (7, 1)])
def test_every_orbit_fact_follows_from_the_rank(p, s):
    f = make_field(p, s)
    for n in range(1, 10):
        for enc in sorted({1, f.q - 1}):
            inst = EquationInstance(f, n, f.from_encoding(enc))
            for r in range(n + 1):
                label = _label_of_rank(n, r)
                assert label_rank(inst, label) == r
                assert label == all_labels(n)[r]
                X = representative(inst, label)
                assert X.rank() == r
                assert classify(inst, X) == label
            for k in range(n // 2 + 1):
                for b in (f.zero(), inst.a):
                    assert block_solution(inst, k, b) == ref_block_solution(inst, k, b), (n, k)


def test_middle_orbit_normalizes_for_even_n():
    assert mixed_label(4, 2, "a") == mixed_label(4, 2, "0")
    inst = instance(3, 1, 4, enc=2)
    # the representative is the pure block of Q(a) copies, no scalar part
    assert representative(inst, mixed_label(4, 2, "0")).text() \
        == "0,1,0,0;0,2,0,0;0,0,0,1;0,0,0,2"


def test_mixed_label_validation():
    with pytest.raises(ValueError):
        mixed_label(3, 2, "0")
    with pytest.raises(ValueError):
        mixed_label(4, 0, "a")
    with pytest.raises(ValueError):
        mixed_label(4, 1, "q")


def test_every_representative_is_a_solution():
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        f = make_field(p, s)
        for n in range(1, 7):
            for enc in range(1, f.q):
                inst = EquationInstance(f, n, f.from_encoding(enc))
                for label in all_labels(n):
                    assert is_solution(inst, representative(inst, label))


@pytest.mark.parametrize("n,count", [(1, 2), (2, 3), (3, 4), (4, 5), (7, 8)])
def test_orbit_count_and_ranks(n, count):
    inst = instance(2, 1, n)
    records = list_orbits(inst)
    assert len(records) == count
    assert [r.rank for r in records] == list(range(n + 1))
    for r in records:
        assert r.representative.rank() == r.rank
        assert r.orbit_size * r.stabilizer_order == gl_order(n, inst.q)


def test_orbit_labels_for_small_n():
    assert [l.text() for l in all_labels(2)] == ["Zero", "Mixed{k=1,b=0}", "ScalarA"]
    assert [l.text() for l in all_labels(3)] \
        == ["Zero", "Mixed{k=1,b=0}", "Mixed{k=1,b=a}", "ScalarA"]
    assert [l.text() for l in all_labels(4)] \
        == ["Zero", "Mixed{k=1,b=0}", "Mixed{k=2,b=0}", "Mixed{k=1,b=a}", "ScalarA"]


def test_classify_examples():
    inst = instance(3, 1, 4, enc=2)
    f = inst.field
    x = block_solution(inst, 1, f.zero())
    assert classify(inst, x) == mixed_label(4, 1, "0")
    assert classify(inst, Matrix.scalar(f, 4, inst.a)) == SCALAR_A
    assert classify(inst, Matrix.zeros(f, 4)) == ZERO
    assert classify(inst, block_solution(inst, 1, inst.a)) == mixed_label(4, 1, "a")


def test_classify_rejects_non_solutions():
    inst = instance(3, 1, 2)
    f = inst.field
    shear = Matrix(f, [[f.one(), f.one()], [f.zero(), f.one()]])
    with pytest.raises(ValueError):
        classify(inst, shear)


def test_classify_is_conjugation_invariant():
    rng = random.Random(10)
    inst = instance(3, 1, 3)
    x = representative(inst, mixed_label(3, 1, "a"))
    for _ in range(100):
        g = random_invertible(rng, inst.field, 3)
        y = g * x * g.inverse()
        assert y.rank() == 2
        assert classify(inst, y) == mixed_label(3, 1, "a")


def test_stabilizer_orders():
    for q, p, s in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        inst = instance(p, s, 2)
        assert stabilizer_order(inst, mixed_label(2, 1, "0")) == (q - 1) ** 2
        assert stabilizer_order(inst, SCALAR_A) == gl_order(2, q)
    inst32 = instance(2, 1, 3)
    assert stabilizer_order(inst32, mixed_label(3, 1, "0")) \
        == gl_order(2, 2) * gl_order(1, 2) == 6


def test_orbit_sizes():
    for q, p, s in [(2, 2, 1), (3, 3, 1), (4, 2, 2), (5, 5, 1)]:
        inst = instance(p, s, 2)
        assert orbit_size(inst, mixed_label(2, 1, "0")) == q * q + q
        assert orbit_size(inst, ZERO) == 1


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)])
def test_orbit_sizes_sum_to_total_count(n, p, s):
    inst = instance(p, s, n)
    total, per_orbit = orbit_sum_count(inst)
    assert total == closed_form_count(inst).total
    assert len(per_orbit) == n + 1


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]), st.integers(1, 30),
       st.data())
def test_orbit_sizes_sum_to_total_count_up_to_n30(ps, n, data):
    f = make_field(*ps)
    inst = EquationInstance(f, n, f.from_encoding(data.draw(st.integers(1, f.q - 1))))
    assert closed_form_count(inst).total == orbit_sum_count(inst)[0]


def test_orbit_numbers_too_long_to_print_are_refused():
    inst = instance(2, 1, 2000)
    for call in (orbit_size, stabilizer_order):
        for label in (ZERO, mixed_label(2000, 1000, "0")):
            with pytest.raises(BudgetExceededError):
                call(inst, label)
    with pytest.raises(BudgetExceededError):
        list_orbits(inst)
    inst = instance(2, 1, 100)
    assert orbit_size(inst, ZERO) == 1
    assert stabilizer_order(inst, ZERO) == gl_order(100, 2)


def test_gl_enumeration_sizes():
    assert len(enumerate_gl(make_field(2), 2)) == 6
    assert len(enumerate_gl(make_field(3), 2)) == 48
    assert len(enumerate_gl(make_field(2), 3)) == 168


@pytest.mark.parametrize("n", [0, -1])
def test_gl_enumeration_refuses_n_below_one(n):
    # refused before scan.gate: q^0 = 1 index would pass it
    with mock.patch.object(scan, "gate", side_effect=AssertionError("gate reached")):
        with pytest.raises(ValueError, match="n must be >= 1"):
            enumerate_gl(make_field(3), n)


def test_census_n2_q2():
    inst = instance(2, 1, 2)
    classes = brute_force_conjugacy_classes(inst)
    assert sorted(len(c) for c in classes) == [1, 1, 6]


def test_census_n3_q2():
    inst = instance(2, 1, 3)
    classes = brute_force_conjugacy_classes(inst)
    assert len(classes) == 4
    assert sum(len(c) for c in classes) == 58
    for cls in classes:
        labels = {classify(inst, x) for x in cls}
        assert len(labels) == 1
        assert len(cls) == orbit_size(inst, labels.pop())


def test_census_matches_formula_sizes_n2_q3():
    inst = instance(3, 1, 2, enc=2)
    classes = brute_force_conjugacy_classes(inst)
    assert len(classes) == 3
    got = {classify(inst, c[0]).text(): len(c) for c in classes}
    want = {r.label.text(): r.orbit_size for r in list_orbits(inst)}
    assert got == want


def full_gl_census(inst):
    """The orbits as sets of P X P^-1 over every P in GL(n, q), with Matrix
    arithmetic; classes ascend by smallest member index, members sorted."""
    group = [(P, P.inverse()) for P in enumerate_gl(inst.field, inst.n)]
    orbits = {tuple(sorted({matrix_index(P * X * Pinv) for P, Pinv in group}))
              for X in brute_force_solutions(inst)}
    return sorted(orbits)


@pytest.mark.parametrize("chunk", [scan.CHUNK, 5])
@pytest.mark.parametrize("p,s,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)])
def test_closure_census_equals_full_gl_census(p, s, n, chunk):
    # CHUNK = 5 gives each conjugation chunk max(1, 5 // k) solutions, k generators
    f = make_field(p, s)
    for enc in range(1, f.q):
        inst = EquationInstance(f, n, f.from_encoding(enc))
        with mock.patch.object(scan, "CHUNK", chunk):
            got = brute_force_conjugacy_classes(inst)
        assert [[matrix_index(m) for m in c] for c in got] \
            == [list(c) for c in full_gl_census(inst)]


@settings(deadline=None, max_examples=80)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]), st.integers(1, 4),
       st.data())
def test_row_and_column_operations_conjugate_by_each_generator(ps, n, data):
    f = make_field(*ps)
    idx = data.draw(st.lists(st.integers(0, f.q ** (n * n) - 1), min_size=1, max_size=4))
    got = orbits._conjugate(scan.Tables(f), n, orbits._conjugators(f, n),
                            np.array(idx, dtype=np.int64))
    gens = ref_generators(f, n)
    assert got.shape == (len(gens), len(idx))
    assert got.T.tolist() == [[matrix_index(P * X * P.inverse()) for P in gens]
                              for X in (matrix_from_index(f, n, i) for i in idx)]


@pytest.mark.parametrize("p", [2, 5])
def test_census_n1_every_solution_is_its_own_class(p):
    # GF(2) has no transvection at n = 1 and no dilation: no generator at all
    f = make_field(p)
    for enc in range(1, p):
        got = brute_force_conjugacy_classes(EquationInstance(f, 1, f.from_encoding(enc)))
        assert [[matrix_index(m) for m in c] for c in got] == [[0], [enc]]


@pytest.mark.parametrize("p,s,n", [(2, 2, 2), (3, 1, 3)])
def test_census_index_arrays_are_the_public_classes(p, s, n):
    inst = instance(p, s, n, enc=p**s - 1)
    got = orbits._census(inst, orbits.GL_SCAN_BUDGET)
    assert all(c.dtype == np.int64 and (np.diff(c) > 0).all() for c in got)
    assert [c.tolist() for c in got] \
        == [[matrix_index(m) for m in c] for c in brute_force_conjugacy_classes(inst)]


def test_orbit_census_check_builds_one_matrix_per_class(monkeypatch):
    from ffyb import solutions
    sizes = []

    def counting(field, n, idx):
        sizes.append(len(idx))
        return real(field, n, idx)

    real = solutions._matrices_of
    monkeypatch.setattr(solutions, "_matrices_of", counting)
    monkeypatch.setattr(orbits, "_matrices_of", counting)
    ok, detail = verify._check_orbit_census(None)
    assert ok, detail
    assert sizes and set(sizes) == {1}


def test_census_raises_when_a_conjugate_is_not_a_solution(monkeypatch):
    real = orbits._conjugate

    def faulty(*args):
        images = real(*args)
        images[0, 0] = 3  # E_01 over GF(3): its square is 0, not a * E_01
        return images

    monkeypatch.setattr(orbits, "_conjugate", faulty)
    with pytest.raises(InternalInvariantError):
        brute_force_conjugacy_classes(instance(3, 1, 2))


def test_census_gf3_n4_at_scale():
    inst = instance(3, 1, 4)
    start = time.perf_counter()
    classes = brute_force_conjugacy_classes(inst, budget=3**16)
    assert time.perf_counter() - start < 5
    assert [len(c) for c in classes] == [1, 1080, 10530, 1080, 1]
    for cls in classes:
        assert len(cls) == orbit_size(inst, classify(inst, cls[0]))


def test_centralizer_counts():
    inst = instance(3, 1, 2)
    f = inst.field
    q1 = block_solution(inst, 1, f.zero())
    assert brute_force_centralizer_order(inst, q1) == 4  # (q-1)^2
    assert brute_force_centralizer_order(inst, Matrix.identity(f, 2)) == gl_order(2, 3)
    inst32 = instance(2, 1, 3)
    x = block_solution(inst32, 1, inst32.field.zero())
    assert brute_force_centralizer_order(inst32, x) == 6


def test_centralizer_count_holds_one_chunk_at_a_time():
    # GF(31), n = 2: the commutant of Q(a) is its 31^2 polynomials c I + d Q(a)
    # (d = 2), formed in one chunk; the X = 0 test below spans many chunks
    inst = instance(31, 1, 2)
    x = block_solution(inst, 1, inst.field.zero())
    tracemalloc.start()
    try:
        got = brute_force_centralizer_order(inst, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 900  # (q-1)^2
    assert peak < 48 * 10**6


def test_centralizer_of_zero_holds_one_chunk_at_a_time():
    # X = 0 at GF(31), n = 2: the commutant is all 923,521 matrices (d = 4),
    # near the GL budget; holding the whole group and its inverses at once
    # takes about 140 MB
    inst = instance(31, 1, 2)
    tracemalloc.start()
    try:
        got = brute_force_centralizer_order(inst, representative(inst, ZERO))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == gl_order(2, 31)
    assert peak < 48 * 10**6


@pytest.mark.parametrize("p,s,n,kinds", [(3, 1, 4, {"mixed"}),
                                         (2, 2, 3, {"zero", "mixed", "scalar_a"})])
def test_centralizers_of_conjugated_representatives_beyond_the_full_scan(p, s, n, kinds):
    # q^(n^2) = 3^16 and 4^9: the full matrix scan refused 3^16 at the default
    # budget; the commutants have q^d members, d = k^2 + (n-k)^2 <= 10
    rng = random.Random(17)
    f = make_field(p, s)
    for enc in range(1, f.q):
        inst = EquationInstance(f, n, f.from_encoding(enc))
        for label in all_labels(n):
            if label.kind in kinds:
                P = random_invertible(rng, f, n)
                X = P * representative(inst, label) * P.inverse()
                assert brute_force_centralizer_order(inst, X) == stabilizer_order(inst, label)


def test_centralizer_refusals_come_before_the_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work done before the budget check")

    inst = instance(3, 1, 4)
    X = representative(inst, mixed_label(4, 1, "0"))  # d = 1 + 9
    monkeypatch.setattr(orbits, "_echelon", refuse)
    with pytest.raises(BudgetExceededError) as info:
        brute_force_centralizer_order(inst, X, budget=3**4 - 1)
    assert info.value.required == 3**4  # every commutant holds at least q^n
    monkeypatch.undo()
    monkeypatch.setattr(scan, "pruned", refuse)
    with pytest.raises(BudgetExceededError) as info:
        brute_force_centralizer_order(inst, X, budget=3**10 - 1)
    assert info.value.required == 3**10
    monkeypatch.undo()
    assert brute_force_centralizer_order(inst, X, budget=3**10) == stabilizer_order(
        inst, mixed_label(4, 1, "0"))


def test_centralizer_raises_on_a_basis_matrix_that_does_not_commute(monkeypatch):
    real = orbits._echelon

    def faulty(field, rows):
        rows, rank, det = real(field, rows)
        rows[0] = [0] * (len(rows[0]) - 1) + [1]  # a wrong reduced row: P_last = 0
        return rows, rank, det

    inst = instance(3, 1, 2)
    X = representative(inst, mixed_label(2, 1, "0"))
    assert brute_force_centralizer_order(inst, X) == 4
    monkeypatch.setattr(orbits, "_echelon", faulty)
    with pytest.raises(InternalInvariantError):
        brute_force_centralizer_order(inst, X)


def test_conjugacy_census_holds_one_chunk_at_a_time():
    # GF(23), n = 2 scans 279,841 matrices; conjugating by the whole group and
    # its inverses at once takes about 70 MB
    inst = instance(23, 1, 2, enc=3)
    tracemalloc.start()
    try:
        classes = brute_force_conjugacy_classes(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(c) for c in classes] == [1, 23 * 24, 1]
    idx = [[matrix_index(m) for m in c] for c in classes]
    assert all(c == sorted(c) for c in idx)
    assert [c[0] for c in idx] == sorted(c[0] for c in idx)
    assert peak < 48 * 10**6


def test_block_solution_elementary_divisors():
    # rank fingerprint justification: b = 0 gives k copies of x-a,
    # b = a gives n-k copies of x-a
    f = make_field(3)
    a = f.from_encoding(2)
    inst = EquationInstance(f, 5, a)
    x = UniPoly.x(f)
    xa = x - UniPoly.constant(a)
    for k in (1, 2):
        ed0 = list(elementary_divisors(block_solution(inst, k, f.zero())))
        assert ed0.count(xa) == k and ed0.count(x) == 5 - k
        eda = list(elementary_divisors(block_solution(inst, k, a)))
        assert eda.count(xa) == 5 - k and eda.count(x) == k


def test_oracles_never_call_the_formulas_they_check(monkeypatch):
    from ffyb import matfq, orbits, solutions

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle called a closed form")

    for module, name in [(matfq, "gl_order"), (solutions, "gl_order"),
                         (orbits, "gl_order"), (solutions, "closed_form_count"),
                         (orbits, "orbit_size"), (orbits, "stabilizer_order"),
                         (orbits, "list_orbits")]:
        monkeypatch.setattr(module, name, refuse)
    inst = instance(3, 1, 2)
    X = representative(inst, mixed_label(2, 1, "0"))
    assert solutions.brute_force_count(inst) == 14
    assert len(enumerate_gl(inst.field, 2)) == 48
    assert [len(c) for c in brute_force_conjugacy_classes(inst)] == [1, 12, 1]
    assert brute_force_centralizer_order(inst, X) == 4
