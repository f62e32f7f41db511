from math import comb

import pytest

from support import evaluate, image_points, multipoly, variety
from ffyb import ideal, scan
from ffyb.cli import main
from ffyb.errors import BudgetExceededError
from ffyb.gf import make_field
from ffyb.ideal import MultiPoly, generating_set, verify_variety
from ffyb.solutions import EquationInstance

VARIETY_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def instance(p, s, n, enc=1):
    f = make_field(p, s)
    return EquationInstance(f, n, f.from_encoding(enc))


def display_generators(field, n, a):
    """The expected n=2 and n=3 generator sets, written out term by term."""
    one = field.one()
    i2f = field.from_int

    def poly(lead, *linear):  # the monomial lead minus the linear terms
        return multipoly(field, n, [(lead, one)] + [(e, -c) for e, c in linear])
    if n == 2:
        f22 = poly((0, 2), ((0, 1), a * a))
        f21 = poly((1, 1), ((0, 1), i2f(2) * a))
        f11 = poly((2, 0), ((1, 0), a), ((0, 1), i2f(2)))
        return {f22, f21, f11}
    assert n == 3
    f11 = poly((2, 0, 0), ((1, 0, 0), a), ((0, 1, 0), i2f(2)))
    f21c = poly((1, 1, 0), ((0, 1, 0), i2f(2) * a), ((0, 0, 1), i2f(3)))
    f22c = poly((0, 2, 0), ((0, 1, 0), a * a), ((0, 0, 1), i2f(6) * a))
    g3 = poly((0, 0, 2), ((0, 0, 1), a**3))
    g2 = poly((0, 1, 1), ((0, 0, 1), i2f(3) * a * a))
    g1 = poly((1, 0, 1), ((0, 0, 1), i2f(3) * a))
    return {f11, f21c, f22c, g3, g2, g1}


def test_multipoly_evaluation_examples():
    f5 = make_field(5)
    a = f5.from_encoding(2)
    inst = EquationInstance(f5, 2, a)
    f22, f21, f11 = generating_set(inst, 2).generators
    a2 = a * a
    two_a = f5.from_int(2) * a
    assert evaluate(f22, [f5.zero(), a2]).is_zero()
    assert evaluate(f22, [a, a2]).is_zero()
    assert evaluate(f11, [two_a, a2]).is_zero()
    assert not evaluate(f11, [a, a2]).is_zero()  # (a, a^2) is not a zero of f11
    zero_pt = [f5.zero(), f5.zero()]
    assert evaluate(f11, zero_pt).is_zero() and evaluate(f21, zero_pt).is_zero()


def test_base_generators_explicit_q5():
    inst = instance(5, 1, 2)
    got = set(generating_set(inst, 2).generators)
    assert got == display_generators(inst.field, 2, inst.a)


def test_base_generators_explicit_q2_after_reduction():
    inst = instance(2, 1, 2)
    f22, f21, f11 = generating_set(inst, 2).generators
    # with 2 = 0 the middle generator collapses to a single term
    assert f21 == MultiPoly(inst.field, 2, {(1, 1): inst.field.one()})
    assert got_terms(f22) == {(0, 2): 1, (0, 1): 1}
    assert got_terms(f11) == {(2, 0): 1, (1, 0): 1}


def got_terms(poly):
    return {e: c.encoding for e, c in poly.terms.items()}


@pytest.mark.parametrize("n", range(2, 13))
def test_generator_count_is_triangular(n):
    inst = instance(5, 1, 2, enc=3)
    gens = generating_set(inst, n)
    assert len(gens.generators) == comb(n + 1, 2)
    assert all(sum(e) <= 2 for g in gens.generators for e in g.terms)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1)])
def test_n3_generators_match_display(p, s):
    f = make_field(p, s)
    for enc in range(1, f.q):
        a = f.from_encoding(enc)
        inst = EquationInstance(f, 3, a)
        got = set(generating_set(inst).generators)
        assert got == display_generators(f, 3, a)


def test_lifting_correction_for_first_base_generator_vanishes():
    # f11 evaluated at the n=3 lift point is 9a^2 - 3a^2 - 6a^2 = 0
    for p, s in [(5, 1), (7, 1), (3, 2)]:
        f = make_field(p, s)
        a = f.from_encoding(2)
        inst = EquationInstance(f, 3, a)
        lifted_f11 = generating_set(inst).generators[2]
        base_f11 = multipoly(f, 3, [((2, 0, 0), f.one()), ((1, 0, 0), -a),
                                    ((0, 1, 0), -f.from_int(2))])
        assert lifted_f11 == base_f11


def test_variety_n2():
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        f = make_field(p, s)
        for enc in range(1, f.q):
            a = f.from_encoding(enc)
            inst = EquationInstance(f, 2, a)
            pts = variety(generating_set(inst, 2), f)
            two_a = f.from_int(2) * a
            assert set(pts) == {(f.zero(), f.zero()), (a, f.zero()), (two_a, a * a)}


def test_variety_n3_q3_explicit_points():
    inst = instance(3, 1, 3)
    pts = variety(generating_set(inst), inst.field)
    enc_pts = sorted(tuple(c.encoding for c in p) for p in pts)
    assert enc_pts == [(0, 0, 0), (0, 0, 1), (1, 0, 0), (2, 1, 0)]


def test_image_points_always_inside_variety_symbolically():
    # the inclusion direction, checked by direct evaluation (not the scan)
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]:
        f = make_field(p, s)
        for n in range(2, 11):
            for enc in range(1, f.q):
                inst = EquationInstance(f, n, f.from_encoding(enc))
                gens = generating_set(inst)
                for pt in image_points(inst):
                    for g in gens.generators:
                        assert evaluate(g, pt.coords).is_zero()


def test_variety_scan_agrees_with_object_evaluation():
    # cross-check of the encoded numpy scan against plain evaluation
    for p, s, n in [(2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        f = make_field(p, s)
        inst = EquationInstance(f, n, f.from_encoding(f.q - 1))
        gens = generating_set(inst)
        got = set(variety(gens, f))
        elems = [f.from_encoding(k) for k in range(f.q)]
        want = set()

        def points(prefix, depth):
            if depth == 0:
                if all(evaluate(g, prefix).is_zero() for g in gens.generators):
                    want.add(tuple(prefix))
                return
            for e in elems:
                points(prefix + [e], depth - 1)

        points([], n)
        assert got == want


def test_verify_variety_small_sweep():
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        f = make_field(p, s)
        for enc in range(1, f.q):
            check = verify_variety(EquationInstance(f, 4, f.from_encoding(enc)))
            assert check.equal
            assert check.variety_size == check.image_size == 5


def test_verify_variety_n5_q3():
    for enc in (1, 2):
        check = verify_variety(instance(3, 1, 5, enc=enc))
        assert check.equal and check.variety_size == 6


def test_variety_scan_fixes_the_last_variable_first(monkeypatch):
    # at n = 2 every generator reads x_2, and g_{2,2} = x_2^2 - a^2 x_2 leaves
    # two values of it, so only 1 + q + 2q prefixes are formed, not q^2
    formed = []
    pruned = scan.pruned

    def counting(q, places, prune):
        return pruned(q, places, lambda t, idx: formed.append(len(idx)) or prune(t, idx))

    monkeypatch.setattr(scan, "pruned", counting)
    inst = instance(23, 2, 2, enc=444)
    check = verify_variety(inst)
    assert check.equal and check.variety_size == 3
    assert sum(formed) <= 3 * inst.q + 1


def test_variety_budget_refusal():
    inst = instance(5, 1, 6)
    with pytest.raises(BudgetExceededError):
        variety(generating_set(inst), inst.field, budget=1000)


def test_variety_beyond_int64_indices_is_refused_whatever_the_budget():
    # 101^10 point indices would wrap around in int64; fixing x_10 first
    # makes such a scan fast enough that the wrap would give a wrong verdict
    with pytest.raises(BudgetExceededError) as info:
        verify_variety(instance(101, 1, 10, enc=100), budget=10**30)
    assert info.value.required == 101**10
    assert info.value.budget == scan.INDEX_LIMIT
    assert verify_variety(instance(101, 1, 9, enc=100), budget=10**30).equal


def test_generating_set_requires_nonzero_a_and_n_at_least_two():
    f = make_field(3)
    with pytest.raises(ValueError):
        generating_set(EquationInstance(f, 2, f.zero()))
    with pytest.raises(ValueError):
        generating_set(EquationInstance(f, 1, f.one()), 1)


def test_serialization_order_is_graded_lex():
    inst = instance(5, 1, 2)
    f11 = generating_set(inst, 2).generators[2]
    # x1^2 leads, then the degree-1 tail with x1 before x2
    assert f11.to_pairs() == [[[2, 0], 1], [[1, 0], 4], [[0, 1], 3]]


def test_generating_set_is_the_encoded_terms_as_multipolys():
    # over the fields of the verify-all separation check, rebuilt term by
    # term from the encoded terms, and from the formula of the module
    # docstring with field-element arithmetic
    for p, s in VARIETY_FIELDS:
        f = make_field(p, s)
        for enc in range(1, f.q):
            a = f.from_encoding(enc)
            for n in range(2, 13):
                inst = EquationInstance(f, n, a)
                got = generating_set(inst).generators
                rows, ends, widths = ideal._generator_terms(inst, n)
                rebuilt = [[] for _ in range(ends[-1])]
                for g, j, t, c, *fs in rows.tolist():
                    assert ends[t] <= g < ends[t + 1] and j < widths[t]
                    exps = [fs.count(n - v) for v in range(n)]
                    rebuilt[g].append((exps, f.from_encoding(c)))
                # layer t holds g_{i,i}, ..., g_{n,i} for i = n+1-t
                by_pair = {(k, n + 1 - t): multipoly(f, n, rebuilt[g]) for t in range(1, n + 1)
                           for k, g in enumerate(range(ends[t], ends[t + 1]), n + 1 - t)}
                pairs = [(2, 2), (2, 1), (1, 1)] + [(k, i) for k in range(3, n + 1)
                                                    for i in range(k, 0, -1)]
                assert got == tuple(by_pair[pair] for pair in pairs)
                if n in (2, 5, 12):
                    assert got == formula_generators(f, n, a)


def formula_generators(f, n, a):
    unit = [tuple(int(v == m - 1) for v in range(n)) for m in range(n + 1)]
    pairs = [(2, 2), (2, 1), (1, 1)] + [(k, i) for k in range(3, n + 1)
                                        for i in range(k, 0, -1)]
    gens = []
    for k, i in pairs:
        lead = tuple(int(v == i - 1) + int(v == k - 1) for v in range(n))
        terms = [(lead, f.one())]
        for m in range(k, min(n, i + k) + 1):
            c = f.from_int(comb(m, k) * comb(k, m - i)) * a ** (i + k - m)
            terms.append((unit[m], -c))
        gens.append(multipoly(f, n, terms))
    return tuple(gens)


def perturb_first_linear_coefficient(monkeypatch):
    """Make the encoded builder add 1 to the coefficient of x_n in g_{n,n},
    its first linear coefficient."""
    real = ideal._generator_terms

    def perturbed(inst, n):
        rows, ends, widths = real(inst, n)
        rows = rows.copy()
        rows[1, 3] = inst.field._add(int(rows[1, 3]), 1)
        return rows, ends, widths
    monkeypatch.setattr(ideal, "_generator_terms", perturbed)


@pytest.mark.parametrize("p,s,n", [(2, 1, 2), (3, 1, 4), (2, 2, 3), (5, 1, 5)])
def test_a_perturbed_linear_coefficient_fails_verify_variety(monkeypatch, p, s, n):
    inst = instance(p, s, n)
    assert verify_variety(inst).equal
    perturb_first_linear_coefficient(monkeypatch)
    assert not verify_variety(inst).equal


def test_a_perturbed_linear_coefficient_fails_verify_all(monkeypatch, capsys):
    perturb_first_linear_coefficient(monkeypatch)
    assert main(["verify-all", "--only", "variety", "--output", "table"]) == 1
    assert capsys.readouterr().out.startswith("FAIL  variety: variety mismatch")


def test_verify_variety_compares_the_points_not_only_their_number(monkeypatch):
    # move one image point off the variety: the sizes still agree
    real = ideal._image_encodings

    def moved(inst):
        rows = real(inst)
        rows[-1] = (inst.field._add(rows[-1][0], 1),) + rows[-1][1:]
        return rows
    inst = instance(5, 1, 3, enc=2)
    monkeypatch.setattr(ideal, "_image_encodings", moved)
    check = verify_variety(inst)
    assert check.variety_size == check.image_size == 4
    assert not check.equal


def test_the_cli_report_serializes_the_generating_set():
    # cmd_ideal builds its report from the encoded terms, without MultiPolys
    for p, s in VARIETY_FIELDS:
        f = make_field(p, s)
        for enc in range(1, f.q):
            for n in range(2, 13):
                inst = EquationInstance(f, n, f.from_encoding(enc))
                pairs, check = ideal._serialized(inst, verify=n <= 4, budget=10**7)
                assert pairs == [g.to_pairs() for g in generating_set(inst).generators]
                assert check == (verify_variety(inst) if n <= 4 else None)
