"""Seeded job lists for the three workloads.

A workload is a generator of jobs.  Each job is one call into a public ffyb
function plus a check of its result against what the job's inputs imply.
The seed picks the scalar a, the conjugating matrices P and the job order;
it never changes how much work a job does.  Input preparation happens in the
generator, between jobs, and is not part of any job's time.

Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator

from ffyb import cli, gf, ideal, invariants, matfq, orbits, polyfq, solutions

SCAN_LIMIT = 10**6  # the oracle workload's cap on q^(n^2) and q^n


class CheckFailed(Exception):
    """A job's result differs from what its inputs imply."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Job:
    name: str                        # span name: "<layer>.<function>"
    desc: str                        # the inputs, for error messages
    call: Callable[[], object]
    check: Callable[[object], None]  # raises CheckFailed on a wrong result
    field: tuple[int, int] | None = None
    tables: bool = False             # the call builds the field's q x q tables
    work: int = 0                    # matrices, points, subsets or GL elements


@dataclass
class Sample:
    """A conjugated solution X = P B P^-1 kept for the per-layer probes."""

    inst: solutions.EquationInstance
    P: matfq.Matrix
    X: matfq.Matrix


class Context:
    """Per-pass state: the seeded generator, the tracer, and the inputs the
    per-layer probes reuse."""

    def __init__(self, seed: int, tracer):
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.samples: list[Sample] = []
        self.probe_field: gf.Field | None = None

    def field(self, p: int, s: int = 1) -> gf.Field:
        with self.tracer.span("gf.make_field", "prep"):
            fld = gf.make_field(p, s)
        self.note_field(fld)
        return fld

    def note_field(self, fld: gf.Field) -> None:
        """The probes run on the smallest field a workload uses."""
        if self.probe_field is None or fld.q < self.probe_field.q:
            self.probe_field = fld

    def nonzero(self, fld: gf.Field) -> gf.FieldElement:
        return fld.from_encoding(self.rng.randrange(1, fld.q))

    def invertible(self, fld: gf.Field, n: int) -> matfq.Matrix:
        return random_invertible(self.rng, fld, n)

    def conjugate(self, inst, B: matfq.Matrix) -> matfq.Matrix:
        P = self.invertible(inst.field, inst.n)
        X = P * B * P.inverse()
        self.samples.append(Sample(inst, P, X))
        return X


def random_matrix(rng: random.Random, fld: gf.Field, n: int) -> matfq.Matrix:
    return matfq.Matrix(fld, [[fld.from_encoding(rng.randrange(fld.q))
                               for _ in range(n)] for _ in range(n)])


def random_invertible(rng: random.Random, fld: gf.Field, n: int) -> matfq.Matrix:
    while True:
        P = random_matrix(rng, fld, n)
        if not P.det().is_zero():
            return P


# ---------------------------------------------------------------------------
# Expected values computed without the module under test.

def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def image_point(fld: gf.Field, a: gf.FieldElement, n: int, rank: int) -> list[int]:
    """Encodings of the invariant vector of the rank-`rank` orbit: C(j,i) a^i."""
    return [(fld.from_int(comb(rank, i)) * a**i).encoding for i in range(1, n + 1)]


def minimal_subsets(points: list[list[int]], n: int) -> list[tuple[int, ...]]:
    """Inclusion-minimal coordinate subsets that keep all points distinct.

    Separation is monotone, so a separating subset is minimal when no subset
    one coordinate smaller separates."""
    def separates(mask: int) -> bool:
        cols = [i for i in range(n) if mask >> i & 1]
        return len({tuple(pt[i] for i in cols) for pt in points}) == len(points)

    sep = [separates(m) for m in range(1 << n)]
    found = [m for m in range(1, 1 << n) if sep[m]
             and not any(sep[m & ~(1 << i)] for i in range(n) if m >> i & 1)]
    subsets = [tuple(i + 1 for i in range(n) if m >> i & 1) for m in found]
    return sorted(subsets, key=lambda t: (len(t), t))


def label_of_rank(n: int, rank: int) -> orbits.OrbitLabel:
    return orbits.all_labels(n)[rank]  # labels come in ascending rank


# ---------------------------------------------------------------------------
# oracle: the brute-force cross-verification oracles at q <= 5.

ORACLE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]
ORACLE_SMALL = [(2, (2, 1)), (2, (3, 1)), (2, (2, 2)), (2, (5, 1)), (3, (2, 1))]
ORACLE_SOLUTION_CASES = ORACLE_SMALL + [(3, (3, 1))]


def oracle(ctx: Context) -> Iterator[Job]:
    flds = {ps: ctx.field(*ps) for ps in ORACLE_FIELDS}
    jobs: list[Job] = []

    def inst_of(ps, n, a=None):
        fld = flds[ps]
        return solutions.EquationInstance(fld, n, ctx.nonzero(fld) if a is None else a)

    for n in range(1, 5):
        for ps, fld in flds.items():
            if fld.q ** (n * n) <= SCAN_LIMIT:
                for enc in range(1, fld.q):
                    jobs.append(_count_job(inst_of(ps, n, fld.from_encoding(enc)), ps))
    for n, ps in ORACLE_SOLUTION_CASES:
        jobs.append(_solutions_job(inst_of(ps, n), ps))
    for n, ps in ORACLE_SMALL:
        jobs.append(_gl_job(flds[ps], n, ps))
        jobs.append(_census_job(inst_of(ps, n), ps))
        inst = inst_of(ps, n)
        for label in orbits.all_labels(n):
            X = ctx.conjugate(inst, orbits.representative(inst, label))
            jobs.append(_centralizer_job(inst, label, X, ps))
    for ps, fld in flds.items():
        n = 2
        while fld.q**n <= SCAN_LIMIT:
            jobs.append(_variety_job(inst_of(ps, n), ps))
            n += 1
    ctx.rng.shuffle(jobs)
    yield from jobs


def _desc(inst) -> str:
    return f"n={inst.n} q={inst.q} a={inst.a.encoding}"


def _count_job(inst, ps) -> Job:
    def check(got):
        want = solutions.closed_form_count(inst).total
        expect(got == want, f"brute count {got} != closed form {want}")
    return Job("solutions.brute_force_count", _desc(inst),
               lambda: solutions.brute_force_count(inst), check,
               field=ps, tables=True, work=inst.search_space())


def _solutions_job(inst, ps) -> Job:
    def check(sols):
        want = solutions.closed_form_count(inst).total
        expect(len(sols) == want, f"{len(sols)} solutions, closed form says {want}")
        sizes = Counter(orbits.classify(inst, X) for X in sols)
        for label in orbits.all_labels(inst.n):
            expect(sizes[label] == orbits.orbit_size(inst, label),
                   f"{label.text()} has {sizes[label]} members")
    return Job("solutions.brute_force_solutions", _desc(inst),
               lambda: solutions.brute_force_solutions(inst), check,
               field=ps, tables=True, work=inst.search_space())


def _gl_job(fld, n, ps) -> Job:
    def check(group):
        expect(len(group) == matfq.gl_order(n, fld.q),
               f"{len(group)} elements, |GL| = {matfq.gl_order(n, fld.q)}")
        expect(len(set(group)) == len(group), "repeated elements")
        expect(all(not g.det().is_zero() for g in group), "singular element")
    return Job("orbits.enumerate_gl", f"n={n} q={fld.q}",
               lambda: orbits.enumerate_gl(fld, n), check,
               field=ps, work=gl_order(n, fld.q))


def _census_job(inst, ps) -> Job:
    def check(classes):
        expect(len(classes) == inst.n + 1, f"{len(classes)} classes")
        labels = set()
        for members in classes:
            label = orbits.classify(inst, members[0])
            labels.add(label)
            expect(len(members) == orbits.orbit_size(inst, label),
                   f"{label.text()} has {len(members)} members")
        expect(len(labels) == inst.n + 1, "two classes share a label")
        expect(sum(map(len, classes)) == solutions.closed_form_count(inst).total,
               "class sizes do not sum to the count")
    return Job("orbits.brute_force_conjugacy_classes", _desc(inst),
               lambda: orbits.brute_force_conjugacy_classes(inst), check,
               field=ps, tables=True)


def _centralizer_job(inst, label, X, ps) -> Job:
    def check(got):
        want = orbits.stabilizer_order(inst, label)
        expect(got == want, f"centralizer {got} != stabilizer {want}")
    return Job("orbits.brute_force_centralizer_order", f"{_desc(inst)} {label.text()}",
               lambda: orbits.brute_force_centralizer_order(inst, X), check, field=ps)


def _variety_job(inst, ps) -> Job:
    def check(res):
        expect(res.equal, "variety differs from the image points")
        expect(res.variety_size == res.image_size == inst.n + 1,
               f"{res.variety_size} variety points, want {inst.n + 1}")
    return Job("ideal.verify_variety", _desc(inst),
               lambda: ideal.verify_variety(inst), check,
               field=ps, tables=True, work=inst.q**inst.n)


# ---------------------------------------------------------------------------
# algebra: exact canonical forms, no scan of M(n, q).

ALGEBRA_FIELDS = [(5, 1), (7, 1), (2, 3), (3, 2)]
ALGEBRA_SOLUTION_N = range(4, 9)
ALGEBRA_RANDOM_N = range(4, 7)
SWEEP_FIELDS = [(2, 1), (3, 1)]
SWEEP_N = range(6, 11)


def algebra(ctx: Context) -> Iterator[Job]:
    jobs: list[Job] = []
    for fi, ps in enumerate(ALGEBRA_FIELDS):
        fld = ctx.field(*ps)
        for n in ALGEBRA_SOLUTION_N:
            inst = solutions.EquationInstance(fld, n, ctx.nonzero(fld))
            rank = (n + fi) % (n + 1)  # fixed per slot, so work is seed-independent
            jobs.extend(_label_jobs(ctx, inst, rank, ps))
        for n in ALGEBRA_RANDOM_N:
            # The matrix R is fixed per slot; the seed only conjugates it, so the
            # characteristic polynomial, and with it the factoring work, is fixed.
            R = random_matrix(random.Random(f"algebra:{ps}:{n}"), fld, n)
            jobs.extend(_random_matrix_jobs(ctx, R, ps))
    for ps in SWEEP_FIELDS:
        fld = ctx.field(*ps)
        for n in SWEEP_N:
            jobs.append(_sweep_job(solutions.EquationInstance(fld, n, ctx.nonzero(fld)), ps))
    ctx.rng.shuffle(jobs)
    yield from jobs


def _label_jobs(ctx, inst, rank, ps) -> list[Job]:
    fld, n, a = inst.field, inst.n, inst.a
    label = label_of_rank(n, rank)
    B = orbits.representative(inst, label)
    X = ctx.conjugate(inst, B)
    desc = f"{_desc(inst)} rank={rank}"
    x = polyfq.UniPoly.x(fld)
    x_minus_a = x - polyfq.UniPoly.constant(a)
    want_divisors = sorted([x.text()] * (n - rank) + [x_minus_a.text()] * rank)
    want_point = image_point(fld, a, n, rank)

    def check_label(got):
        expect(got == label, f"classified as {got.text()}")

    def check_coeffs(got):
        expect([c.encoding for c in got] == want_point, f"coefficients {got}")

    def check_divisors(got):
        expect(sorted(g.text() for g in got) == want_divisors, f"divisors {got}")

    def check_rcf(got):
        expect(got == B, f"rational canonical form {got.text()}")

    return [
        Job("orbits.classify", desc, lambda: orbits.classify(inst, X), check_label, ps),
        Job("matfq.char_coeffs", desc, lambda: matfq.char_coeffs(X), check_coeffs, ps),
        Job("polyfq.elementary_divisors", desc, lambda: polyfq.elementary_divisors(X),
            check_divisors, ps),
        Job("polyfq.rational_canonical_form", desc,
            lambda: polyfq.rational_canonical_form(X), check_rcf, ps),
    ]


def _poly_product(factors) -> polyfq.UniPoly:
    out = None
    for f in factors:
        out = f if out is None else out * f
    return out


def _random_matrix_jobs(ctx, R, ps) -> list[Job]:
    fld, n = R.field, R.n_rows
    P = ctx.invertible(fld, n)
    X = P * R * P.inverse()
    charpoly = polyfq.char_matrix(X).det()
    want_rcf = polyfq.rational_canonical_form(R)
    desc = f"n={n} q={fld.q} random"

    def check_factors(hs):
        expect(all(h.is_monic() for h in hs), "non-monic invariant factor")
        expect(sum(h.degree for h in hs) == n, "degrees do not sum to n")
        for lo, hi in zip(hs, hs[1:]):
            expect((hi % lo).is_zero(), f"{lo.text()} does not divide {hi.text()}")
        expect(_poly_product(hs) == charpoly, "product is not the characteristic polynomial")

    def check_factoring(pairs):
        expect(all(g.is_monic() and g.degree >= 1 for g, _ in pairs), "bad factor")
        expect(_poly_product(g**e for g, e in pairs) == charpoly,
               "factors do not multiply back")

    def check_rcf(got):
        expect(got == want_rcf, "canonical form changed under conjugation")

    return [
        Job("polyfq.invariant_factors", desc, lambda: polyfq.invariant_factors(X),
            check_factors, ps),
        Job("polyfq.factor_monic", desc, lambda: polyfq.factor_monic(charpoly),
            check_factoring, ps),
        Job("polyfq.rational_canonical_form", desc,
            lambda: polyfq.rational_canonical_form(X), check_rcf, ps),
    ]


def _sweep_job(inst, ps) -> Job:
    n = inst.n
    points = [image_point(inst.field, inst.a, n, j) for j in range(n + 1)]

    def check(got):
        expect([tuple(s) for s in got] == minimal_subsets(points, n),
               f"minimal subsets {got}")
    return Job("invariants.minimal_separating_subsets", _desc(inst),
               lambda: invariants.minimal_separating_subsets(inst), check,
               field=ps, work=2**n - 1)


# ---------------------------------------------------------------------------
# wide-field: large q, small n, through the CLI.

WIDE_FIELDS = [(101, 1), (11, 2), (2, 7), (131, 1), (13, 2),
               (211, 1), (3, 5), (257, 1), (19, 2), (23, 2)]
CLASSIFY_N = 4


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process, with its report captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def wide_field(ctx: Context) -> Iterator[Job]:
    order = list(WIDE_FIELDS)
    ctx.rng.shuffle(order)
    for ps in order:
        yield _make_field_job(ps)
        fld = gf.make_field(*ps)  # cached by now: the job above built it
        ctx.note_field(fld)
        a = ctx.nonzero(fld)
        base = ["--p", str(ps[0]), "--s", str(ps[1]), "--a", str(a.encoding)]
        # count runs first on each field: it pays the lazy table build.
        first = _cli_count_job(fld, base, ps)
        rest = [_cli_ideal_job(fld, a, base, ps), _cli_orbits_job(fld, base, ps),
                _cli_invariants_job(fld, a, base, ps)]
        inst = solutions.EquationInstance(fld, CLASSIFY_N, a)
        for rank in range(CLASSIFY_N + 1):
            label = label_of_rank(CLASSIFY_N, rank)
            X = ctx.conjugate(inst, orbits.representative(inst, label))
            rest.append(_cli_classify_job(fld, base, X, label, rank, ps))
        ctx.rng.shuffle(rest)
        yield first
        yield from rest


def _make_field_job(ps) -> Job:
    p, s = ps

    def check(fld):
        expect((fld.p, fld.s, fld.q) == (p, s, p**s), f"built {fld!r}")
        expect(len(fld.modulus) == s + 1 and fld.modulus[-1] == 1, "modulus not monic")
        if s > 1:
            x = fld.from_encoding(p)
            expect(x**fld.q == x, "x^q != x: modulus is not irreducible")
    return Job("gf.make_field", f"p={p} s={s}", lambda: gf.make_field(p, s), check, ps)


def _cli_job(argv, check, ps, tables=False) -> Job:
    def call():
        return run_cli(argv)

    def check_report(out):
        code, text = out
        expect(code == 0, f"exit code {code}")
        check(json.loads(text))
    return Job("cli.main", " ".join(argv), call, check_report, ps, tables=tables)


def _cli_count_job(fld, base, ps) -> Job:
    def check(rep):
        expect(rep["q"] == fld.q, "wrong field")
        expect(rep["closed_form"] == rep["brute_force"] == rep["total"] == "2",
               f"count {rep.get('brute_force')}")
        expect(rep["agree"] is True, "methods disagree")
    return _cli_job(["count", *base, "--n", "1", "--method", "both"], check, ps,
                    tables=True)


def _cli_ideal_job(fld, a, base, ps) -> Job:
    want = sorted(image_point(fld, a, 2, j) for j in range(3))

    def check(rep):
        expect(rep["generator_count"] == 3, f"{rep['generator_count']} generators")
        expect(rep["verdict"] is True, "variety differs from image points")
        expect(sorted(rep["variety"]) == want, f"variety {rep['variety']}")
    return _cli_job(["ideal", *base, "--n", "2", "--verify"], check, ps, tables=True)


def _cli_orbits_job(fld, base, ps) -> Job:
    n, q = 3, fld.q

    def check(rep):
        orbs = rep["orbits"]
        expect([o["rank"] for o in orbs] == list(range(n + 1)), "ranks")
        for o in orbs:
            k = min(o["rank"], n - o["rank"])
            stab = gl_order(n - k, q) * gl_order(k, q)
            expect(int(o["stabilizer_order"]) == stab, f"stabilizer of {o['label']}")
            expect(int(o["orbit_size"]) * stab == gl_order(n, q), f"size of {o['label']}")
        expect(int(rep["total"]) == sum(int(o["orbit_size"]) for o in orbs), "total")
    return _cli_job(["orbits", *base, "--n", str(n)], check, ps)


def _cli_invariants_job(fld, a, base, ps) -> Job:
    n = 4
    points = [image_point(fld, a, n, j) for j in range(n + 1)]

    def check(rep):
        expect(rep["image_points"] == points, f"image points {rep['image_points']}")
        expect(rep["full_set_separates"] is True, "full set does not separate")
        expect(rep["trace_alone_separates"] == (fld.p > n), "trace separation")
        expect([tuple(s) for s in rep["minimal_separating_subsets"]]
               == minimal_subsets(points, n), "minimal subsets")
    return _cli_job(["invariants", *base, "--n", str(n), "--minimal-subsets"], check, ps)


def _cli_classify_job(fld, base, X, label, rank, ps) -> Job:
    n, q = CLASSIFY_N, fld.q

    def check(rep):
        expect(rep["label"] == label.text(), f"label {rep['label']}")
        expect(rep["rank"] == rank, f"rank {rep['rank']}")
        expect(int(rep["orbit_size"]) * int(rep["stabilizer_order"]) == gl_order(n, q),
               "orbit-stabilizer")
    return _cli_job(["classify", *base, "--n", str(n), "--matrix", X.text()], check, ps)


WORKLOADS = {"oracle": oracle, "algebra": algebra, "wide-field": wide_field}
