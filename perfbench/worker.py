"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload oracle --seed 1 --trace 0

Runs the workload's whole job list once, closed loop, and prints one JSON
object as the last line of standard output: each job's latency (the call)
and duration (call and check), raw and at the reference speed of speed.py,
failures and the peak RSS of this process.
With --trace 1 it also records spans, repeats each field's first job to
measure lazy set-up, runs the per-layer probes and reports the per-layer
metrics.  ffyb must be
importable, which run.py arranges through PYTHONPATH.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import json
import os
import random
import resource
import statistics
import sys
import time

import ffyb
from ffyb import gf, ideal, invariants, matfq, orbits, polyfq, solutions
import speed
from tracer import Tracer
from workloads import ALGEBRA_FIELDS, WORKLOADS, Context, gl_order, run_cli

MAX_ERRORS = 5           # failures quoted in the result, the rest only counted
PROBE_SPACE = 10**4      # size cap for the scanner probes
PROBE_SWEEP_N = 8        # the subset sweep probe's n (its cost grows as 2^n n^2)
GF_PAIRS = 2000          # element pairs per field for the gf rate probes
POOL_CASE = (3, (2, 2))  # the oracle's largest count job: n = 3 over GF(4)


class PassResult:
    def __init__(self):
        self.latencies_ms: list[float] = []  # the call alone
        self.durations_ms: list[float] = []  # the call and its check
        self.norm_latencies_ms: list[float] = []  # the same at the reference speed
        self.norm_durations_ms: list[float] = []
        self.speed_samples = 0
        self.speed_ms = 0.0  # the median speed sample
        self.failed = 0
        self.errors: list[str] = []
        self.lazy_ms: list[float] = []
        self.table_fields: set[tuple[int, int]] = set()

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(what)


def run_jobs(jobs, tracer: Tracer, repeat_first: bool = False) -> PassResult:
    """Run jobs one after another; a failing job is counted, never fatal.

    The speed sampler runs throughout; each time has the sampling inside it
    taken off, and is also given at the reference speed (speed.py).
    With repeat_first, the first job on each field runs a second time right
    away; the difference is the field's lazy set-up, and the repeat is left
    out of the latencies and durations."""
    res = PassResult()
    seen: set[tuple[int, int]] = set()
    spans = []
    with speed.Sampler() as sampler:
        for i, job in enumerate(jobs):
            t0 = time.perf_counter()
            t1 = None
            try:
                with tracer.span("bench.job", i):
                    with tracer.span(job.name, i, job.work):
                        out = job.call()
                    t1 = time.perf_counter()
                    job.check(out)
            except Exception as exc:  # a wrong or crashing job is a failed job
                res.fail(f"{job.name} {job.desc}: {type(exc).__name__}: {exc}")
            t2 = time.perf_counter()
            spans.append((t0, t1 or t2, t2))
            if job.tables:
                res.table_fields.add(job.field)
            if repeat_first and job.field not in seen and job.name != "gf.make_field":
                seen.add(job.field)
                r0 = time.perf_counter()
                try:
                    job.call()
                except Exception:  # already counted when the job itself ran
                    pass
                res.lazy_ms.append(((t1 or t2) - t0 - (time.perf_counter() - r0)) * 1000)
    for t0, t1, t2 in spans:
        call = (t1 - t0 - sampler.busy_s(t0, t1)) * 1000
        whole = (t2 - t0 - sampler.busy_s(t0, t2)) * 1000
        scale = sampler.scale(t0, t2)
        res.latencies_ms.append(call)
        res.durations_ms.append(whole)
        res.norm_latencies_ms.append(call * scale)
        res.norm_durations_ms.append(whole * scale)
    res.speed_samples = len(sampler.starts)
    res.speed_ms = statistics.median(sampler.lengths) * 1000
    return res


# ---------------------------------------------------------------------------
# Per-layer probes: small fixed-size calls on the workload's own inputs, made
# only for functions the job list itself does not call, so that every layer
# has a figure in every workload.

def _gf_probe(tr: Tracer, seed: int) -> None:
    rng = random.Random(seed)
    for p, s in ALGEBRA_FIELDS:
        fld = gf.make_field(p, s)
        pairs = [(fld.from_encoding(rng.randrange(1, fld.q)),
                  fld.from_encoding(rng.randrange(1, fld.q))) for _ in range(GF_PAIRS)]
        with tr.span("gf.mul", "probe", len(pairs)):
            for x, y in pairs:
                x * y
        with tr.span("gf.inv", "probe", len(pairs)):
            for x, _ in pairs:
                x.inv()


def _largest_n(q: int, space, lo: int) -> int:
    n = lo
    while space(q, n + 1) <= PROBE_SPACE:
        n += 1
    return n


def run_probes(ctx: Context, tr: Tracer, seed: int) -> None:
    done = tr.names()

    def probe(name, fn, work=0):
        if name not in done:
            with tr.span(name, "probe", work):
                fn()

    _gf_probe(tr, seed)
    for smp in ctx.samples[:6]:
        X, P, inst = smp.X, smp.P, smp.inst
        charpoly = polyfq.char_matrix(X).det()
        probe("matfq.mul", lambda: P * X)
        probe("matfq.det", P.det)
        probe("matfq.rank", X.rank)
        probe("matfq.inverse", P.inverse)
        probe("matfq.char_coeffs", lambda: matfq.char_coeffs(X))
        probe("polyfq.invariant_factors", lambda: polyfq.invariant_factors(X))
        probe("polyfq.elementary_divisors", lambda: polyfq.elementary_divisors(X))
        probe("polyfq.factor_monic", lambda: polyfq.factor_monic(charpoly))
        probe("polyfq.rational_canonical_form", lambda: polyfq.rational_canonical_form(X))
        probe("orbits.classify", lambda: orbits.classify(inst, X))

    fld = ctx.probe_field
    q = fld.q
    n_scan = _largest_n(q, lambda q, n: q ** (n * n), 1)
    n_pts = _largest_n(q, lambda q, n: q**n, 2)
    scan = solutions.EquationInstance(fld, n_scan, fld.one())
    pts = solutions.EquationInstance(fld, n_pts, fld.one())
    sweep = solutions.EquationInstance(fld, min(n_pts, PROBE_SWEEP_N), fld.one())
    rep = orbits.representative(scan, orbits.all_labels(n_scan)[n_scan // 2])
    probe("solutions.brute_force_count", lambda: solutions.brute_force_count(scan),
          scan.search_space())
    probe("orbits.enumerate_gl", lambda: orbits.enumerate_gl(fld, n_scan),
          gl_order(n_scan, q))
    probe("orbits.brute_force_conjugacy_classes",
          lambda: orbits.brute_force_conjugacy_classes(scan))
    probe("orbits.brute_force_centralizer_order",
          lambda: orbits.brute_force_centralizer_order(scan, rep))
    probe("invariants.minimal_separating_subsets",
          lambda: invariants.minimal_separating_subsets(sweep), 2**sweep.n - 1)
    probe("ideal.generating_set", lambda: ideal.generating_set(pts))
    probe("ideal.verify_variety", lambda: ideal.verify_variety(pts), q**n_pts)
    probe("cli.main", lambda: run_cli(["orbits", "--p", str(fld.p), "--s", str(fld.s),
                                       "--n", str(n_scan)]))


def pool2_speedup(seed: int, res: PassResult) -> float | None:
    """Serial against threads=min(2, nproc) on the largest count job.

    None (n/a) when the threads keyword is gone or only one core is ours."""
    nproc = len(os.sched_getaffinity(0))
    if nproc < 2 or "threads" not in inspect.signature(solutions.brute_force_count).parameters:
        return None
    n, (p, s) = POOL_CASE
    fld = gf.make_field(p, s)
    inst = solutions.EquationInstance(
        fld, n, fld.from_encoding(random.Random(seed).randrange(1, fld.q)))
    want = solutions.closed_form_count(inst).total
    t0 = time.perf_counter()
    serial = solutions.brute_force_count(inst)
    t1 = time.perf_counter()
    pooled = solutions.brute_force_count(inst, threads=min(2, nproc))
    t2 = time.perf_counter()
    if not serial == pooled == want:
        res.fail(f"pool probe {inst.n} {inst.q}: {serial} / {pooled} != {want}")
    return (t1 - t0) / (t2 - t1)


def layer_metrics(tr: Tracer, res: PassResult, pool: float | None) -> dict:
    def med_ms(name):
        d = tr.durations(name)
        return statistics.median(d) * 1000 if d else 0.0

    def total(*names):
        return sum(sum(tr.durations(n)) for n in names)

    def work(*names):
        return sum(tr.work(n) for n in names)

    def rate(w, t):
        return w / t if t > 0 else 0.0

    scan = ("solutions.brute_force_count", "solutions.brute_force_solutions")
    m = {
        "gf.mul_per_s": rate(work("gf.mul"), total("gf.mul")),
        "gf.inv_per_s": rate(work("gf.inv"), total("gf.inv")),
        "gf.make_field_ms": med_ms("gf.make_field"),
        "gf.lazy_setup_ms": statistics.median(res.lazy_ms) if res.lazy_ms else 0.0,
        "gf.table_entries": sum(2 * (p**s) ** 2 for p, s in res.table_fields),
        "solutions.scan_s": total(*scan),
        "solutions.matrices_scanned": work(*scan),
        "solutions.matrices_per_s": rate(work(*scan), total(*scan)),
        "solutions.pool2_speedup": 0.0 if pool is None else pool,
        "orbits.enumerate_gl_s": total("orbits.enumerate_gl"),
        "orbits.gl_elements": work("orbits.enumerate_gl"),
        "orbits.gl_elements_per_s": rate(work("orbits.enumerate_gl"),
                                         total("orbits.enumerate_gl")),
        "orbits.census_s": total("orbits.brute_force_conjugacy_classes"),
        "orbits.centralizer_s": total("orbits.brute_force_centralizer_order"),
        "orbits.classify_ms": med_ms("orbits.classify"),
        "invariants.subset_sweep_s": total("invariants.minimal_separating_subsets"),
        "invariants.subsets_swept": work("invariants.minimal_separating_subsets"),
        "invariants.subsets_per_s": rate(work("invariants.minimal_separating_subsets"),
                                         total("invariants.minimal_separating_subsets")),
        "ideal.variety_s": total("ideal.verify_variety"),
        "ideal.points_scanned": work("ideal.verify_variety"),
        "ideal.points_per_s": rate(work("ideal.verify_variety"),
                                   total("ideal.verify_variety")),
        "ideal.generating_set_ms": med_ms("ideal.generating_set"),
        "cli.job_ms": med_ms("cli.main"),
    }
    for fn in ("mul", "det", "rank", "inverse", "char_coeffs"):
        m[f"matfq.{fn}_ms"] = med_ms(f"matfq.{fn}")
    for fn in ("invariant_factors", "elementary_divisors", "factor_monic",
               "rational_canonical_form"):
        m[f"polyfq.{fn}_ms"] = med_ms(f"polyfq.{fn}")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first LIMIT jobs (for smoke tests)")
    ap.add_argument("--spans", default=None, help="write the spans to this file")
    args = ap.parse_args(argv)

    tracer = Tracer(enabled=bool(args.trace))
    ctx = Context(args.seed, tracer)
    jobs = itertools.islice(WORKLOADS[args.workload](ctx), args.limit)
    res = run_jobs(jobs, tracer, repeat_first=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "ffyb": os.path.dirname(ffyb.__file__),
        "numpy": sys.modules["numpy"].__version__,
        "jobs": len(res.latencies_ms),
        "failed": res.failed,
        "errors": res.errors,
        "latencies_ms": res.latencies_ms,
        "durations_ms": res.durations_ms,
        "norm_latencies_ms": res.norm_latencies_ms,
        "norm_durations_ms": res.norm_durations_ms,
        "speed_samples": res.speed_samples,
        "speed_ms": res.speed_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        run_probes(ctx, tracer, args.seed)
        pool = pool2_speedup(args.seed, res)
        out["failed"] = res.failed  # the pool probe checks its counts too
        out["layers"] = layer_metrics(tracer, res, pool)
        out["pool2_na"] = pool is None
        out["self_s"] = tracer.self_time_by_layer()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
