"""ffyb benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; ffyb is imported from ./src.  The workload
runs as a closed loop of passes: each pass is a fresh interpreter
(worker.py) that runs the whole job list once, and the next pass starts only
when the last has ended; pass k draws its inputs from seed 1000 * seed + k.
A pass is started only while it is expected to end
within --seconds, judged by the longest pass so far, and at least MIN_PASSES
run (in a traced run, half of them traced).

--trace 0 prints the end-to-end metrics: set-up (a fresh interpreter's
`import ffyb`, median of samples taken between the passes), the median over
passes of the job-list wall time and of the peak RSS, and the p50 and p90 of
all job latencies of all passes.  Times are given at the reference speed of
speed.py, which takes the shared machine's swings in speed out of them; the
raw times are printed and recorded next to them.  --trace 1 alternates untraced and traced
passes and prints the per-layer metrics of the traced ones, the tracing
overhead and the CLI cold start.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A full record, with the seed, git revision,
nproc and versions, is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
# Not imported from workloads.py: the runner must not import ffyb, so that it
# fails cleanly where ./src is missing.
WORKLOADS = ("oracle", "algebra", "wide-field")
MIN_PASSES = {0: 3, 1: 4}  # by --trace
SETUP_SAMPLES = 2  # per pass, after one warm-up import
COLD_START_SAMPLES = 3
WORKER_TIMEOUT_S = 120  # a hung pass still ends the run within 180 s
MIN_JOBS = 100  # per pass, so that p90 has at least ten jobs beyond it

IMPORT_TIMER = ("import time; t = time.perf_counter(); import ffyb; "
                "print(time.perf_counter() - t)")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                    "job_p90_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "gf.mul_per_s": "1/s", "gf.inv_per_s": "1/s", "gf.make_field_ms": "ms",
    "gf.lazy_setup_ms": "ms", "gf.table_entries": "count",
    "matfq.mul_ms": "ms", "matfq.det_ms": "ms", "matfq.rank_ms": "ms",
    "matfq.inverse_ms": "ms", "matfq.char_coeffs_ms": "ms",
    "polyfq.invariant_factors_ms": "ms", "polyfq.elementary_divisors_ms": "ms",
    "polyfq.factor_monic_ms": "ms", "polyfq.rational_canonical_form_ms": "ms",
    "solutions.scan_s": "s", "solutions.matrices_scanned": "count",
    "solutions.matrices_per_s": "1/s", "solutions.pool2_speedup": "x",
    "orbits.enumerate_gl_s": "s", "orbits.gl_elements": "count",
    "orbits.gl_elements_per_s": "1/s", "orbits.census_s": "s",
    "orbits.centralizer_s": "s", "orbits.classify_ms": "ms",
    "invariants.subset_sweep_s": "s", "invariants.subsets_swept": "count",
    "invariants.subsets_per_s": "1/s",
    "ideal.variety_s": "s", "ideal.points_scanned": "count",
    "ideal.points_per_s": "1/s", "ideal.generating_set_ms": "ms",
    "cli.job_ms": "ms", "cli.cold_start_ms": "ms",
    "trace.overhead_frac": "frac",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def git_rev(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(root, ".git", name)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("FFYB_BUDGET", None)  # the CLI jobs run at the built-in budgets
    return env


def run_child(argv: list[str], env: dict, timeout: float) -> str:
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:4])} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


def timed_child(argv: list[str], env: dict) -> float:
    t0 = time.perf_counter()
    run_child(argv, env, WORKER_TIMEOUT_S)
    return time.perf_counter() - t0


def import_seconds(env: dict) -> tuple[float, float]:
    """One `import ffyb` in a fresh interpreter: (raw, at the reference speed),
    the speed taken from bursts of samples just before and after it."""
    before = speed.burst_ms()
    raw = float(run_child([sys.executable, "-c", IMPORT_TIMER], env, WORKER_TIMEOUT_S))
    return raw, raw * speed.scale((before + speed.burst_ms()) / 2)


def pass_seed(seed: int, index: int) -> int:
    """Each pass draws its own inputs, so that a run averages over several
    draws; the same run seed still gives the same inputs."""
    return seed * 1000 + index


def run_pass(root: str, env: dict, args, traced: bool, index: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(pass_seed(args.seed, index)), "--trace", str(int(traced))]
    if traced:
        argv += ["--spans", os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}-pass{index}.json")]
    out = json.loads(run_child(argv, env, WORKER_TIMEOUT_S).splitlines()[-1])
    if not os.path.samefile(out["ffyb"], os.path.join(root, "src", "ffyb")):
        raise BenchError(f"imported ffyb from {out['ffyb']}, not from ./src")
    if out["jobs"] < MIN_JOBS:
        raise BenchError(f"a pass ran {out['jobs']} jobs, fewer than {MIN_JOBS}")
    out["traced"] = traced
    out["seed"] = pass_seed(args.seed, index)
    return out


def run_passes(root: str, env: dict, args) -> tuple[list[dict], list[tuple]]:
    """The passes, one after another, and the set-up samples taken between
    them; in a traced run every second pass is traced."""
    passes, setup = [], []
    if not args.trace:
        import_seconds(env)  # warm-up: may compile bytecode
    start = time.monotonic()
    longest = 0.0
    while (len(passes) < MIN_PASSES[args.trace]
           or time.monotonic() - start + longest <= args.seconds):
        t0 = time.monotonic()
        if not args.trace:
            setup += [import_seconds(env) for _ in range(SETUP_SAMPLES)]
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(root, env, args, traced, len(passes)))
        longest = max(longest, time.monotonic() - t0)
    if len({p["jobs"] for p in passes}) != 1:
        raise BenchError("passes ran different job lists")
    return passes, setup


def wall_s(passes: list[dict], key: str = "norm_durations_ms") -> float:
    """Median over passes of the job-list time: every job's call and check."""
    return statistics.median([sum(p[key]) / 1000 for p in passes])


def times(passes: list[dict], setup: list[tuple], norm: bool) -> dict:
    """The end-to-end times, at the reference speed or (norm=False) raw."""
    prefix = "norm_" if norm else ""
    latencies = [x for p in passes for x in p[prefix + "latencies_ms"]]
    return {
        "setup_s": statistics.median(s[int(norm)] for s in setup),
        "wall_s": wall_s(passes, prefix + "durations_ms"),
        "job_p50_ms": stats.hd_percentile(latencies, 50),
        "job_p90_ms": stats.hd_percentile(latencies, 90),
    }


def end_to_end(passes: list[dict], setup: list[tuple]) -> dict:
    return dict(times(passes, setup, norm=True),
                peak_rss_mb=statistics.median([p["peak_rss_mb"] for p in passes]))


def per_layer(passes: list[dict], cold_start: list[float]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: statistics.median([p["layers"][name] for p in traced])
           for name in traced[0]["layers"]}
    out["cli.cold_start_ms"] = statistics.median(cold_start) * 1000
    out["trace.overhead_frac"] = wall_s(traced) / wall_s(plain) - 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one ffyb benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ffyb", "__init__.py")):
        print("error: run from the root of an ffyb checkout (no src/ffyb here)",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    env = worker_env(root)
    try:
        if args.trace:
            cold_start = [timed_child([sys.executable, "-m", "ffyb", "count",
                                       "--p", "2", "--n", "2"], env)
                          for _ in range(COLD_START_SAMPLES)]
        passes, setup = run_passes(root, env, args)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["jobs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values, units = per_layer(passes, cold_start), PER_LAYER_UNITS
    else:
        values, units = end_to_end(passes, setup), END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    tail = stats.tail_percentile(attempted)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_rev": git_rev(root), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": passes[0]["numpy"],
        "passes": len(passes), "jobs_per_pass": passes[0]["jobs"],
        "tail": f"p{tail} of {attempted} job latencies, "
                f"{stats.beyond(attempted, tail)} beyond it",
        "failed_frac": failed / attempted,
        "errors": [e for p in passes for e in p["errors"]][:10],
    }
    if args.trace:
        meta["pool2_speedup"] = "n/a" if passes[1]["pool2_na"] else "measured"
        meta["self_s"] = [p["self_s"] for p in passes if p["traced"]]
    else:
        meta["raw"] = times(passes, setup, norm=False)
    record = dict(meta, metrics=metrics, passes=passes)
    path = os.path.join(HERE, "out", f"result-{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({k: meta[k] for k in ("workload", "seed", "git_rev", "nproc",
                                           "python", "numpy", "passes", "tail")}))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    for name, value in meta.get("raw", {}).items():
        print(f"{name + ' (raw)':36s} {value:>16.6g} {END_TO_END_UNITS[name]}")
    print(f"{'failed_frac':36s} {meta['failed_frac']:>16.6g} 1  "
          f"({failed} of {attempted} jobs)")
    for err in meta["errors"]:
        print(f"FAILED {err}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
