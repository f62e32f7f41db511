"""Tests of the benchmark itself (not of ffyb).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def make_jobs(workload, seed=1, limit=None):
    ctx = workloads.Context(seed, Tracer(False))
    return list(itertools.islice(workloads.WORKLOADS[workload](ctx), limit))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(10) is None
    for n in range(11, 400):
        pct = stats.tail_percentile(n)
        values = list(range(n))
        assert sum(v > stats.percentile(values, pct) for v in values) >= 10
        assert pct == 99 or stats.beyond(n, pct + 1) < 10


def test_hd_percentile_tracks_the_nearest_rank_and_smooths_gaps():
    values = list(range(1, 1001))
    for pct in (10, 50, 90, 99):
        assert stats.hd_percentile(values, pct) == pytest.approx(
            stats.percentile(values, pct), rel=0.02)
    assert stats.hd_percentile([5.0] * 50, 90) == pytest.approx(5.0)
    # 89 fast and 11 slow samples: p90 lies on the gap, and moving one sample
    # across it moves the nearest rank from 1 to 100 but the estimate far less.
    fast, slow = [1.0] * 89 + [100.0] * 11, [1.0] * 90 + [100.0] * 10
    assert stats.percentile(fast, 90) / stats.percentile(slow, 90) == 100
    assert stats.hd_percentile(fast, 90) / stats.hd_percentile(slow, 90) < 2
    with pytest.raises(ValueError):
        stats.hd_percentile([], 50)


def test_wrong_result_is_counted_and_the_run_goes_on():
    jobs = make_jobs("oracle", limit=4)
    jobs[0].call = lambda: -1

    def crash():
        raise RuntimeError("injected")
    jobs[1].call = crash
    res = worker.run_jobs(jobs, Tracer(True), repeat_first=True)
    assert res.failed == 2
    assert len(res.latencies_ms) == 4
    assert "injected" in res.errors[1]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_first_jobs_of_each_workload_pass(workload):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        worker.main(["--workload", workload, "--seed", "1", "--limit", "6"])
    out = json.loads(buf.getvalue().splitlines()[-1])
    assert out["jobs"] == 6
    assert out["failed"] == 0, out["errors"]
    assert len(out["norm_latencies_ms"]) == len(out["norm_durations_ms"]) == 6
    assert out["speed_samples"] >= speed.MIN_SAMPLES


def test_speed_samples_are_taken_off_and_scale_times():
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 20 * speed.PERIOD_S:
            pass
        t1 = time.perf_counter()
    assert len(sampler.starts) >= 10  # the timer fired during the busy loop
    inside = [n for st, n in zip(sampler.starts, sampler.lengths) if t0 <= st < t1]
    assert sampler.busy_s(t0, t1) == pytest.approx(sum(inside))
    assert sampler.busy_s(t0, t1) < (t1 - t0) / 2
    assert sampler.busy_s(t1, t1) == 0
    assert speed.scale(speed.REF_MS) == 1
    assert speed.scale(2 * speed.REF_MS) == pytest.approx(0.5 ** speed.EXPONENT)
    assert 0 < sampler.scale(t0, t1) < 10


def test_each_pass_draws_its_own_inputs_from_the_run_seed():
    seeds = [run.pass_seed(7, k) for k in range(5)]
    assert len(set(seeds)) == 5
    assert seeds == [run.pass_seed(7, k) for k in range(5)]
    assert not set(seeds) & {run.pass_seed(8, k) for k in range(5)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_but_not_work(workload):
    first, again, other = (make_jobs(workload, seed) for seed in (5, 5, 6))
    assert len(first) >= 100
    assert [j.desc for j in first] == [j.desc for j in again]
    assert [j.desc for j in first] != [j.desc for j in other]
    work = Counter((j.name, j.field, j.work) for j in first)
    assert work == Counter((j.name, j.field, j.work) for j in other)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
