"""Fuzz the ffyb command line for hangs and crashes.

Draws argv from the CLI grammar with hypothesis, derandomized: all eight
commands, p up to 10^30, s and n up to 10^9, zero and negative values, --a
out of range or rand-nonzero, malformed --matrix text, a stray flag or
positional in about one argv in ten, and no command in about one in twenty.  --budget is
absent or at most the budget the command runs at without it, so no draw
asks for a legitimately long scan.  Each argv runs in its own child process,
one at a time, under a 10 s timeout and an address-space limit of about
2 GB set in the child; it must exit 0-3 and print no traceback, and an exit
1 must come with the "error:" line of a rejected input, since a FAIL verdict
(count --method both, ideal --verify, verify-all) also exits 1.  A JSON
report must be the bytes json.dumps(report, indent=2) gives.

    PYTHONPATH=src python tests/fuzz_cli.py

Not part of the pytest suite: each example starts an interpreter.
"""

import collections
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time

from hypothesis import Phase, example, given, settings, strategies as st

from ffyb.ideal import DEFAULT_VARIETY_BUDGET
from ffyb.orbits import GL_SCAN_BUDGET
from ffyb.polyfq import DEFAULT_FACTOR_BUDGET
from ffyb.solutions import DEFAULT_SCAN_BUDGET
from ffyb.verify import CHECKS

EXAMPLES = 200
TIMEOUT_S = 10
ADDRESS_SPACE = 2 << 30

# classify, orbits and invariants read no budget; verify-all hands its one
# budget to every check, so it is capped at the least of their defaults
MAX_BUDGET = {"count": DEFAULT_SCAN_BUDGET, "enumerate": DEFAULT_SCAN_BUDGET,
              "classify": DEFAULT_SCAN_BUDGET, "orbits": DEFAULT_SCAN_BUDGET,
              "smith": DEFAULT_FACTOR_BUDGET, "invariants": DEFAULT_SCAN_BUDGET,
              "ideal": DEFAULT_VARIETY_BUDGET, "verify-all": GL_SCAN_BUDGET}
FLAGS = {"count": [[], ["--method", "closed"], ["--method", "brute"], ["--method", "both"]],
         "enumerate": [[], ["--list"]], "invariants": [[], ["--minimal-subsets"]],
         "ideal": [[], ["--verify"]]}


def ints(lo: int, hi: int, big: int, edges=()):
    """Small values, values anywhere in [-big, big], and the edges."""
    return st.one_of(st.integers(lo, hi), st.integers(-big, big), st.sampled_from([0, -1, big, *edges]))


def either(valid, wild):
    """A draw from wild about one time in four, else from valid, so that many
    argv get past the input checks.  hypothesis draws the low end of a range
    most often, so wild comes on the top of 0..2: 155 of the 614 draws (25%)
    under the settings of main(); on the top of 0..3 it came 108 in 694 (16%)."""
    return st.integers(0, 2).flatmap(lambda k: wild if k == 2 else valid)


P = either(st.sampled_from([2, 3, 5, 7, 11, 13, 101, 257, 521, 4093, 1048573]),
           ints(-3, 300, 10**30, [4, 1048583, 2**61 - 1, 10**30 + 57]))
S = either(st.integers(1, 3), ints(-2, 10, 10**9, [20, 21]))
N = either(st.integers(1, 4), ints(-2, 8, 10**9, [20, 21, 999, 1000]))
A = either(st.sampled_from(["1", "2", "rand-nonzero"]),
           st.one_of(ints(-3, 600, 10**30).map(str), st.sampled_from(["", "x", "1.5"])))
ENTRY = ints(-2, 600, 10**30).map(str)
MATRIX = st.one_of(
    st.integers(1, 6).flatmap(lambda cols: st.lists(
        st.lists(ENTRY, min_size=cols, max_size=cols), min_size=1, max_size=6)).map(
        lambda rows: ";".join(",".join(r) for r in rows)),
    st.text("0123456789,;- x", max_size=40))


@st.composite
def argvs(draw) -> list[str]:
    cmd = draw(st.sampled_from(list(MAX_BUDGET)))
    argv = [cmd]
    if cmd == "verify-all":
        for name in draw(st.lists(st.sampled_from([*CHECKS, "nonesuch"]), max_size=2)):
            argv += ["--only", name]
    else:
        argv += ["--p", str(draw(P)), "--n", str(draw(N))]
        for flag, values in [("--s", S), ("--a", A), ("--seed", ints(-3, 10, 10**9))]:
            if draw(st.booleans()):
                argv += [flag, str(draw(values))]
        if cmd in ("classify", "smith"):
            argv += ["--matrix", draw(MATRIX)]
    argv += draw(st.sampled_from(FLAGS.get(cmd, [[]])))
    if draw(st.booleans()):
        argv += ["--budget", str(draw(either(st.integers(1, MAX_BUDGET[cmd]), st.integers(-3, 0))))]
    if draw(st.booleans()):
        argv += ["--output", draw(st.sampled_from(["json", "table"]))]
    # about one argv in ten has a stray flag or positional, which the command's
    # own parser rejects, and one in twenty has no command, for the top-level
    # parser; sampled_from draws its first element most often, so these come last
    stray = draw(st.sampled_from([None] * 18 + ["--bogus", "extra"]))
    if stray:
        argv.insert(draw(st.integers(1, len(argv))), stray)
    if draw(st.sampled_from([False] * 19 + [True])):
        del argv[0]
    return argv


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_child(argv: list[str]) -> tuple[int, float]:
    """The exit code and seconds of `ffyb argv` in a child process; a
    timeout, an exit code outside 0-3, a traceback, an exit 1 with no
    "error:" line or a JSON report that json.dumps would indent otherwise
    raises AssertionError."""
    env = {k: v for k, v in os.environ.items() if k != "FFYB_BUDGET"}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "ffyb", *argv], env=env,
                              capture_output=True, text=True, timeout=TIMEOUT_S,
                              preexec_fn=_limit_address_space)
    except subprocess.TimeoutExpired:
        raise AssertionError(f"no exit within {TIMEOUT_S} s: ffyb {shlex.join(argv)}") from None
    # cli.main and argparse ("ffyb count: error: ...") report rejected input on such a line
    rejected = re.search(r"^(ffyb( [a-z-]+)?: )?error: ", proc.stderr, re.MULTILINE)
    if (not 0 <= proc.returncode <= 3 or "Traceback" in proc.stderr
            or proc.returncode == 1 and not rejected):
        raise AssertionError(f"exit {proc.returncode}: ffyb {shlex.join(argv)}\n"
                             f"{proc.stderr[-3000:]}")
    out = proc.stdout  # a table never starts with "{"
    if out.startswith("{") and out != json.dumps(json.loads(out), indent=2) + "\n":
        raise AssertionError(f"report is not json.dumps(indent=2): ffyb {shlex.join(argv)}")
    return proc.returncode, time.perf_counter() - start


def main() -> int:
    exits, slowest = collections.Counter(), (0.0, [])

    # the inputs that hung before the refusals of make_field and scan.gate
    @example(["count", "--p", "2305843009213693951", "--n", "2"])
    @example(["count", "--p", str(10**30 + 57), "--n", "2"])
    @example(["count", "--p", "3", "--s", "100000000", "--n", "2"])
    @example(["enumerate", "--p", "3", "--n", "30000"])
    @example(["count", "--method", "brute", "--p", "3", "--n", "30000"])
    # no shrinking: each shrink step may wait out a whole timeout
    @settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
              phases=[Phase.explicit, Phase.generate])
    @given(argvs())
    def fuzz(argv):
        nonlocal slowest
        code, seconds = run_child(argv)
        exits[code] += 1
        slowest = max(slowest, (seconds, argv))

    start = time.perf_counter()
    fuzz()
    print(f"{sum(exits.values())} argv in {time.perf_counter() - start:.1f} s, "
          f"exit codes {dict(sorted(exits.items()))}; slowest {slowest[0]:.2f} s: "
          f"ffyb {shlex.join(slowest[1])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
