"""Byte-for-byte replay of a fixed CLI corpus.

tests/golden/cli_corpus.json holds the stdout and exit code of every argv in
CORPUS, recorded from an earlier version of the package.  Any change to an
encoding, a modulus, a report layout or a scan order shows up here as a diff.

Regenerate (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import json
import pathlib
import sys

GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli_corpus.json"

# (p, s, a): GF(2), GF(4), GF(5), GF(8), GF(9), GF(2^7), GF(3^5), GF(23^2)
FIELDS = [(2, 1, 1), (2, 2, 2), (5, 1, 3), (2, 3, 5), (3, 2, 7),
          (2, 7, 77), (3, 5, 200), (23, 2, 444)]


def _corpus() -> list[list[str]]:
    out = []
    for p, s, a in FIELDS:
        q = p**s
        base = ["--p", str(p), "--s", str(s), "--a", str(a)]
        small = q <= 9
        n_scan = "2" if small else "1"
        b = (a * 3 + 1) % q
        out += [
            ["count", *base, "--n", n_scan, "--method", "both"],
            ["enumerate", *base, "--n", n_scan, "--list"],
            ["classify", *base, "--n", "2", "--matrix", f"{a},{b};0,0"],
            ["classify", *base, "--n", "3", "--matrix", f"0,0,0;0,{a},0;{b},0,{a}"],
            ["orbits", *base, "--n", "3"],
            ["smith", *base, "--n", "3",
             "--matrix", f"1,{2 % q},0;0,1,{3 % q};{q - 1},0,{a}"],
            ["smith", *base, "--n", "2", "--matrix", f"{a},{b};{b},{a}"],
            ["invariants", *base, "--n", "6", "--minimal-subsets"],
            ["ideal", *base, "--n", "3" if small else "2", "--verify"],
            ["ideal", *base, "--n", "7"],
        ]
    out += [
        ["count", "--p", "3", "--n", "2", "--a", "0"],
        ["count", "--p", "7", "--n", "2", "--a", "rand-nonzero", "--seed", "3"],
        ["orbits", "--p", "2", "--s", "2", "--n", "3", "--a", "3", "--output", "table"],
        ["classify", "--p", "2", "--n", "2", "--a", "1", "--matrix", "1,1;0,1"],
        ["count", "--p", "5", "--n", "4", "--method", "brute", "--budget", "1000"],
        ["ideal", "--p", "3", "--n", "9", "--verify", "--budget", "1000"],
    ]
    # varieties at q^n between 6*10^4 and 8*10^4, where most of F_q^n is
    # ruled out by the generators on the first few variables the scan fixes
    out += [["ideal", "--p", str(p), "--s", str(s), "--a", str(a), "--n", str(n),
             "--verify"]
            for p, s, a, n in [(2, 1, 1, 16), (3, 1, 2, 10), (2, 2, 3, 8), (5, 1, 4, 7)]]
    # varieties over large prime fields, at q^n near 6.6*10^4 and 10^6
    out += [["ideal", "--p", "257", "--n", "2", "--verify"],
            ["ideal", "--p", "101", "--n", "3", "--verify"]]
    # the whole cross-verification sweep at its default budgets
    out += [["verify-all"], ["verify-all", "--output", "table"]]
    return out


CORPUS = _corpus()


def replay(argv: list[str]) -> dict:
    from ffyb.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": buf.getvalue()}


def test_cli_corpus_is_byte_identical():
    recorded = json.loads(GOLDEN.read_text())
    assert [r["argv"] for r in recorded] == CORPUS
    for want in recorded:
        assert replay(want["argv"]) == want, " ".join(want["argv"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([replay(a) for a in CORPUS], indent=1) + "\n")
