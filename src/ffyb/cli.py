"""Command-line front end: reproducible verification runs and JSON reports.

Commands: count, enumerate, classify, orbits, smith, invariants, ideal,
verify-all.  Reports are JSON by default (big integers as decimal strings,
stable key order, top-level "schema": 1) or plain text with --output table.
Exit codes: 0 success, 1 input error or failed verification, 2 budget
refusal, 3 failed internal check.  The FFYB_BUDGET environment variable
overrides the default enumeration budget; --budget overrides both.  Either
must be a positive integer.  The parser is built once per process, on the
first call of main, and FFYB_BUDGET is read on every call.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from math import comb

from . import ideal as ideal_mod
from . import invariants as inv_mod
from . import orbits as orb_mod
from . import polyfq
from . import solutions as sol_mod
from .errors import BudgetExceededError, InternalInvariantError
from .gf import make_field
from .matfq import parse_matrix
from .solutions import EquationInstance

SCHEMA_VERSION = 1
_parser = None  # built by the first main call, then reused


def _resolve_budget(flag: int | None) -> int | None:
    """--budget, else FFYB_BUDGET, else None for each command's built-in
    budget.  Anything but a positive integer is an input error."""
    if flag is not None:
        source, text = "--budget", str(flag)
    else:
        source, text = "FFYB_BUDGET", os.environ.get("FFYB_BUDGET", "")
        if not text:
            return None
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return int(text)


def _build_instance(args) -> tuple[EquationInstance, dict]:
    fld = make_field(args.p, args.s)
    extras = {}
    if args.a == "rand-nonzero":
        if fld.q < 2:
            raise ValueError("no nonzero element available")
        enc = random.Random(args.seed).randrange(1, fld.q)
        extras["a_source"] = "rand-nonzero"
        extras["seed"] = args.seed
    else:
        try:
            enc = int(args.a)
        except ValueError as exc:
            raise ValueError(f"--a must be an integer encoding or 'rand-nonzero', "
                             f"got {args.a!r}") from exc
    inst = EquationInstance(fld, args.n, fld.from_encoding(enc))
    return inst, extras


def _base_report(command: str, inst: EquationInstance, extras: dict) -> dict:
    report = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "p": inst.field.p,
        "s": inst.field.s,
        "q": inst.q,
        "n": inst.n,
        "a": inst.a.encoding,
    }
    report.update(extras)
    return report


def _emit(report: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(report, indent=2))
    else:
        _print_table(report)


def _print_table(obj, indent: str = "") -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{indent}{k}:")
                _print_table(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _print_table(v, indent + "  ")
                print()
            else:
                print(f"{indent}- {v}")
    else:
        print(f"{indent}{obj}")


# ---------------------------------------------------------------------------
# command handlers; each returns (report dict, exit code)

def cmd_count(args) -> tuple[dict, int]:
    inst, extras = _build_instance(args)
    report = _base_report("count", inst, extras)
    if inst.a.is_zero():
        report["method"] = "a_zero"
        report["total"] = str(sol_mod.yang_baxter_count(inst))
        return report, 0
    code = 0
    if args.method in ("closed", "both"):
        closed = sol_mod.closed_form_count(inst)
        report["closed_form"] = str(closed.total)
    if args.method in ("brute", "both"):
        brute = sol_mod.brute_force_count(inst, budget=args.budget)
        report["brute_force"] = str(brute)
    report["method"] = {"closed": "closed_form", "brute": "brute_force",
                        "both": "both"}[args.method]
    if args.method == "closed":
        report["total"] = report["closed_form"]
    elif args.method == "brute":
        report["total"] = report["brute_force"]
    else:
        agree = report["closed_form"] == report["brute_force"]
        report["agree"] = agree
        report["total"] = report["closed_form"]
        if not agree:
            code = 1
    return report, code


def cmd_enumerate(args) -> tuple[dict, int]:
    inst, extras = _build_instance(args)
    report = _base_report("enumerate", inst, extras)
    if args.list:
        sols = sol_mod.brute_force_solutions(inst, budget=args.budget)
        report["total"] = str(len(sols))
        report["solutions"] = [x.text() for x in sols]
    else:
        total = sol_mod.brute_force_count(inst, budget=args.budget)
        report["total"] = str(total)
    return report, 0


def cmd_classify(args) -> tuple[dict, int]:
    inst, extras = _build_instance(args)
    X = parse_matrix(inst.field, args.matrix)
    label = orb_mod.classify(inst, X)
    report = _base_report("classify", inst, extras)
    report.update({
        "matrix": X.text(),
        "label": label.text(),
        "rank": orb_mod.label_rank(inst, label),
        "orbit_size": str(orb_mod.orbit_size(inst, label)),
        "stabilizer_order": str(orb_mod.stabilizer_order(inst, label)),
    })
    return report, 0


def cmd_orbits(args) -> tuple[dict, int]:
    inst, extras = _build_instance(args)
    records = orb_mod.list_orbits(inst)
    report = _base_report("orbits", inst, extras)
    report["orbits"] = [r.to_json_dict() for r in records]
    report["total"] = str(sum(r.orbit_size for r in records))
    return report, 0


def cmd_smith(args) -> tuple[dict, int]:
    inst, extras = _build_instance(args)
    X = parse_matrix(inst.field, args.matrix)
    if X.n_rows != X.n_cols:
        raise ValueError("smith expects a square matrix")
    factors = polyfq.invariant_factors(X)
    # only the minimal polynomial, the last factor, is factored
    cost = polyfq.factor_cost(inst.q, factors[-1].degree)
    budget = args.budget or polyfq.DEFAULT_FACTOR_BUDGET
    if cost > budget:
        raise BudgetExceededError(cost, budget, "factoring the minimal polynomial",
                                  "field multiplications")
    report = _base_report("smith", inst, extras)
    report.update({
        "matrix": X.text(),
        "invariant_factors": [h.text() for h in factors],
        "elementary_divisors": [g.text() for g in polyfq._divisors_of_factors(factors)],
        "rational_canonical_form": polyfq._rcf_of_factors(X.field, factors).text(),
    })
    return report, 0


def cmd_invariants(args) -> tuple[dict, int]:
    inst, extras = _build_instance(args)
    pts = inv_mod.image_points(inst)
    sep = inv_mod.separation_report(inst, with_minimal_subsets=args.minimal_subsets)
    report = _base_report("invariants", inst, extras)
    report["image_points"] = [[c.encoding for c in p.coords] for p in pts]
    report.update(sep.to_json_dict())
    return report, 0


def cmd_ideal(args) -> tuple[dict, int]:
    inst, extras = _build_instance(args)
    # C(n+1, 2) generators, each with at least one exponent vector of n entries
    entries = comb(inst.n + 1, 2) * inst.n
    if entries > sol_mod.LIST_LIMIT:
        raise BudgetExceededError(entries, sol_mod.LIST_LIMIT, "generator report",
                                  "exponent entries")
    gens, check = ideal_mod._serialized(
        inst, verify=args.verify, budget=args.budget or ideal_mod.DEFAULT_VARIETY_BUDGET)
    report = _base_report("ideal", inst, extras)
    report["generator_count"] = len(gens)
    report["generators"] = gens
    code = 0
    if check is not None:
        report["variety"] = [list(pt) for pt in check.points]
        report["verdict"] = check.equal
        if not check.equal:
            code = 1
    return report, code


# ---------------------------------------------------------------------------
# verify-all: the cross-verification sweep, one line per check.

def _default_brute_pairs(limit: int) -> list[tuple[int, int, int]]:
    """(n, p, s) with q <= 5, n <= 5 and search space within limit."""
    out = []
    for n in range(2, 6):
        for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
            q = p**s
            if q**(n * n) <= limit:
                out.append((n, p, s))
    return out


def _check_counts(budget: int) -> tuple[bool, str]:
    tried = []
    for n, p, s in _default_brute_pairs(min(budget, sol_mod.DEFAULT_SCAN_BUDGET)):
        fld = make_field(p, s)
        closed = None
        counts = set()
        for enc in range(1, fld.q):
            inst = EquationInstance(fld, n, fld.from_encoding(enc))
            closed = sol_mod.closed_form_count(inst).total
            got = sol_mod.brute_force_count(inst, budget=budget)
            if got != closed:
                return False, f"mismatch at n={n} q={fld.q} a={enc}: {got} != {closed}"
            counts.add(got)
        if len(counts) != 1:
            return False, f"count depends on a at n={n} q={fld.q}: {sorted(counts)}"
        tried.append(f"(n={n},q={fld.q}):{closed}")
    return True, "; ".join(tried)


def _check_orbit_census(budget: int) -> tuple[bool, str]:
    cases = [(2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1)]
    details = []
    for n, p, s in cases:
        fld = make_field(p, s)
        for enc in range(1, fld.q):
            inst = EquationInstance(fld, n, fld.from_encoding(enc))
            classes = orb_mod._census(inst, budget)
            if len(classes) != n + 1:
                return False, f"{len(classes)} classes at n={n} q={fld.q}, want {n + 1}"
            total = 0
            for cls in classes:
                label = orb_mod.classify(inst, sol_mod._matrices_of(fld, n, cls[:1])[0])
                want = orb_mod.orbit_size(inst, label)
                if len(cls) != want:
                    return False, (f"orbit {label.text()} has size {len(cls)}, "
                                   f"formula says {want}")
                total += len(cls)
            if total != sol_mod.closed_form_count(inst).total:
                return False, f"orbit sizes do not sum to the count at n={n} q={fld.q}"
        details.append(f"(n={n},q={fld.q})")
    return True, "classes and sizes match at " + ", ".join(details)


def _check_stabilizers(budget: int) -> tuple[bool, str]:
    cases = [(2, 2, 1), (2, 3, 1), (3, 2, 1)]
    for n, p, s in cases:
        fld = make_field(p, s)
        for enc in range(1, fld.q):
            inst = EquationInstance(fld, n, fld.from_encoding(enc))
            for rec in orb_mod.list_orbits(inst):
                got = orb_mod.brute_force_centralizer_order(inst, rec.representative,
                                                            budget=budget)
                if got != rec.stabilizer_order:
                    return False, (f"centralizer of {rec.label.text()} at n={n} "
                                   f"q={fld.q}: {got} != {rec.stabilizer_order}")
    return True, "centralizer counts match GL(n-k)xGL(k) orders"


def _check_elementary_divisors() -> tuple[bool, str]:
    checked = 0
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        fld = make_field(p, s)
        x = polyfq.UniPoly.x(fld)
        for n in range(2, 7):
            for enc in range(1, fld.q):
                a = fld.from_encoding(enc)
                inst = EquationInstance(fld, n, a)
                x_minus_a = x - polyfq.UniPoly.constant(a)
                for k in range(1, n // 2 + 1):
                    for b_is_a in (False, True):
                        b = a if b_is_a else fld.zero()
                        mat = orb_mod.block_solution(inst, k, b)
                        got = sorted(polyfq.elementary_divisors(mat),
                                     key=lambda g: g.text())
                        lam = n - k if b_is_a else k
                        want = sorted([x] * (n - lam) + [x_minus_a] * lam,
                                      key=lambda g: g.text())
                        if got != want:
                            return False, (f"divisors off at n={n} q={fld.q} k={k} "
                                           f"b={'a' if b_is_a else '0'}")
                        checked += 1
    return True, f"{checked} block matrices have the expected divisor multisets"


def _check_separation() -> tuple[bool, str]:
    fields = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
    for p, s in fields:
        fld = make_field(p, s)
        for n in range(1, 9):
            for enc in range(1, fld.q):
                inst = EquationInstance(fld, n, fld.from_encoding(enc))
                pts = inv_mod.image_points(inst)
                if len(pts) != n + 1:
                    return False, f"image has {len(pts)} points at n={n} q={fld.q}"
                if not inv_mod.subset_separates(inst, range(1, n + 1)):
                    return False, f"full invariant set fails at n={n} q={fld.q}"
                if p > n and not inv_mod.trace_separates(inst):
                    return False, f"trace should separate at n={n} p={p}"
    return True, "n+1 distinct image points; full set separates; trace when p > n"


def _check_variety(budget: int) -> tuple[bool, str]:
    checked = 0
    for p, s in [(2, 1), (3, 1), (2, 2), (5, 1)]:
        fld = make_field(p, s)
        for n in range(2, 7):
            if fld.q**n > min(budget, 10**6):
                continue
            for enc in range(1, fld.q):
                inst = EquationInstance(fld, n, fld.from_encoding(enc))
                check = ideal_mod.verify_variety(inst, budget=budget)
                if not check.equal or check.variety_size != n + 1:
                    return False, f"variety mismatch at n={n} q={fld.q} a={enc}"
                checked += 1
    return True, f"{checked} varieties equal their n+1 image points"


CHECKS = {
    "count-oracle": lambda args: _check_counts(args.budget
                                               or sol_mod.DEFAULT_SCAN_BUDGET),
    "orbit-census": lambda args: _check_orbit_census(args.budget or orb_mod.GL_SCAN_BUDGET),
    "stabilizers": lambda args: _check_stabilizers(args.budget or orb_mod.GL_SCAN_BUDGET),
    "elementary-divisors": lambda args: _check_elementary_divisors(),
    "separation": lambda args: _check_separation(),
    "variety": lambda args: _check_variety(args.budget
                                           or ideal_mod.DEFAULT_VARIETY_BUDGET),
}


def cmd_verify_all(args) -> tuple[dict, int]:
    names = list(CHECKS)
    if args.only:
        unknown = [n for n in args.only if n not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; available: {names}")
        names = [n for n in names if n in args.only]
    results = []
    all_ok = True
    lines_to = sys.stdout if args.output == "table" else sys.stderr
    for name in names:
        ok, detail = CHECKS[name](args)
        all_ok &= ok
        results.append({"name": name, "ok": ok, "detail": detail})
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", file=lines_to)
    report = {"schema": SCHEMA_VERSION, "command": "verify-all",
              "checks": results, "all_ok": all_ok}
    return report, 0 if all_ok else 1


# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, *, needs_instance: bool = True) -> None:
    if needs_instance:
        parser.add_argument("--p", type=int, required=True, help="field characteristic")
        parser.add_argument("--s", type=int, default=1, help="extension degree")
        parser.add_argument("--n", type=int, required=True, help="matrix size")
        parser.add_argument("--a", default="1",
                            help="integer encoding of a, or 'rand-nonzero'")
        parser.add_argument("--seed", type=int, default=0,
                            help="seed for --a rand-nonzero")
    parser.add_argument("--budget", type=int,
                        help="max enumeration size (default FFYB_BUDGET or built-in)")
    parser.add_argument("--output", choices=("json", "table"), default="json")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ffyb",
        description="Solution counts, orbits, invariants and the orbit-image "
                    "ideal for X^2 = aX over GF(q).")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="solution count (closed form and/or enumeration)")
    _add_common(p)
    p.add_argument("--method", choices=("closed", "brute", "both"), default="closed")
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("enumerate", help="brute-force scan of all matrices")
    _add_common(p)
    p.add_argument("--list", action="store_true",
                   help="include the solution matrices in the report")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("classify", help="orbit of a given solution matrix")
    _add_common(p)
    p.add_argument("--matrix", required=True, help="matrix text, e.g. '0,1;0,3'")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("orbits", help="all n+1 orbits with sizes and stabilizers")
    _add_common(p)
    p.set_defaults(handler=cmd_orbits)

    p = sub.add_parser("smith", help="invariant factors, elementary divisors and "
                                     "rational canonical form of a matrix")
    _add_common(p)
    p.add_argument("--matrix", required=True, help="matrix text, e.g. '0,1;0,3'")
    p.set_defaults(handler=cmd_smith)

    p = sub.add_parser("invariants", help="orbit image points and separation report")
    _add_common(p)
    p.add_argument("--minimal-subsets", action="store_true",
                   help="sweep all coordinate subsets for minimal separating ones")
    p.set_defaults(handler=cmd_invariants)

    p = sub.add_parser("ideal", help="quadratic generating set and its variety")
    _add_common(p)
    p.add_argument("--verify", action="store_true",
                   help="scan the variety and compare with the image points")
    p.set_defaults(handler=cmd_ideal)

    p = sub.add_parser("verify-all", help="run the whole cross-verification sweep")
    _add_common(p, needs_instance=False)
    p.add_argument("--only", action="append", metavar="CHECK",
                   help=f"run only the named check (repeatable); "
                        f"one of: {', '.join(CHECKS)}")
    p.set_defaults(handler=cmd_verify_all)
    return top


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags; remap to input error
        return 0 if exc.code in (0, None) else 1
    try:
        args.budget = _resolve_budget(args.budget)
        report, code = args.handler(args)
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "verify-all" and args.output == "table":
        return code  # the per-check lines were already printed
    _emit(report, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
