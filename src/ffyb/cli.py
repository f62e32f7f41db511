"""Command-line front end: argument handling and JSON or table reports.

Commands: count, enumerate, classify, orbits, smith, invariants, ideal,
verify-all; the checks of verify-all are in verify.py.  Reports are JSON
by default (big integers as decimal strings, stable key order, top-level
"schema": 1) or plain text with --output table.  Exit codes: 0 success,
1 input error or failed verification, 2 budget refusal, 3 failed internal
check.  The FFYB_BUDGET environment variable overrides the default
enumeration budget; --budget overrides both.  Either must be a positive
integer.  The parser is built once per process, on the first call of
main, and FFYB_BUDGET is read on every call.
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
from .verify import CHECKS

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
    """The instance of --p, --s, --n and --a, and the report fields that
    name it."""
    fld = make_field(args.p, args.s)
    extras = {}
    if args.a == "rand-nonzero":
        enc = random.Random(args.seed).randrange(1, fld.q)
        extras = {"a_source": "rand-nonzero", "seed": args.seed}
    else:
        try:
            enc = int(args.a)
        except ValueError as exc:
            raise ValueError(f"--a must be an integer encoding or 'rand-nonzero', "
                             f"got {args.a!r}") from exc
    inst = EquationInstance(fld, args.n, fld.from_encoding(enc))
    return inst, {"schema": SCHEMA_VERSION, "command": args.command, "p": fld.p, "s": fld.s,
                  "q": fld.q, "n": inst.n, "a": inst.a.encoding, **extras}


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
# command handlers; each fills in the report main built and returns the exit
# code.  verify-all has no instance: it gets None and the report's first two
# fields.

def cmd_count(inst: EquationInstance, args, report: dict) -> int:
    if inst.a.is_zero():
        report.update(method="a_zero", total=str(sol_mod.yang_baxter_count(inst)))
    elif args.method == "closed":
        total = str(sol_mod.closed_form_count(inst).total)
        report.update(closed_form=total, method="closed_form", total=total)
    elif args.method == "brute":
        total = str(sol_mod.brute_force_count(inst, budget=args.budget))
        report.update(brute_force=total, method="brute_force", total=total)
    else:
        closed = str(sol_mod.closed_form_count(inst).total)
        brute = str(sol_mod.brute_force_count(inst, budget=args.budget))
        report.update(closed_form=closed, brute_force=brute, method="both",
                      agree=closed == brute, total=closed)
        return 0 if closed == brute else 1
    return 0


def cmd_enumerate(inst: EquationInstance, args, report: dict) -> int:
    if args.list:
        sols = sol_mod.brute_force_solutions(inst, budget=args.budget)
        report["total"] = str(len(sols))
        report["solutions"] = [x.text() for x in sols]
    else:
        report["total"] = str(sol_mod.brute_force_count(inst, budget=args.budget))
    return 0


def cmd_classify(inst: EquationInstance, args, report: dict) -> int:
    X = parse_matrix(inst.field, args.matrix)
    label = orb_mod.classify(inst, X)
    report.update({
        "matrix": X.text(),
        "label": label.text(),
        "rank": orb_mod.label_rank(inst, label),
        "orbit_size": str(orb_mod.orbit_size(inst, label)),
        "stabilizer_order": str(orb_mod.stabilizer_order(inst, label)),
    })
    return 0


def cmd_orbits(inst: EquationInstance, args, report: dict) -> int:
    records = orb_mod.list_orbits(inst)
    report["orbits"] = [r.to_json_dict() for r in records]
    report["total"] = str(sum(r.orbit_size for r in records))
    return 0


def cmd_smith(inst: EquationInstance, args, report: dict) -> int:
    X = parse_matrix(inst.field, args.matrix)
    sol_mod._check_shape(inst, X)
    factors = polyfq.invariant_factors(X)
    # only the minimal polynomial, the last factor, is factored
    cost = polyfq.factor_cost(inst.q, factors[-1].degree)
    budget = args.budget or polyfq.DEFAULT_FACTOR_BUDGET
    if cost > budget:
        raise BudgetExceededError(cost, budget, "factoring the minimal polynomial",
                                  "field multiplications")
    report.update({
        "matrix": X.text(),
        "invariant_factors": [h.text() for h in factors],
        "elementary_divisors": [g.text() for g in polyfq._divisors_of_factors(factors)],
        "rational_canonical_form": polyfq._rcf_of_factors(X.field, factors).text(),
    })
    return 0


def cmd_invariants(inst: EquationInstance, args, report: dict) -> int:
    inst.require_nonzero_a()  # an input error at every n, before the size refusal
    # n+1 image points of n coordinates each
    entries = (inst.n + 1) * inst.n
    if entries > sol_mod.LIST_LIMIT:
        raise BudgetExceededError(entries, sol_mod.LIST_LIMIT, "image point report",
                                  "coordinate entries")
    sep = inv_mod.separation_report(inst, with_minimal_subsets=args.minimal_subsets)
    report["image_points"] = [list(row) for row in sep.points]
    report.update(sep.to_json_dict())
    return 0


def cmd_ideal(inst: EquationInstance, args, report: dict) -> int:
    inst.require_nonzero_a()  # an input error at every n, before the size refusal
    # C(n+1, 2) generators, each with at least one exponent vector of n entries
    entries = comb(inst.n + 1, 2) * inst.n
    if entries > sol_mod.LIST_LIMIT:
        raise BudgetExceededError(entries, sol_mod.LIST_LIMIT, "generator report",
                                  "exponent entries")
    gens, check = ideal_mod._serialized(
        inst, verify=args.verify, budget=args.budget or ideal_mod.DEFAULT_VARIETY_BUDGET)
    report["generator_count"] = len(gens)
    report["generators"] = gens
    if check is None:
        return 0
    report["variety"] = [list(pt) for pt in check.points]
    report["verdict"] = check.equal
    return 0 if check.equal else 1


# ---------------------------------------------------------------------------
# verify-all: the cross-verification sweep of verify.py, one line per check.

def cmd_verify_all(inst, args, report: dict) -> int:
    names = list(CHECKS)
    if args.only:
        unknown = [n for n in args.only if n not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; available: {names}")
        names = [n for n in names if n in args.only]
    results = []
    lines_to = sys.stdout if args.output == "table" else sys.stderr
    seen = set()
    for name in names:
        try:
            ok, detail = CHECKS[name](args.budget)
            status, message = "PASS" if ok else "FAIL", detail
        except BudgetExceededError as exc:  # the sweep goes on past a refusal
            ok, status, message, detail = False, "REFUSED", exc, f"refused: {exc}"
        seen.add(status)
        results.append({"name": name, "ok": ok, "detail": detail})
        print(f"{status}  {name}: {message}", file=lines_to)
    report.update(checks=results, all_ok=seen <= {"PASS"})
    return 1 if "FAIL" in seen else 2 if "REFUSED" in seen else 0


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
        if args.command == "verify-all":
            inst, report = None, {"schema": SCHEMA_VERSION, "command": args.command}
        else:
            inst, report = _build_instance(args)
        code = args.handler(inst, args, report)
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
    if args.output == "json":
        print(json.dumps(report, indent=2))
    else:
        _print_table(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
