"""The cross-verification sweep behind `ffyb verify-all`.

Each check tests a claim of the paper against an independent oracle on
every nonzero a of fixed cases, and returns (ok, detail).  CHECKS maps each
name to a function of the budget, None meaning that oracle's default.  A
scanning check with no case within the budget runs its smallest case, so
that the oracle refuses it instead of the check passing on nothing.
"""

from __future__ import annotations

from . import ideal, invariants, orbits, polyfq, solutions
from .gf import make_field
from .solutions import EquationInstance

BRUTE_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1)]  # q <= 5


def _instances(n: int, p: int, s: int) -> list[EquationInstance]:
    """The instances X^2 = aX of size n over GF(p^s), one per nonzero a."""
    fld = make_field(p, s)
    return [EquationInstance(fld, n, fld.from_encoding(enc)) for enc in range(1, fld.q)]


def _default_brute_pairs(limit: int) -> list[tuple[int, int, int]]:
    """(n, p, s) with q <= 5, n <= 5 and search space within limit."""
    return [(n, p, s) for n in range(2, 6) for p, s in BRUTE_FIELDS
            if p**(s * n * n) <= limit]


def _check_counts(budget: int | None) -> tuple[bool, str]:
    budget = budget or solutions.DEFAULT_SCAN_BUDGET
    tried = []
    for n, p, s in (_default_brute_pairs(min(budget, solutions.DEFAULT_SCAN_BUDGET))
                    or [(2, 2, 1)]):
        counts = set()
        for inst in _instances(n, p, s):
            closed = solutions.closed_form_count(inst).total
            got = solutions.brute_force_count(inst, budget=budget)
            if got != closed:
                return False, (f"mismatch at n={n} q={inst.q} a={inst.a.encoding}: "
                               f"{got} != {closed}")
            counts.add(got)
        if len(counts) != 1:
            return False, f"count depends on a at n={n} q={inst.q}: {sorted(counts)}"
        tried.append(f"(n={n},q={inst.q}):{closed}")
    return True, "; ".join(tried)


def _check_orbit_census(budget: int | None) -> tuple[bool, str]:
    details = []
    for n, p, s in [(2, 2, 1), (2, 3, 1), (2, 2, 2), (2, 5, 1), (3, 2, 1)]:
        for inst in _instances(n, p, s):
            classes = orbits._census(inst, budget or orbits.GL_SCAN_BUDGET)
            if len(classes) != n + 1:
                return False, f"{len(classes)} classes at n={n} q={inst.q}, want {n + 1}"
            total = 0
            for cls in classes:
                rep = solutions._matrices_of(inst.field, n, cls[:1])[0]
                label = orbits.classify(inst, rep)
                want = orbits.orbit_size(inst, label)
                if len(cls) != want:
                    return False, (f"orbit {label.text()} has size {len(cls)}, "
                                   f"formula says {want}")
                total += len(cls)
            if total != solutions.closed_form_count(inst).total:
                return False, f"orbit sizes do not sum to the count at n={n} q={inst.q}"
        details.append(f"(n={n},q={inst.q})")
    return True, "classes and sizes match at " + ", ".join(details)


def _check_stabilizers(budget: int | None) -> tuple[bool, str]:
    for n, p, s in [(2, 2, 1), (2, 3, 1), (3, 2, 1)]:
        for inst in _instances(n, p, s):
            for rec in orbits.list_orbits(inst):
                got = orbits.brute_force_centralizer_order(
                    inst, rec.representative, budget=budget or orbits.GL_SCAN_BUDGET)
                if got != rec.stabilizer_order:
                    return False, (f"centralizer of {rec.label.text()} at n={n} "
                                   f"q={inst.q}: {got} != {rec.stabilizer_order}")
    return True, "centralizer counts match GL(n-k)xGL(k) orders"


def _check_elementary_divisors(budget: int | None) -> tuple[bool, str]:
    checked = 0
    for p, s in BRUTE_FIELDS:
        for n in range(2, 7):
            for inst in _instances(n, p, s):
                x = polyfq.UniPoly.x(inst.field)
                x_minus_a = x - polyfq.UniPoly.constant(inst.a)
                for k in range(1, n // 2 + 1):
                    for b in (inst.field.zero(), inst.a):
                        got = sorted(polyfq.elementary_divisors(
                            orbits.block_solution(inst, k, b)), key=polyfq.UniPoly.text)
                        lam = k if b.is_zero() else n - k
                        want = sorted([x] * (n - lam) + [x_minus_a] * lam,
                                      key=polyfq.UniPoly.text)
                        if got != want:
                            return False, (f"divisors off at n={n} q={inst.q} k={k} "
                                           f"b={'0' if b.is_zero() else 'a'}")
                        checked += 1
    return True, f"{checked} block matrices have the expected divisor multisets"


def _check_separation(budget: int | None) -> tuple[bool, str]:
    """Claim 2 at n <= 12: the image points, the full set, the trace rule
    both ways, and the closed-form minimal subset against the 2^n sweep."""
    for p, s in [*BRUTE_FIELDS, (7, 1), (2, 3), (3, 2)]:
        for n in range(1, 13):
            for inst in _instances(n, p, s):
                sep = invariants.separation_report(inst, with_minimal_subsets=True)
                at = f"n={n} q={inst.q} a={inst.a.encoding}"
                if len(sep.points) != n + 1:
                    return False, f"image has {len(sep.points)} points at {at}"
                if not sep.full_set_separates:
                    return False, f"full invariant set fails at {at}"
                if sep.trace_alone_separates != (p > n):
                    return False, f"trace alone separates: {not p > n}, want {p > n} at {at}"
                swept = tuple(invariants._minimal_subsets(
                    invariants._difference_masks(sep.points), n))
                if sep.minimal_separating_subsets != swept:
                    return False, (f"minimal subsets {sep.minimal_separating_subsets} "
                                   f"!= swept {swept} at {at}")
    return True, "n+1 distinct image points; full set separates; trace when p > n"


def _check_variety(budget: int | None) -> tuple[bool, str]:
    budget = budget or ideal.DEFAULT_VARIETY_BUDGET
    cases = [(n, p, s) for p, s in BRUTE_FIELDS for n in range(2, 7)
             if p**(s * n) <= min(budget, 10**6)]
    checked = 0
    for n, p, s in cases or [(2, 2, 1)]:
        for inst in _instances(n, p, s):
            check = ideal.verify_variety(inst, budget=budget)
            if not check.equal or check.variety_size != n + 1:
                return False, f"variety mismatch at n={n} q={inst.q} a={inst.a.encoding}"
            checked += 1
    return True, f"{checked} varieties equal their n+1 image points"


CHECKS = {
    "count-oracle": _check_counts,
    "orbit-census": _check_orbit_census,
    "stabilizers": _check_stabilizers,
    "elementary-divisors": _check_elementary_divisors,
    "separation": _check_separation,
    "variety": _check_variety,
}
