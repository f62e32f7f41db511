"""The solution set of X^2 = aX in M(n, q) for a scalar matrix A = a*I.

For a != 0 this equation carves out the same set as the parameter-independent
Yang-Baxter equation A X A = X A X.  The module exposes the membership
predicate, an exhaustive enumeration oracle over the canonical matrix index
(partitionable into disjoint ranges, run on the chunked scanner of scan.py),
and the exact closed-form count.  The degenerate cases a = 0 and n = 1 are
routed explicitly instead of being folded into the general formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import scan
from .errors import BudgetExceededError
from .gf import Field, FieldElement, exact_div, make_field
from .matfq import Matrix, gl_order, matrix_from_index

DEFAULT_SCAN_BUDGET = 10**8
LIST_LIMIT = 10**6


@dataclass(frozen=True)
class EquationInstance:
    """One equation X^2 = aX: an ambient field, a matrix size and the scalar a."""

    field: Field
    n: int
    a: FieldElement

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size n must be >= 1")
        if self.a.field != self.field:
            raise ValueError("scalar a must belong to the instance field")

    @property
    def q(self) -> int:
        return self.field.q

    def search_space(self) -> int:
        return self.q ** (self.n * self.n)

    def require_nonzero_a(self) -> None:
        if self.a.is_zero():
            raise ValueError("a = 0: every matrix satisfies A X A = X A X; "
                             "use yang_baxter_count")


@dataclass
class CountReport:
    """A solution count together with how it was obtained."""

    n: int
    q: int
    a_encoding: int
    total: int
    method: str  # "closed_form" | "brute_force" | "orbit_sum"
    per_orbit: tuple[tuple[str, int], ...] = dc_field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        out = {
            "n": self.n,
            "q": self.q,
            "a": self.a_encoding,
            "total": str(self.total),
            "method": self.method,
        }
        if self.per_orbit:
            out["per_orbit"] = [[label, str(size)] for label, size in self.per_orbit]
        return out


def _check_shape(inst: EquationInstance, X: Matrix) -> None:
    if X.field != inst.field:
        raise ValueError("matrix field differs from instance field")
    if not (X.n_rows == X.n_cols == inst.n):
        raise ValueError(f"expected a {inst.n}x{inst.n} matrix")


def is_solution(inst: EquationInstance, X: Matrix) -> bool:
    """True iff X*X = a*X.  Requires a != 0 (a = 0 is handled separately)."""
    _check_shape(inst, X)
    inst.require_nonzero_a()
    return X * X == X * inst.a


def satisfies_yang_baxter(inst: EquationInstance, X: Matrix) -> bool:
    """True iff A X A = X A X with A = a*I; defined for every a including 0."""
    _check_shape(inst, X)
    a = inst.a
    return X * (a * a) == (X * X) * a


# ---------------------------------------------------------------------------
# Exhaustive enumeration oracle.
#
# The scan runs over matrix indices on the shared chunked scanner: each entry
# of X*X and a*X is compared in turn and the matrices that fail it leave the
# chunk.  A range (start, stop) is a pure function of (p, s, n, a_enc), so
# disjoint ranges merge by concatenation.

def _scan_range(p: int, s: int, n: int, a_enc: int, start: int, stop: int,
                collect: bool, budget: int | None = None) -> tuple[int, list[int]]:
    tabs = scan.Tables(make_field(p, s), budget)
    q = tabs.q
    mul_a = tabs.mul[a_enc * q:(a_enc + 1) * q]
    count = 0
    hits: list[int] = []
    for idx, x in scan.chunks(q, n * n, start, stop):
        for t in range(n * n):
            i, j = divmod(t, n)
            lhs = tabs.dot(x[i * n:(i + 1) * n], x[j::n])
            idx, x = scan.keep(lhs == mul_a[x[t]], idx, x)
            if not len(idx):
                break
        count += len(idx)
        if collect:
            hits.extend(idx.tolist())
    return count, hits


def _run_scan(inst: EquationInstance, collect: bool,
              budget: int | None) -> tuple[int, list[int]]:
    inst.require_nonzero_a()
    space = inst.search_space()
    limit = DEFAULT_SCAN_BUDGET if budget is None else budget
    if space > limit:
        raise BudgetExceededError(space, limit, "matrix enumeration")
    fld = inst.field
    return _scan_range(fld.p, fld.s, inst.n, inst.a.encoding, 0, space, collect, limit)


def brute_force_count(inst: EquationInstance, *, budget: int | None = None) -> int:
    """Count the solutions by scanning all q^(n^2) matrices."""
    return _run_scan(inst, False, budget)[0]


def brute_force_indices(inst: EquationInstance, *,
                        budget: int | None = None) -> list[int]:
    """Canonical indices of all solutions, ascending.

    Refuses when the search space exceeds the budget or the list cap."""
    limit = min(LIST_LIMIT, DEFAULT_SCAN_BUDGET if budget is None else budget)
    return _run_scan(inst, True, limit)[1]


def brute_force_solutions(inst: EquationInstance, *,
                          budget: int | None = None) -> list[Matrix]:
    """All solutions, in ascending canonical-index order.

    Refuses when the search space exceeds the budget or the list cap."""
    return [matrix_from_index(inst.field, inst.n, i)
            for i in brute_force_indices(inst, budget=budget)]


# ---------------------------------------------------------------------------

def closed_form_count(inst: EquationInstance) -> CountReport:
    """The exact solution count, without enumeration.

    For n >= 2 the count is 2 plus the sizes of the nonzero singular orbits,
    each an exact ratio of GL orders; every division is asserted exact.
    n = 1 has exactly the two solutions 0 and a.  Requires a != 0."""
    inst.require_nonzero_a()
    n, q = inst.n, inst.q
    if n == 1:
        total = 2
    else:
        m = n // 2
        gl_n = gl_order(n, q)
        total = 2
        if n % 2 == 0:
            total += exact_div(gl_n, gl_order(m, q) ** 2)
            for k in range(1, m):
                total += 2 * exact_div(gl_n, gl_order(n - k, q) * gl_order(k, q))
        else:
            for k in range(1, m + 1):
                total += 2 * exact_div(gl_n, gl_order(n - k, q) * gl_order(k, q))
    return CountReport(n=n, q=q, a_encoding=inst.a.encoding, total=total,
                       method="closed_form")


def yang_baxter_count(inst: EquationInstance) -> int:
    """Solution count of A X A = X A X when a = 0: every matrix qualifies.

    This is NOT the count for X^2 = aX; callers with a != 0 are directed to
    closed_form_count."""
    if not inst.a.is_zero():
        raise ValueError("a != 0: use closed_form_count (or the brute-force scan)")
    return inst.search_space()
