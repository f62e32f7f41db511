"""The solution set of X^2 = aX in M(n, q) for a scalar matrix A = a*I.

For a != 0 this equation carves out the same set as the parameter-independent
Yang-Baxter equation A X A = X A X.  The module exposes the membership
predicate, an exhaustive enumeration oracle over the canonical matrix index,
and the exact closed-form count.  The oracle fixes the entries of X in hook
order on the prefix-pruned scan of scan.py, each at its place value in the
canonical index, and tests each entry equation as soon as the row and column
it reads are fixed, so a prefix that already fails is never extended; its
budget still counts all q^(n^2) matrices.  The degenerate case a = 0 is
routed explicitly instead of being folded into the general formula.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import scan
from .errors import BudgetExceededError
from .gf import Field, FieldElement, exact_div
from .matfq import Matrix, _from_encodings, gl_order

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
    """The closed-form solution count."""

    total: int


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


# ---------------------------------------------------------------------------
# Exhaustive enumeration oracle, in hook order.
#
# Entry (i, j) of X*X - a*X reads only row i and column j of X.  The scan
# fixes the entries hook by hook, hook t being (t, t), then the rest of row t,
# then the rest of column t.  Once the row part of hook t is fixed, so are
# row t and columns 0..t-1, and the entries (t, j) with j < t are tested;
# once the column part is fixed, the entries (i, t) with i <= t are.  A prefix
# that fails one of them fails it in every completion, so scan.pruned never
# extends it, and each of the q^(n^2) matrices is decided by the same n^2
# entry equations as X*X == a*X.  Entry (i, j) is added at its place value
# q^(i*n+j), so the scan's indices are already canonical.

def _hook_order(n: int) -> tuple[list[tuple[int, int]], dict[int, list[tuple[int, int]]]]:
    """The entries of X in scan order, and the entries tested at each depth."""
    order: list[tuple[int, int]] = []
    tests: dict[int, list[tuple[int, int]]] = {}
    for t in range(n):
        order += [(t, t)] + [(t, j) for j in range(t + 1, n)]
        tests.setdefault(len(order), []).extend((t, j) for j in range(t))
        order += [(i, t) for i in range(t + 1, n)]
        tests.setdefault(len(order), []).extend((i, t) for i in range(t + 1))
    return order, tests


def _hook_scan(inst: EquationInstance, budget: int | None) -> np.ndarray:
    """The canonical indices of the solutions, ascending.

    The budget still counts all q^(n^2) matrices, checked before any table is
    built."""
    inst.require_nonzero_a()
    n = inst.n
    tabs = scan.gate(inst.field, n * n,
                     DEFAULT_SCAN_BUDGET if budget is None else budget, "matrix enumeration")
    q = tabs.q
    mul_a = tabs.mul(inst.a.encoding, np.arange(q, dtype=np.int64))
    order, tests = _hook_order(n)
    # each equation as the place values of its row and of its column, and the
    # position of its entry in its row
    eqs = {depth: [([q ** (i * n + k) for k in range(n)], [q ** (k * n + j) for k in range(n)], j)
                   for i, j in entries] for depth, entries in tests.items()}

    def prune(depth: int, idx: np.ndarray) -> np.ndarray:
        for row, col, j in eqs.get(depth, ()):
            x = [idx // w % q for w in row]
            ok = reduce(tabs.add, map(tabs.mul, x, [idx // w % q for w in col])) == mul_a[x[j]]
            if not ok.all():
                idx = idx[ok]
        return idx

    return scan.pruned(q, [q ** (i * n + j) for i, j in order], prune)


def brute_force_count(inst: EquationInstance, *, budget: int | None = None) -> int:
    """Count the solutions by deciding every one of the q^(n^2) matrices."""
    return len(_hook_scan(inst, budget))


def brute_force_indices(inst: EquationInstance, *,
                        budget: int | None = None) -> list[int]:
    """Canonical indices of all solutions, ascending.

    Refuses when the search space exceeds the budget, or when there are more
    than LIST_LIMIT solutions."""
    idx = _hook_scan(inst, budget)
    if len(idx) > LIST_LIMIT:
        raise BudgetExceededError(len(idx), LIST_LIMIT, "solution list")
    return idx.tolist()


def brute_force_solutions(inst: EquationInstance, *,
                          budget: int | None = None) -> list[Matrix]:
    """All solutions, in ascending canonical-index order.

    Refuses when the search space exceeds the budget, or when there are more
    than LIST_LIMIT solutions."""
    idx = np.array(brute_force_indices(inst, budget=budget), dtype=np.int64)
    return _matrices_of(inst.field, inst.n, idx)


def _matrices_of(field: Field, n: int, idx: np.ndarray) -> list[Matrix]:
    """The n x n matrices of an index array, from one decode of its digits."""
    rows = range(0, n * n, n)
    return [_from_encodings(field, [d[i:i + n] for i in rows])
            for d in scan.decode(field.q, n * n, idx).T.tolist()]


# ---------------------------------------------------------------------------

def require_printable(q: int, exponent: int, factor: int, what: str) -> None:
    """Refuse, before computing it, a result below factor * q^exponent that
    may have more decimal digits than str() converts
    (sys.get_int_max_str_digits(), 0 for no limit).

    The bounds in use: |GL(m, q)| < q^(m^2), and every orbit size and the
    count are below 12(n+1) q^floor(n^2/2), since an orbit size is
    q^(2k(n-k)) times a ratio of products prod_i (1 - q^-i) > 0.2887."""
    limit = sys.get_int_max_str_digits()
    log10 = exponent * math.log10(q) + math.log10(factor)
    if limit and log10 >= limit:
        raise BudgetExceededError(int(log10) + 1, limit, what, "decimal digits")


def closed_form_count(inst: EquationInstance) -> CountReport:
    """The exact solution count, without enumeration.

    The count is 2 plus the sizes of the nonzero singular orbits, each an
    exact ratio of GL orders, twice over for k != n/2 (b = 0 and b = a);
    every division is asserted exact.  For n = 1 the sum is empty, leaving
    the two solutions 0 and a.  Requires a != 0."""
    inst.require_nonzero_a()
    n, q = inst.n, inst.q
    require_printable(q, n * n // 2, 12 * (n + 1), "the solution count")
    gl_n = gl_order(n, q)
    total = 2 + sum((1 if 2 * k == n else 2)
                    * exact_div(gl_n, gl_order(n - k, q) * gl_order(k, q))
                    for k in range(1, n // 2 + 1))
    return CountReport(total)


def yang_baxter_count(inst: EquationInstance) -> int:
    """Solution count of A X A = X A X when a = 0: every matrix qualifies.

    This is NOT the count for X^2 = aX; callers with a != 0 are directed to
    closed_form_count."""
    if not inst.a.is_zero():
        raise ValueError("a != 0: use closed_form_count (or the brute-force scan)")
    require_printable(inst.q, inst.n * inst.n, 1, "the solution count")
    return inst.search_space()
