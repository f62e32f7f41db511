"""Separating conjugation invariants evaluated on the solution orbits.

The map sending an orbit to the signed characteristic-polynomial
coefficients of any member lands on n+1 distinct points of F_q^n: the zero
vector, plus for j = 1..n the point whose i-th coordinate is C(j,i)*a^i.
This module builds those image points from the formula and decides which
coordinate subsets still separate all orbits.

A subset separates iff projecting the image points onto it stays
injective, which one pass over the points decides.  The unique minimal
separating subset is the powers of p up to n, by Lucas's theorem.  The 2^n
sweep stays as its oracle: it reads, for each pair of image points, the
bitmask of the coordinates where the two differ, and a subset separates iff
it meets every such mask, so the sweep is a numpy pass over all 2^n subsets
per mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from .errors import BudgetExceededError, InternalInvariantError
from .solutions import EquationInstance

SUBSET_SWEEP_MAX_N = 20


@dataclass(frozen=True)
class SeparationReport:
    full_set_separates: bool
    trace_alone_separates: bool
    minimal_separating_subsets: tuple[tuple[int, ...], ...] | None = None
    # the image points decided from, each as its coordinate encodings
    points: tuple = dc_field(default=(), compare=False, repr=False)

    def to_json_dict(self) -> dict:
        out = {
            "full_set_separates": self.full_set_separates,
            "trace_alone_separates": self.trace_alone_separates,
        }
        if self.minimal_separating_subsets is not None:
            out["minimal_separating_subsets"] = [list(s)
                                                 for s in self.minimal_separating_subsets]
        return out


def _image_encodings(inst: EquationInstance) -> list[tuple[int, ...]]:
    """The coordinate encodings of the n+1 image points of the orbits,
    indexed by representative rank.

    Raises if any two coincide: with a != 0 they are always pairwise
    distinct, so a duplicate signals an implementation bug."""
    inst.require_nonzero_a()
    n, fld = inst.n, inst.field
    mul = fld._mul
    powers = [inst.a.encoding]  # encodings of a^1..a^n
    for _ in range(n - 1):
        powers.append(mul(powers[-1], powers[0]))
    rows, binom = [], [1]  # C(j, i) mod p, i = 0..j, by Pascal's rule
    for j in range(n + 1):
        rows.append((*map(mul, binom[1:], powers), *[0] * (n - j)))
        binom = [1, *[(x + y) % fld.p for x, y in zip(binom, binom[1:])], 1]
    if len(set(rows)) != n + 1:
        raise InternalInvariantError("image points are not pairwise distinct")
    return rows


def _difference_masks(rows: list[tuple[int, ...]]) -> set[int]:
    """For each pair of image points, the bitmask of the coordinates where
    they differ, bit i-1 standing for coordinate i.  A coordinate subset
    separates the orbits iff its bitmask meets every one of these masks."""
    return {sum(1 << i for i, (x, y) in enumerate(zip(r, s)) if x != y)
            for r, s in combinations(rows, 2)}


def _separates(rows: list[tuple[int, ...]], coords) -> bool:
    """Whether projecting the image points onto the 0-based coords is
    injective."""
    return len({tuple(row[i] for i in coords) for row in rows}) == len(rows)


def minimal_separating_subsets(inst: EquationInstance) -> list[tuple[int, ...]]:
    """[L], L = (1, p, p^2, ...) up to n: the unique minimal separating subset.

    Coordinate p^k of point j is C(j, p^k)*a^(p^k), by Lucas's theorem the
    k-th base-p digit of j times a nonzero scalar, so L separates.  Points
    j = 0 and j = p^k differ only at coordinate p^k, so every separating
    subset contains L."""
    inst.require_nonzero_a()
    n, p = inst.n, inst.field.p
    return [tuple(p**k for k in range(n.bit_length()) if p**k <= n)]


def _minimal_subsets(diffs: set[int], n: int) -> list[tuple[int, ...]]:
    """The inclusion-minimal subsets of 1..n whose bitmask meets every mask
    in diffs, ordered by size then lexicographically: the 2^n sweep that is
    the oracle of minimal_separating_subsets.

    Every subset of 1..n is a bitmask; one numpy pass per difference mask
    marks those that meet it, so the separating subsets are marked in
    O(2^n * n^2) array operations.  A subset is minimal when it separates
    and dropping any one coordinate does not, since a superset of a
    separating subset separates too.  Refused for n > 20, before any work."""
    if n > SUBSET_SWEEP_MAX_N:
        raise BudgetExceededError(2**n, 2**SUBSET_SWEEP_MAX_N, "subset sweep")
    masks = np.arange(1 << n, dtype=np.int32)
    separates = np.ones(1 << n, dtype=bool)
    for d in diffs:
        # a subset that meets a mask e inside d meets d too
        if not any(e != d and e & d == e for e in diffs):
            separates &= (masks & d) != 0
    minimal = separates.copy()
    for i in range(n):
        # the subsets holding coordinate i+1, each against its partner without it
        minimal.reshape(-1, 2, 1 << i)[:, 1] &= ~separates.reshape(-1, 2, 1 << i)[:, 0]
    subsets = [tuple(i + 1 for i in range(n) if m >> i & 1)
               for m in np.flatnonzero(minimal).tolist()]
    return sorted(subsets, key=lambda s: (len(s), s))


def separation_report(inst: EquationInstance, *,
                      with_minimal_subsets: bool = False) -> SeparationReport:
    """Full-set and trace separation by projecting one build of the image
    points, and the minimal separating subset in closed form."""
    rows = _image_encodings(inst)
    return SeparationReport(
        full_set_separates=_separates(rows, range(inst.n)),
        trace_alone_separates=_separates(rows, [0]),
        minimal_separating_subsets=(tuple(minimal_separating_subsets(inst))
                                    if with_minimal_subsets else None),
        points=tuple(rows),
    )
