"""Separating conjugation invariants evaluated on the solution orbits.

The map sending an orbit to the signed characteristic-polynomial
coefficients of any member lands on n+1 distinct points of F_q^n: the zero
vector, plus for j = 1..n the point whose i-th coordinate is C(j,i)*a^i.
This module builds those image points from the formula and decides which
coordinate subsets still separate all orbits (including the 2^n sweep for
inclusion-minimal separating subsets).

All of these decisions read one set of bitmasks: for each pair of image
points, the coordinates where the two differ.  A subset separates iff it
meets every such mask, so the sweep is a numpy pass over all 2^n subsets
per mask and never projects a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BudgetExceededError, InternalInvariantError
from .gf import FieldElement
from .solutions import EquationInstance

SUBSET_SWEEP_MAX_N = 20


@dataclass(frozen=True)
class ImagePoint:
    """The invariant vector of the rank-j orbit: coordinates C(j,i)*a^i."""

    index: int
    coords: tuple[FieldElement, ...]


@dataclass(frozen=True)
class SeparationReport:
    full_set_separates: bool
    trace_alone_separates: bool
    minimal_separating_subsets: tuple[tuple[int, ...], ...] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "full_set_separates": self.full_set_separates,
            "trace_alone_separates": self.trace_alone_separates,
        }
        if self.minimal_separating_subsets is not None:
            out["minimal_separating_subsets"] = [list(s)
                                                 for s in self.minimal_separating_subsets]
        return out


def image_points(inst: EquationInstance) -> list[ImagePoint]:
    """The n+1 image points of the orbits, indexed by representative rank.

    Raises if any two coincide: with a != 0 they are always pairwise
    distinct, so a duplicate signals an implementation bug."""
    fld = inst.field
    return [ImagePoint(j, tuple(FieldElement(fld, c) for c in row))
            for j, row in enumerate(_image_encodings(inst))]


def _image_encodings(inst: EquationInstance) -> list[tuple[int, ...]]:
    """The coordinate encodings of the image points, as in image_points."""
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


def _difference_masks(inst: EquationInstance) -> set[int]:
    """For each pair of image points, the bitmask of the coordinates where
    they differ, bit i-1 standing for coordinate i.  A coordinate subset
    separates the orbits iff its bitmask meets every one of these masks."""
    return {sum(1 << i for i, (x, y) in enumerate(zip(r, s)) if x != y)
            for r, s in combinations(_image_encodings(inst), 2)}


def subset_separates(inst: EquationInstance, subset) -> bool:
    """True iff projecting the image points onto the 1-based coordinate
    subset stays injective, i.e. those invariants still separate all orbits."""
    idx = sorted(set(subset))
    if not idx:
        raise ValueError("subset must be nonempty")
    if idx[0] < 1 or idx[-1] > inst.n:
        raise ValueError(f"coordinate indices must lie in 1..{inst.n}")
    mask = sum(1 << (i - 1) for i in idx)
    return all(mask & d for d in _difference_masks(inst))


def trace_separates(inst: EquationInstance) -> bool:
    """Whether the trace (the first invariant) alone separates the orbits.

    Its n+1 orbit values are 0, a, 2a, ..., na, so this holds whenever the
    characteristic exceeds n."""
    return subset_separates(inst, [1])


def minimal_separating_subsets(inst: EquationInstance) -> list[tuple[int, ...]]:
    """All inclusion-minimal separating coordinate subsets, by 2^n sweep.

    Every subset of 1..n is a bitmask; one numpy pass per difference mask
    marks those that meet it, so the separating subsets are marked in
    O(2^n * n^2) array operations.  A subset is minimal when it separates
    and dropping any one coordinate does not, since a superset of a
    separating subset separates too.  Ordered by size then
    lexicographically.  Refused for n > 20, before any work."""
    _gate_sweep(inst.n)
    return _minimal_subsets(_difference_masks(inst), inst.n)


def _gate_sweep(n: int) -> None:
    if n > SUBSET_SWEEP_MAX_N:
        raise BudgetExceededError(2**n, 2**SUBSET_SWEEP_MAX_N, "subset sweep")


def _minimal_subsets(diffs: set[int], n: int) -> list[tuple[int, ...]]:
    """The inclusion-minimal subsets of 1..n whose bitmask meets every mask
    in diffs, ordered by size then lexicographically."""
    masks = np.arange(1 << n, dtype=np.int32)
    separates = np.ones(1 << n, dtype=bool)
    for d in diffs:
        # a subset that meets a mask e inside d meets d too
        if not any(e != d and e & d == e for e in diffs):
            separates &= (masks & d) != 0
    minimal = separates.copy()
    for i in range(n):
        minimal &= ~(((masks & (1 << i)) != 0) & separates[masks ^ (1 << i)])
    subsets = [tuple(i + 1 for i in range(n) if m >> i & 1)
               for m in np.flatnonzero(minimal).tolist()]
    return sorted(subsets, key=lambda s: (len(s), s))


def separation_report(inst: EquationInstance, *,
                      with_minimal_subsets: bool = False) -> SeparationReport:
    """Full-set, trace and minimal-subset separation from one mask build."""
    inst.require_nonzero_a()
    if with_minimal_subsets:
        _gate_sweep(inst.n)
    diffs = _difference_masks(inst)
    return SeparationReport(
        full_set_separates=all(diffs),  # each mask lies inside the full set
        trace_alone_separates=all(d & 1 for d in diffs),
        minimal_separating_subsets=(tuple(_minimal_subsets(diffs, inst.n))
                                    if with_minimal_subsets else None),
    )
