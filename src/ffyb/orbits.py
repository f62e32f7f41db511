"""The n+1 conjugation orbits of the solution set.

Every solution is conjugate to exactly one block matrix b*I ⊕ (k copies of
Q(a)), Q(a) = [[0,1],[0,a]], with b in {0, a}; the extremes are the zero
matrix and a*I.  Orbits are labeled Zero, ScalarA or Mixed{k,b}, carry the
rank of their representative as a fingerprint, and their sizes follow from
the orbit-stabilizer formula with stabilizer order |GL(n-k,q)|*|GL(k,q)|.
Brute-force oracles cross-check the formulas at small sizes.  GL(n, q) and
each centralizer are the members of a span with nonzero batched determinant,
scanned by coefficient index: all matrices, or the commutant {P : P X = X P}
from a kernel basis of one elimination.  The orbits are the connected
components of conjugation by generators of GL(n, q), each applied as one
row and one column operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import permutations

import numpy as np

from . import scan
from .errors import InternalInvariantError
from .gf import Field, FieldElement, exact_div
from .matfq import Matrix, _echelon, _from_encodings, direct_sum, gl_order
from .solutions import (EquationInstance, _matrices_of, brute_force_indices, is_solution,
                        require_printable)

GL_SCAN_BUDGET = 10**6


@dataclass(frozen=True)
class OrbitLabel:
    """Symbolic orbit name: Zero, ScalarA, or Mixed{k,b} with b in {"0","a"}."""

    kind: str  # "zero" | "scalar_a" | "mixed"
    k: int = 0
    b: str = "0"

    def text(self) -> str:
        if self.kind == "zero":
            return "Zero"
        if self.kind == "scalar_a":
            return "ScalarA"
        return f"Mixed{{k={self.k},b={self.b}}}"

    def __str__(self):
        return self.text()


ZERO = OrbitLabel("zero")
SCALAR_A = OrbitLabel("scalar_a")


def mixed_label(n: int, k: int, b: str) -> OrbitLabel:
    """Normalized Mixed label: for even n the middle orbit (k = n/2) is the
    same matrix for either b and is tagged with b = "0"."""
    if b not in ("0", "a"):
        raise ValueError('b must be "0" or "a"')
    if not 1 <= k <= n // 2:
        raise ValueError(f"k = {k} out of range 1..{n // 2}")
    if n == 2 * k:
        b = "0"
    return OrbitLabel("mixed", k, b)


@dataclass(frozen=True)
class OrbitRecord:
    label: OrbitLabel
    representative: Matrix
    rank: int
    stabilizer_order: int
    orbit_size: int

    def to_json_dict(self) -> dict:
        return {
            "label": self.label.text(),
            "representative": self.representative.text(),
            "rank": self.rank,
            "stabilizer_order": str(self.stabilizer_order),
            "orbit_size": str(self.orbit_size),
        }


def block_solution(inst: EquationInstance, k: int, b: FieldElement) -> Matrix:
    """The block matrix b*I of size n-2k ⊕ k copies of Q(a)."""
    if not 0 <= 2 * k <= inst.n:
        raise ValueError(f"k = {k} out of range for n = {inst.n}")
    fld = inst.field
    blocks = [Matrix.scalar(fld, inst.n - 2 * k, b)] if inst.n > 2 * k else []
    blocks += [_from_encodings(fld, [[0, 1], [0, inst.a.encoding]])] * k
    return reduce(direct_sum, blocks)


def representative(inst: EquationInstance, label: OrbitLabel) -> Matrix:
    inst.require_nonzero_a()
    if label.kind == "zero":
        return Matrix.zeros(inst.field, inst.n)
    if label.kind == "scalar_a":
        return Matrix.scalar(inst.field, inst.n, inst.a)
    b = inst.field.zero() if label.b == "0" else inst.a
    return block_solution(inst, label.k, b)


def label_rank(inst: EquationInstance, label: OrbitLabel) -> int:
    if label.kind == "zero":
        return 0
    if label.kind == "scalar_a":
        return inst.n
    return label.k if label.b == "0" else inst.n - label.k


def stabilizer_order(inst: EquationInstance, label: OrbitLabel) -> int:
    """Order of the centralizer of the orbit representative in GL(n, q)."""
    inst.require_nonzero_a()
    n, q = inst.n, inst.q
    if label.kind in ("zero", "scalar_a"):
        require_printable(q, n * n, 1, "the stabilizer order")
        return gl_order(n, q)
    k = label.k
    require_printable(q, (n - k) ** 2 + k * k, 1, "the stabilizer order")
    return gl_order(n - k, q) * gl_order(k, q)


def orbit_size(inst: EquationInstance, label: OrbitLabel) -> int:
    n = inst.n
    require_printable(inst.q, n * n // 2, 12 * (n + 1), "the orbit size")
    return exact_div(gl_order(n, inst.q), stabilizer_order(inst, label))


def all_labels(n: int) -> list[OrbitLabel]:
    """The n+1 orbit labels in ascending representative rank."""
    labels = [ZERO]
    labels += [mixed_label(n, k, "0") for k in range(1, n // 2 + 1)]
    labels += [mixed_label(n, k, "a") for k in range((n - 1) // 2, 0, -1)]
    labels.append(SCALAR_A)
    return labels


def list_orbits(inst: EquationInstance) -> list[OrbitRecord]:
    """All n+1 orbits, one per rank 0..n, in ascending rank order."""
    inst.require_nonzero_a()
    require_printable(inst.q, inst.n * inst.n, 1, "the stabilizer order")
    out = []
    for label in all_labels(inst.n):
        out.append(OrbitRecord(
            label=label,
            representative=representative(inst, label),
            rank=label_rank(inst, label),
            stabilizer_order=stabilizer_order(inst, label),
            orbit_size=orbit_size(inst, label),
        ))
    return out


def classify(inst: EquationInstance, X: Matrix) -> OrbitLabel:
    """Orbit of a solution, read off its rank.

    A solution satisfies X(X - aI) = 0 with x and x-a coprime, so its
    elementary divisors are copies of x and x-a and the multiplicity of x-a
    equals the rank; that multiplicity determines the orbit."""
    if not is_solution(inst, X):
        raise ValueError("matrix is not a solution of X^2 = aX")
    r = X.rank()
    if r == 0:
        return ZERO
    if r == inst.n:
        return SCALAR_A
    if r <= inst.n // 2:
        return mixed_label(inst.n, r, "0")
    return mixed_label(inst.n, inst.n - r, "a")


# ---------------------------------------------------------------------------
# Brute-force oracles, on the scanner of scan.py.  None of them calls gl_order
# or the closed form they are checked against.

def _span_scan(tabs: scan.Tables, n: int, basis: np.ndarray, free: list[int]) -> np.ndarray:
    """Ascending indices sum_b c_b q^b of the coefficient vectors whose member
    sum_b c_b basis[b] is invertible.  Row b of the (d, n*n) digit array basis
    alone is nonzero at entry free[b], where it is 1.  The q^d indices are
    scanned in chunks and tested at full depth: entry free[b] of the members
    is c_b, the others take one mul and one add gather per basis vector, and
    a member is kept where its batched determinant is nonzero."""
    q, add, mul = tabs.q, tabs.add, tabs.mul
    rest = sorted(set(range(n * n)) - set(free))
    terms = basis[:, rest, None]

    def prune(t: int, idx: np.ndarray) -> np.ndarray:
        if t < len(basis):
            return idx
        mats = c = scan.decode(q, len(basis), idx)
        if rest:  # else free is every entry, ascending, and the members are c
            mats = np.zeros((n * n, len(idx)), dtype=np.int64)
            mats[free] = c
            mats[rest] = reduce(lambda acc, cv: add[acc * q + mul[cv[0] * q + cv[1]]],
                                zip(c, terms), 0)
        return idx[tabs.det(n, mats) != 0]

    return scan.pruned(q, [q**t for t in range(len(basis))], prune)


def _gl_scan(field: Field, n: int, budget: int) -> np.ndarray:
    """Ascending indices of the invertible n x n matrices: the span scan of
    the unit basis, whose coefficient indices are the matrix indices."""
    tabs = scan.gate(field, n * n, budget, "GL enumeration")
    return _span_scan(tabs, n, np.eye(n * n, dtype=np.int64), list(range(n * n)))


def enumerate_gl(field: Field, n: int, *, budget: int = GL_SCAN_BUDGET) -> list[Matrix]:
    """All invertible n x n matrices, by scanning every matrix index."""
    return _matrices_of(field, n, _gl_scan(field, n, budget))


def _conjugators(fld: Field, n: int) -> np.ndarray:
    """Generators P of GL(n, q), column (i, j, u, v, w, z) each: X -> P X P^-1
    sets row i to u*row i + v*row j, then column j to w*column j + z*column i.
    The transvections I + x^t E_ij (i != j, t < s; p^t encodes x^t) are
    (i, j, 1, x^t, 1, -x^t), the dilations diag(d, 1, ..., 1), d = 2..q-1,
    are (0, 0, d, 0, 1/d, 0)."""
    ops = [(i, j, 1, fld.p**t, 1, fld._mul(fld.p - 1, fld.p**t))
           for i, j in permutations(range(n), 2) for t in range(fld.s)]
    ops += [(0, 0, d, 0, fld._inv(d), 0) for d in range(2, fld.q)]
    return np.array(ops, dtype=np.int64).reshape(-1, 6).T


def _conjugate(tabs: scan.Tables, n: int, gens: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (k, len(idx)) indices of P X P^-1, P the k generators of
    _conjugators, X the matrices of idx: only row i and column j change."""
    q, add, mul = tabs.q, tabs.add, tabs.mul
    i, j = gens[:2]
    u, v, w, z = gens[2:, :, None, None] * q
    x = scan.decode(q, n * n, idx).reshape(n, n, -1)
    row = add[mul[u + x[i]] * q + mul[v + x[j]]]
    t = np.arange(len(i))
    ci, cj = x[:, i].transpose(1, 0, 2), x[:, j].transpose(1, 0, 2)
    ci[t, i], cj[t, i] = row[t, i], row[t, j]  # entries (i, i) and (i, j) after the row step
    col = add[mul[w + cj] * q + mul[z + ci]]
    place = q ** np.arange(n * n, dtype=np.int64).reshape(n, n)
    return (idx + ((row - x[i]) * place[i][:, :, None]).sum(1)
            + ((col - cj) * place[:, j].T[:, :, None]).sum(1))


def _census(inst: EquationInstance, budget: int) -> list[np.ndarray]:
    """The conjugation orbits of the solution set, as index arrays.

    The transvections and dilations of _conjugators generate GL(n, q)
    (Taylor, The Geometry of the Classical Groups, 1992), so the orbits are
    the components of the graph joining each solution to its conjugates by
    them; each generator has finite order, so every component is strongly
    connected.  One pass conjugates about scan.CHUNK // k solutions at a time
    by all k generators and looks the images up among the solutions; one that
    is not a solution raises.  Min-label propagation with pointer jumping
    labels each solution with the least index of its component.  Too small a
    generator set could only split an orbit, which the size check against
    orbit_size would catch.  Classes ascend by smallest member index, members
    sorted by index."""
    inst.require_nonzero_a()
    fld, n = inst.field, inst.n
    sol = np.array(brute_force_indices(inst, budget=budget), dtype=np.int64)
    tabs = scan.Tables(fld, budget)
    gens = _conjugators(fld, n)
    k, m = gens.shape[1], len(sol)
    dst = np.empty((k, m), dtype=np.int32 if m < 2**31 else np.int64)
    step = max(1, scan.CHUNK // max(k, 1))
    for lo in range(0, m, step):
        images = _conjugate(tabs, n, gens, sol[lo:lo + step])
        dst[:, lo:lo + step] = pos = np.searchsorted(sol, images).clip(max=m - 1)
        if (sol[pos] != images).any():
            raise InternalInvariantError("a conjugate of a solution is not a solution")
    lab, prev = np.arange(m), -1
    while (lab != prev).any():
        prev = lab.copy()
        for g in range(k):
            np.minimum(lab, lab[dst[g]], out=lab)
        lab = lab[lab]
    del dst  # free its k*m entries before the classes are split out
    order = np.argsort(lab, kind="stable")
    return np.split(sol[order], np.flatnonzero(np.diff(lab[order])) + 1)


def brute_force_conjugacy_classes(inst: EquationInstance, *,
                                  budget: int = GL_SCAN_BUDGET) -> list[list[Matrix]]:
    """Partition of the solution set into conjugation orbits: the Matrix
    lists of _census's classes."""
    return [_matrices_of(inst.field, inst.n, c) for c in _census(inst, budget)]


def _commutant_basis(tabs: scan.Tables, X: Matrix) -> tuple[np.ndarray, list[int]]:
    """A basis of {P : P X = X P} as a (d, n*n) digit array, and its free
    entries.  _echelon reduces the n^2 equations P X - X P = 0; free column
    f gives the vector with P_f = 1, the other free entries 0 and each pivot
    entry minus its row's entry at f.  One batched product pair checks that
    every basis matrix commutes with X."""
    q, add, mul, n, p = tabs.q, tabs.add, tabs.mul, X.n_rows, X.field.p
    neg, one, x = mul[(p - 1) * q:p * q], np.eye(n, dtype=np.int64), np.array(X.enc)
    # row (i, j), column (a, b): [a = i] X_bj - [b = j] X_ia
    eqs = add[one[:, None, :, None] * x.T[None, :, None, :] * q
              + neg[x[:, None, :, None] * one[None, :, None, :]]]
    rows, rank, _ = _echelon(X.field, eqs.reshape(n * n, n * n).tolist())
    pivots = [r.index(next(filter(None, r))) for r in rows[:rank]]
    free = sorted(set(range(n * n)) - set(pivots))
    basis = np.eye(n * n, dtype=np.int64)[free]
    basis[:, pivots] = neg[np.array(rows[:rank], dtype=np.int64).reshape(rank, n * n)[:, free].T]

    def prod(a, b):  # batched products of (n, n, m) digit arrays
        return reduce(lambda s, t: add[s * q + t], mul[a[:, :, None] * q + b[None]].swapaxes(0, 1))

    mats, x = basis.T.reshape(n, n, -1), x[:, :, None]
    if (prod(mats, x) != prod(x, mats)).any():
        raise InternalInvariantError("a commutant basis matrix does not commute with X")
    return basis, free


def brute_force_centralizer_order(inst: EquationInstance, X: Matrix, *,
                                  budget: int = GL_SCAN_BUDGET) -> int:
    """Count the P in GL(n, q) commuting with X: the invertible members of
    its commutant, of dimension d >= n, one scan chunk at a time.  q^n is
    refused before the elimination and q^d before any member is formed."""
    if X.field != inst.field or not (X.n_rows == X.n_cols == inst.n):
        raise ValueError(f"expected a {inst.n}x{inst.n} matrix over the instance field")
    basis, free = _commutant_basis(scan.gate(inst.field, inst.n, budget, "centralizer"), X)
    return len(_span_scan(scan.gate(inst.field, len(free), budget, "centralizer"),
                          inst.n, basis, free))
