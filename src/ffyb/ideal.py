"""Quadratic generators whose variety is exactly the orbit image points.

For 1 <= i <= k <= n the generator g_{k,i} is

    x_i x_k - sum_{m=k}^{min(n, i+k)} C(m,k) C(k,m-i) a^(i+k-m) x_m,

C(n+1, 2) polynomials of total degree 2, computed inside the field so that
characteristic-p collapses happen naturally.  Each g_{k,i} is x_i x_k plus a
linear form on x_k..x_n, and that form is unique: g_{k,i} must vanish at
every image point (coordinates C(j,t) a^t, j = 0..n).  The points j < k zero
every term; the points j = k..n give a triangular system in the form's
coefficients with diagonal a^j.  The integer identity
C(j,i) C(j,k) = sum_m C(j,m) C(m,k) C(k,m-i) solves the system over Z, so
the formula solves it in every characteristic.

The variety is the independent oracle for the claim that it equals the n+1
image points, and it decides every one of the q^n points by evaluating the
generators.  It runs on integer encodings: _generator_terms builds the
g_{k,i} once as encoded terms (a coefficient encoding and the variables the
term multiplies, grouped by scan layer), generating_set wraps them in
MultiPolys, and the ideal command serializes them.  The scan extends prefixes
(scan.pruned) with the variables fixed from x_n down, each at its place
value in the point encoding, so a prefix of length t fixes x_n..x_{n-t+1}.
Each generator sits in the layer where the lowest-index variable it reads
is fixed, and is tested on the prefixes of that length; since g_{k,i}
reads only x_i..x_n, g_{n,n} = x_n^2 - a^n x_n already rules out all but
two values of x_n.  A layer is tested in blocks of generators, each about
scan.CHUNK values wide in one batched step: the block decodes only the
digits it reads, forms its terms with one table gather per degree,
applies the coefficients over a (terms x generators) grid padded with zero
coefficients, and sums the grid pairwise in log2(width) add-table gathers.
A prefix on which a generator of the block is nonzero is dropped
unextended, and that is exact: the generator reads only prefix variables,
so it is nonzero at every completion of the prefix.
The survivors are point encodings, ascending, as the scan returns them.
verify_variety compares them with the encoded image points, and builds no
FieldElement.  _common_zeros takes any polynomials as encoded terms; the
property tests run it on arbitrary sets, through tests/support.py.  The
budget still counts all q^n points, and scan.gate checks it before any
table is built; more than 2^63 - 1 points are refused whatever the budget.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from math import comb

import numpy as np

from . import scan
from .errors import InternalInvariantError
from .gf import Field, FieldElement
from .invariants import _image_encodings
from .solutions import EquationInstance

DEFAULT_VARIETY_BUDGET = 10**7


class MultiPoly:
    """A sparse multivariate polynomial over a Field.

    Terms map exponent vectors to nonzero coefficients; the canonical term
    order for printing and serialization is graded lexicographic with
    x1 > x2 > ... > xn, leading term first."""

    __slots__ = ("field", "n_vars", "terms")

    def __init__(self, field: Field, n_vars: int, terms: dict):
        clean = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != n_vars or min(exps, default=0) < 0:
                raise ValueError(f"bad exponent vector {exps} for {n_vars} variables")
            if not c.is_zero():
                clean[exps] = c
        self.field = field
        self.n_vars = n_vars
        self.terms = clean

    def sorted_terms(self) -> list[tuple[tuple[int, ...], FieldElement]]:
        # graded lexicographic with x1 > x2 > ...; larger key = larger monomial
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.field == other.field and self.n_vars == other.n_vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items()),
                     self.field.p, self.field.modulus))

    def to_pairs(self) -> list[list]:
        """Serialized form: [[exponent vector, coefficient encoding], ...]."""
        return [[list(e), c.encoding] for e, c in self.sorted_terms()]

    def __repr__(self):
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                            for i, e in enumerate(exps) if e)
            bits.append(f"{c.encoding}" + (f"*{mono}" if mono else ""))
        return " + ".join(bits) if bits else "0"


@dataclass(frozen=True)
class GeneratorSet:
    """The C(n+1, 2) quadratic generators for n variables."""

    n: int
    a: FieldElement
    generators: tuple[MultiPoly, ...]


def _generator_terms(inst: EquationInstance, n: int):
    """The g_{k,i} of the module docstring in n >= 2 variables as encoded
    terms, in scan layers: layer n-i+1 holds g_{i,i}, g_{i+1,i}, ..., g_{n,i}.
    Each generator's terms are x_i x_k, then x_m for m = k..min(n, i+k)
    wherever C(m,k) C(k,m-i) is nonzero in the field.

    Encoded terms are (rows, ends, widths) for some nonzero polynomials,
    ordered by the layer where the scan tests them.  Row (g, j, t, c, f_1,
    ..., f_d) is term j of polynomial g, in layer t: coefficient encoding c
    times one factor x_v for each f = n+1-v, the scan digit of x_v plus 1,
    padded with 0 to the largest degree, at least 1.  Layer t holds
    polynomials ends[t]..ends[t+1]-1, with at most widths[t] terms each."""
    inst.require_nonzero_a()
    if n < 2:
        raise ValueError("generating set requires n >= 2")
    fld = inst.field
    p, mul = fld.p, fld._mul
    neg_powers = [p - 1]  # encodings of -a^0..-a^n
    for _ in range(n):
        neg_powers.append(mul(neg_powers[-1], inst.a.encoding))
    binom = [[1] + [0] * n]  # C(m, k) mod p
    for m in range(1, n + 1):
        prev = binom[-1]
        binom.append([1] + [(prev[k - 1] + prev[k]) % p for k in range(1, n + 1)])
    # per k, the m >= k with C(m, k) nonzero mod p, and C(m, k)
    nonzero = [[(m, binom[m][k]) for m in range(k, n + 1) if binom[m][k]]
               for k in range(n + 1)]
    rows, ends, widths = [], [0, 0], [0]  # rows flat; layer 0 is empty
    for t in range(1, n + 1):
        i = n + 1 - t
        widths.append(0)
        for g in range(ends[t], ends[t] + t):
            k = i + g - ends[t]
            rows += (g, 0, t, 1, n + 1 - i, n + 1 - k)
            j = 1
            for m, b in nonzero[k]:
                if m > i + k:
                    break
                c = b * binom[k][m - i] % p
                if c:
                    rows += (g, j, t, mul(c, neg_powers[i + k - m]), n + 1 - m, 0)
                    j += 1
            widths[t] = max(widths[t], j)
        ends.append(ends[t] + t)
    rows = np.array(rows).reshape(-1, 6)
    if ends[-1] != comb(n + 1, 2):
        raise InternalInvariantError("generator count is off")
    if rows.shape[1] - 4 > 2:
        raise InternalInvariantError("generator of degree > 2")
    return rows, ends, widths


def _exponent_terms(terms, n: int) -> list[dict]:
    """The polynomials of the g_{k,i}'s encoded terms as {exponent vector:
    coefficient encoding}, ordered (2,2), (2,1), (1,1), then for k = 3..n the
    pairs (k,k), (k,k-1), ..., (k,1)."""
    rows, ends, _ = terms
    polys = [{} for _ in range(ends[-1])]
    for g, _, _, c, *fs in rows.tolist():
        exps = [0] * n
        for f in fs:
            if f:
                exps[n - f] += 1
        polys[g][tuple(exps)] = c
    pairs = [(2, 2), (2, 1), (1, 1)] + [(k, i) for k in range(3, n + 1)
                                        for i in range(k, 0, -1)]
    return [polys[ends[n + 1 - i] + k - i] for k, i in pairs]


def generating_set(inst: EquationInstance, n: int | None = None) -> GeneratorSet:
    """The quadratic generating set in n >= 2 variables, as MultiPolys in
    the order of _exponent_terms."""
    n = inst.n if n is None else n
    fld = inst.field
    return GeneratorSet(n, inst.a, tuple(
        MultiPoly(fld, n, {e: FieldElement(fld, c) for e, c in poly.items()})
        for poly in _exponent_terms(_generator_terms(inst, n), n)))


# ---------------------------------------------------------------------------
# Prefix-pruned variety scan.
#
# Point encoding: index = sum of enc(x_i) * q^(i-1).  The scan fixes the
# variables from x_n down, so its digit t is x_{n-t}, with place value
# q^(n-1-t), and the points whose last t coordinates are fixed share a prefix
# index, a multiple of q^(n-t).

def _common_zeros(terms, n: int, field: Field, budget: int) -> np.ndarray:
    """The point indices, ascending, where all the polynomials given as
    encoded terms vanish."""
    tabs = scan.gate(field, n, budget, "variety scan")
    q, add, mul = tabs.q, tabs.add, tabs.mul
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)[:, None]  # place of each digit
    rows, ends, widths = terms
    widths = [1 << (w - 1).bit_length() for w in widths]  # the sums pair halves
    g, j, layer, fac = rows[:, 0], rows[:, 1], rows[:, 2, None], rows[:, 4:]
    # reads[t, f] marks what layer t decodes: scan digit f-1 for a factor f,
    # and a row of ones for the padding 0 of a term of lower degree.  The
    # layer's stack holds these rows in order, so a factor f is row
    # reads[t, :f].sum().
    reads = np.zeros((n + 1, n + 1), dtype=bool)
    reads[layer, fac] = True
    # the (width x polynomials x degree) grid of each factor's row in its
    # layer's stack, and the grid of coefficients, both padded with zero
    # coefficients
    rgrid = np.zeros((max(widths), ends[-1], fac.shape[1]), dtype=np.int64)
    rgrid[j, g] = (reads.cumsum(axis=1) - 1)[layer, fac]
    cgrid = np.zeros(rgrid.shape[:2] + (1,), dtype=np.int64)
    cgrid[j, g, 0] = rows[:, 3]

    def block(t: int, g0: int, g1: int):
        # the powers that decode the digits a block reads, whether it reads
        # the row of ones, and per degree the (width x block) grid of rows
        # into its stack; a block that is only part of its layer reads
        # fewer digits, and decodes only those
        read, grid = reads[t], rgrid[:widths[t], g0:g1]
        if g1 - g0 < ends[t + 1] - ends[t]:
            cols = np.flatnonzero(read)[grid]
            read = np.zeros(n + 1, dtype=bool)
            read[cols] = True
            grid = (read.cumsum() - 1)[cols]
        return (powers[read[1:]], bool(read[0]), [grid[..., d] for d in range(grid.shape[2])],
                cgrid[:widths[t], g0:g1])

    def prune(t: int, idx: np.ndarray) -> np.ndarray:
        g0, end = ends[t], ends[t + 1]
        while g0 < end and len(idx):
            g1 = min(end, g0 + max(1, scan.CHUNK // (len(idx) * widths[t])))
            pw, ones, factor_rows, coef = block(t, g0, g1)
            # in place where possible: at full depth idx holds a whole chunk
            stack = np.empty((ones + len(pw), len(idx)), dtype=np.int64)
            np.floor_divide(idx, pw, out=stack[ones:])
            stack[ones:] %= q
            stack[:ones] = 1
            vals = stack[factor_rows[0]]
            for r in factor_rows[1:]:
                vals = mul(vals, stack[r])
            del stack
            vals = mul(coef, vals)
            while len(vals) > 1:  # pairwise sums of the halves
                h = len(vals) // 2
                vals = add(vals[:h], vals[h:])
            idx = idx[~vals[0].any(axis=0)]
            g0 = g1
        return idx

    return scan.pruned(q, powers[:, 0].tolist(), prune)


@dataclass(frozen=True)
class VarietyCheck:
    """Outcome of comparing the scanned variety with the orbit image."""

    variety_size: int
    image_size: int
    equal: bool
    # the scanned variety, each point as its coordinate encodings
    points: tuple = dc_field(default=(), compare=False, repr=False)


def verify_variety(inst: EquationInstance, *,
                   budget: int = DEFAULT_VARIETY_BUDGET) -> VarietyCheck:
    """Scan the variety of the generating set and compare it, as a set, with
    the n+1 orbit image points."""
    return _check(inst, _generator_terms(inst, inst.n), budget)


def _check(inst: EquationInstance, terms, budget: int) -> VarietyCheck:
    """verify_variety on the generators' encoded terms."""
    n, q = inst.n, inst.q
    idx = _common_zeros(terms, n, inst.field, budget)
    # the image points are pairwise distinct, or _image_encodings raises
    weights = [q**i for i in range(n)]
    img = sorted(sum(map(operator.mul, row, weights)) for row in _image_encodings(inst))
    return VarietyCheck(
        variety_size=len(idx), image_size=len(img),
        equal=idx.tolist() == img,
        points=tuple(map(tuple, scan.decode(q, n, idx).T.tolist())),
    )


def _serialized(inst: EquationInstance, *, verify: bool, budget: int):
    """From one encoded build: the generators as MultiPoly.to_pairs gives
    them, in generating_set's order, and with verify the variety check."""
    terms = _generator_terms(inst, inst.n)
    # the builder gives each generator's terms in descending graded-lex order
    pairs = [[[list(e), c] for e, c in poly.items()]
             for poly in _exponent_terms(terms, inst.n)]
    return pairs, _check(inst, terms, budget) if verify else None
