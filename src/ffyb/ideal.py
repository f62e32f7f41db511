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
generators.  It does so by extending prefixes (scan.pruned) with the
variables fixed from x_n down, so a prefix of length t fixes x_n..x_{n-t+1}.
Each generator sits in the layer where the lowest-index variable it reads is
fixed, and is tested on the prefixes of that length; since g_{k,i} reads
only x_i..x_n, g_{n,n} = x_n^2 - a^n x_n already rules out all but two
values of x_n.  A prefix on which a generator is nonzero is dropped
unextended, and that is exact: the generator reads only prefix variables,
so it is nonzero at every completion of the prefix.  The survivors are
mapped back to the point encoding and sorted.  The budget still counts all
q^n points, and is checked before any table is built; more than
scan.INDEX_LIMIT points are refused whatever the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import comb

import numpy as np

from . import scan
from .errors import BudgetExceededError, InternalInvariantError
from .gf import Field, FieldElement
from .invariants import image_points
from .solutions import EquationInstance

DEFAULT_VARIETY_BUDGET = 10**7


def _grlex_key(exps: tuple[int, ...]):
    # graded lexicographic with x1 > x2 > ...; larger key = larger monomial
    return (sum(exps), exps)


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

    @classmethod
    def monomial(cls, field: Field, n_vars: int, exps, coeff: FieldElement) -> "MultiPoly":
        return cls(field, n_vars, {tuple(exps): coeff})

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], FieldElement]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def evaluate(self, point) -> FieldElement:
        pt = list(point)
        if len(pt) != self.n_vars:
            raise ValueError(f"expected a point of length {self.n_vars}")
        acc = self.field.zero()
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(pt, exps):
                for _ in range(e):
                    term = term * x
            acc = acc + term
        return acc

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.field != other.field or self.n_vars != other.n_vars:
            raise ValueError("polynomial ring mismatch")
        terms = dict(self.terms)
        zero = self.field.zero()
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, zero) + c
        return MultiPoly(self.field, self.n_vars, terms)

    def __neg__(self):
        return MultiPoly(self.field, self.n_vars,
                         {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

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


def generating_set(inst: EquationInstance, n: int | None = None) -> GeneratorSet:
    """The quadratic generating set in n >= 2 variables: the g_{k,i} of the
    module docstring, ordered (2,2), (2,1), (1,1), then for k = 3..n the
    pairs (k,k), (k,k-1), ..., (k,1)."""
    inst.require_nonzero_a()
    n = inst.n if n is None else n
    if n < 2:
        raise ValueError("generating set requires n >= 2")
    fld, a = inst.field, inst.a
    mul = fld._mul
    neg_powers = [fld.p - 1]  # encodings of -a^0..-a^n
    for _ in range(n):
        neg_powers.append(mul(neg_powers[-1], a.encoding))
    zeros = (0,) * n
    # units[m] is the exponent vector of x_m
    units = [zeros] + [zeros[:m - 1] + (1,) + zeros[m:] for m in range(1, n + 1)]
    one = fld.one()

    pairs = [(2, 2), (2, 1), (1, 1)] + [(k, i) for k in range(3, n + 1)
                                        for i in range(k, 0, -1)]
    gens = []
    for k, i in pairs:
        if i == k:
            lead = zeros[:k - 1] + (2,) + zeros[k:]
        else:
            lead = zeros[:i - 1] + (1,) + zeros[i:k - 1] + (1,) + zeros[k:]
        terms = {lead: one}
        for m in range(k, min(n, i + k) + 1):
            c = comb(m, k) * comb(k, m - i) % fld.p
            if c:
                terms[units[m]] = FieldElement(fld, mul(c, neg_powers[i + k - m]))
        gens.append(MultiPoly(fld, n, terms))
    if len(gens) != comb(n + 1, 2):
        raise InternalInvariantError("generator count is off")
    if any(g.total_degree() > 2 for g in gens):
        raise InternalInvariantError("generator of degree > 2")
    return GeneratorSet(n, a, tuple(gens))


# ---------------------------------------------------------------------------
# Prefix-pruned variety scan.
#
# Point encoding: index = sum of enc(x_i) * q^(i-1).  The scan fixes the
# variables from x_n down, so its digit t is x_{n-t} and the points whose
# last t coordinates are fixed share the prefix index below q^t.

def variety(gens: GeneratorSet, field: Field, *,
            budget: int = DEFAULT_VARIETY_BUDGET) -> list[tuple[FieldElement, ...]]:
    """All common zeros in F_q^n, in ascending point-encoding order."""
    n = gens.n
    q = field.q
    space = q**n
    limit = min(budget, scan.INDEX_LIMIT)
    if space > limit:
        raise BudgetExceededError(space, limit, "variety scan")
    tabs = scan.Tables(field, budget)
    add, mul = tabs.add, tabs.mul
    # each term as (coefficient, scan digit per factor), each generator in the
    # layer where the lowest-index variable it reads is fixed (0 for a
    # constant); the zero polynomial vanishes everywhere and is left out
    layers = [[] for _ in range(n + 1)]
    reads = {}  # exponent vector -> scan digit per factor, descending
    for g in gens.generators:
        terms = []
        for exps, c in g.terms.items():
            if exps not in reads:
                reads[exps] = [n - 1 - v for v, e in enumerate(exps) for _ in range(e)]
            terms.append((c.encoding, reads[exps]))
        if terms:
            layers[max((fs[0] + 1 for _, fs in terms if fs), default=0)].append(terms)

    def prune(t: int, idx: np.ndarray) -> np.ndarray:
        coords = {}  # digit f of every index in idx, decoded on first use
        for terms in layers[t]:
            vals = None
            for enc, factors in terms:
                term = None
                for f in factors:
                    if f not in coords:
                        coords[f] = idx // q**f % q
                    term = coords[f] if term is None else mul[term * q + coords[f]]
                if term is None:
                    term = np.full(len(idx), enc, dtype=np.int64)
                elif enc != 1:
                    term = mul[enc * q + term]
                vals = term if vals is None else add[vals * q + term]
            zero = vals == 0
            if not zero.all():
                idx = idx[zero]
                if not len(idx):
                    break
                coords = {f: c[zero] for f, c in coords.items()}
        return idx

    idx = scan.pruned(q, n, prune)
    # reverse the scan digits into point encodings
    pts = np.sort(scan.encode(q, scan.decode(q, n, idx)[::-1]))
    return [tuple(map(field.from_encoding, row))
            for row in scan.decode(q, n, pts).T.tolist()]


@dataclass(frozen=True)
class VarietyCheck:
    """Outcome of comparing the scanned variety with the orbit image."""

    n: int
    q: int
    a_encoding: int
    variety_size: int
    image_size: int
    equal: bool
    points: tuple = dc_field(default=(), compare=False, repr=False)  # the scanned variety

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "a": self.a_encoding,
            "variety_size": self.variety_size,
            "image_size": self.image_size,
            "equal": self.equal,
        }


def verify_variety(inst: EquationInstance, *,
                   budget: int = DEFAULT_VARIETY_BUDGET) -> VarietyCheck:
    """Scan the variety of the generating set and compare it, as a set, with
    the n+1 orbit image points."""
    gens = generating_set(inst)
    pts = variety(gens, inst.field, budget=budget)
    img = {p.coords for p in image_points(inst)}
    return VarietyCheck(
        n=inst.n, q=inst.q, a_encoding=inst.a.encoding,
        variety_size=len(pts), image_size=len(img),
        equal=set(pts) == img, points=tuple(pts),
    )
