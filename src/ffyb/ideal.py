"""Quadratic generators whose variety is exactly the orbit image points.

The generating set for n variables is built recursively: the base case has
the three quadrics x2^2 - a^2 x2, x2 x1 - 2a x2, x1^2 - a x1 - 2 x2; going
from n-1 to n variables every old generator f gains the correction
-(f(w_n)/a^n) x_n, with w_n = (C(n,1)a, ..., C(n,n-1)a^(n-1)), and the n new
generators x_n x_i - C(n,i) a^i x_n (i = 1..n) are added.  That yields
C(n+1, 2) polynomials of total degree at most 2, all carried out inside the
field so characteristic-p collapses happen naturally.

The variety is computed by an exhaustive scan of all q^n points - the
independent oracle for the claim that it equals the n+1 image points.  The
scan runs on the chunked scanner of scan.py, one generator at a time, and
moves the surviving points only when a generator removes some.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import comb

import numpy as np

from . import scan
from .errors import BudgetExceededError
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
            if len(exps) != n_vars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for {n_vars} variables")
            if not c.is_zero():
                clean[exps] = c
        self.field = field
        self.n_vars = n_vars
        self.terms = clean

    @classmethod
    def zero(cls, field: Field, n_vars: int) -> "MultiPoly":
        return cls(field, n_vars, {})

    @classmethod
    def monomial(cls, field: Field, n_vars: int, exps, coeff: FieldElement) -> "MultiPoly":
        return cls(field, n_vars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, field: Field, n_vars: int, i: int) -> "MultiPoly":
        """The variable x_i (1-based)."""
        exps = [0] * n_vars
        exps[i - 1] = 1
        return cls(field, n_vars, {tuple(exps): field.one()})

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], FieldElement]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    def lift(self, n_vars: int) -> "MultiPoly":
        """Reinterpret in a larger variable ring (new variables unused)."""
        if n_vars < self.n_vars:
            raise ValueError("cannot lift to fewer variables")
        pad = (0,) * (n_vars - self.n_vars)
        return MultiPoly(self.field, n_vars,
                         {exps + pad: c for exps, c in self.terms.items()})

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

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return MultiPoly(self.field, self.n_vars,
                             {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

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


def base_generators(inst: EquationInstance) -> GeneratorSet:
    """The three quadrics of the two-variable base case."""
    inst.require_nonzero_a()
    fld, a = inst.field, inst.a
    two = fld.from_int(2)
    x1 = MultiPoly.variable(fld, 2, 1)
    x2 = MultiPoly.variable(fld, 2, 2)
    mono = MultiPoly.monomial
    f22 = mono(fld, 2, (0, 2), fld.one()) - x2 * (a * a)
    f21 = mono(fld, 2, (1, 1), fld.one()) - x2 * (two * a)
    f11 = mono(fld, 2, (2, 0), fld.one()) - x1 * a - x2 * two
    return GeneratorSet(2, a, (f22, f21, f11))


def generating_set(inst: EquationInstance, n: int | None = None) -> GeneratorSet:
    """The quadratic generating set in n variables (n >= 2), built
    recursively from the base case."""
    inst.require_nonzero_a()
    n = inst.n if n is None else n
    if n < 2:
        raise ValueError("generating set requires n >= 2")
    if n == 2:
        return base_generators(inst)
    prev = generating_set(inst, n - 1)
    fld, a = inst.field, inst.a
    w = tuple(fld.from_int(comb(n, i)) * a**i for i in range(1, n))
    a_pow_n_inv = (a**n).inv()
    xn = MultiPoly.variable(fld, n, n)
    gens = []
    for f in prev.generators:
        correction = f.evaluate(w) * a_pow_n_inv
        gens.append(f.lift(n) - xn * correction)
    for i in range(n, 0, -1):
        exps = [0] * n
        exps[i - 1] += 1
        exps[n - 1] += 1
        coeff = fld.from_int(comb(n, i)) * a**i
        gens.append(MultiPoly.monomial(fld, n, exps, fld.one()) - xn * coeff)
    if len(gens) != comb(n + 1, 2):
        raise ArithmeticError("generator count is off (internal bug)")
    if any(g.total_degree() > 2 for g in gens):
        raise ArithmeticError("generator of degree > 2 (internal bug)")
    return GeneratorSet(n, a, tuple(gens))


# ---------------------------------------------------------------------------
# Exhaustive variety scan.
#
# Point encoding: index = sum of enc(x_i) * q^(i-1); the scan checks every
# generator on every surviving point, in chunks of the index range.

def variety(gens: GeneratorSet, field: Field, *,
            budget: int = DEFAULT_VARIETY_BUDGET) -> list[tuple[FieldElement, ...]]:
    """All common zeros in F_q^n, in ascending point-encoding order."""
    n = gens.n
    q = field.q
    space = q**n
    if space > budget:
        raise BudgetExceededError(space, budget, "variety scan")
    tabs = scan.Tables(field, budget)
    add, mul = tabs.add, tabs.mul
    # each term as (coefficient, variable per factor); the zero polynomial
    # vanishes everywhere and is left out
    compiled = [[(c.encoding, [t for t, e in enumerate(exps) for _ in range(e)])
                 for exps, c in g.sorted_terms()] for g in gens.generators if g.terms]
    hits: list[int] = []
    for idx, coords in scan.chunks(q, n, 0, space):
        for terms in compiled:
            vals = None
            for enc, factors in terms:
                if not factors:
                    term = np.full(len(idx), enc, dtype=np.int64)
                else:
                    term = coords[factors[0]]
                    if enc != 1:
                        term = mul[enc * q + term]
                    for t in factors[1:]:
                        term = mul[term * q + coords[t]]
                vals = term if vals is None else add[vals * q + term]
            idx, coords = scan.keep(vals == 0, idx, coords)
            if not len(idx):
                break
        hits.extend(idx.tolist())
    out = []
    for i in hits:
        point = []
        for _ in range(n):
            i, r = divmod(i, q)
            point.append(field.from_encoding(r))
        out.append(tuple(point))
    return out


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
