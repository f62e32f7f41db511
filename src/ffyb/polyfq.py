"""Univariate polynomials over GF(q), lambda-matrices and canonical forms.

Provides exact polynomial arithmetic, Smith normal form of square polynomial
matrices over GF(q)[x], invariant factors and elementary divisors of a field
matrix (via x*I - X), the rational canonical form, and the degree-3 companion
block exclusion check used by the solution classification.

A UniPoly stores the integer encodings of its coefficients, not
FieldElements, and computes on them with the field's encoding operations;
FieldElements appear only where the public API hands out coefficients.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .errors import InternalInvariantError
from .gf import Field, FieldElement, coeff_tuples

if TYPE_CHECKING:  # pragma: no cover
    from .matfq import Matrix


class UniPoly:
    """A univariate polynomial over a Field.

    It holds the integer encodings of its coefficients (see gf), little
    endian, in the tuple ``enc`` with no trailing zeros; all arithmetic runs
    on those integers through the field's encoding operations.  ``coeffs``,
    ``coeff`` and ``lead`` give FieldElements.  The zero polynomial has an
    empty tuple and degree -1 (standing in for minus infinity)."""

    __slots__ = ("field", "enc")

    def __init__(self, field: Field, enc: tuple[int, ...]):
        self.field = field
        self.enc = enc

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trimmed(cls, field: Field, enc: list[int]) -> "UniPoly":
        while enc and not enc[-1]:
            enc.pop()
        return cls(field, tuple(enc))

    @classmethod
    def from_elements(cls, field: Field, seq) -> "UniPoly":
        return cls._trimmed(field, [c.encoding for c in seq])

    @classmethod
    def from_encodings(cls, field: Field, encs) -> "UniPoly":
        return cls._trimmed(field, [field.from_encoding(e).encoding for e in encs])

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "UniPoly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, c: FieldElement) -> "UniPoly":
        return cls.from_elements(c.field, [c])

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, e) for e in self.enc)

    @property
    def degree(self) -> int:
        return len(self.enc) - 1

    def is_zero(self) -> bool:
        return not self.enc

    def is_monic(self) -> bool:
        return bool(self.enc) and self.enc[-1] == 1

    def lead(self) -> FieldElement:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return FieldElement(self.field, self.enc[-1])

    def coeff(self, k: int) -> FieldElement:
        return FieldElement(self.field, self.enc[k] if 0 <= k < len(self.enc) else 0)

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.enc[-1] == 1:
            return self
        return self._scaled(self.field._inv(self.enc[-1]))

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other) -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("polynomials over different fields")

    def _scaled(self, k: int) -> "UniPoly":
        """self times the element with encoding k."""
        if not k:
            return UniPoly(self.field, ())
        mul = self.field._mul
        return UniPoly(self.field, tuple(mul(c, k) for c in self.enc))

    def _plus(self, other: "UniPoly", k: int) -> "UniPoly":
        """self + k * other, k an encoding."""
        self._check(other)
        add, mul = self.field._add, self.field._mul
        return UniPoly._trimmed(self.field, [add(a, mul(k, b)) if b else a
                                             for a, b in itertools.zip_longest(
                                                 self.enc, other.enc, fillvalue=0)])

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self._plus(other, self.field.p - 1)

    def __neg__(self):
        return self._scaled(self.field.p - 1)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return self._scaled(other.encoding)
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly(self.field, ())
        add, mul = self.field._add, self.field._mul
        out = [0] * (len(self.enc) + len(other.enc) - 1)
        for i, a in enumerate(self.enc):
            if a:
                for j, b in enumerate(other.enc, i):
                    if b:
                        out[j] = add(out[j], mul(a, b))
        return UniPoly._trimmed(self.field, out)

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        out = UniPoly.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __divmod__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero polynomial")
        fld = self.field
        add, mul = fld._add, fld._mul
        d = other.degree
        inv_lead = fld._inv(other.enc[-1])
        neg_g = [mul(c, fld.p - 1) for c in other.enc[:d]]
        rem = list(self.enc)
        quot = [0] * max(len(rem) - d, 0)
        for shift in range(len(quot) - 1, -1, -1):
            c = quot[shift] = mul(rem[shift + d], inv_lead)
            if c:  # cancels rem[shift + d]; only the lower coefficients change
                for j, b in enumerate(neg_g):
                    if b:
                        rem[shift + j] = add(rem[shift + j], mul(c, b))
        return UniPoly._trimmed(fld, quot), UniPoly._trimmed(fld, rem[:d])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def _at(self, x: int) -> int:
        """The value at the element with encoding x, as an encoding."""
        add, mul = self.field._add, self.field._mul
        acc = 0
        for c in reversed(self.enc):
            acc = add(mul(acc, x), c)
        return acc

    def __call__(self, point: FieldElement) -> FieldElement:
        self._check(point)
        return FieldElement(self.field, self._at(point.encoding))

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.enc == other.enc and (self.field is other.field
                                          or self.field == other.field)

    def __hash__(self):
        return hash((self.enc, self.field.p, self.field.modulus))

    def text(self) -> str:
        """Canonical text form: comma-separated little-endian encodings."""
        if self.is_zero():
            return "0"
        return ",".join(map(str, self.enc))

    def __repr__(self):
        return f"UniPoly({self.text()} over {self.field!r})"


def parse_unipoly(field: Field, text: str) -> UniPoly:
    try:
        encs = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"malformed polynomial text {text!r}") from exc
    return UniPoly.from_encodings(field, encs)


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def _exact_poly_div(num: UniPoly, den: UniPoly) -> UniPoly:
    quot, rem = divmod(num, den)
    if not rem.is_zero():
        raise InternalInvariantError("inexact polynomial division")
    return quot


# ---------------------------------------------------------------------------
# Irreducible enumeration and factoring (trial-division scale: the inputs
# here are characteristic polynomials of small matrices over tiny fields).

def monic_polys(field: Field, degree: int):
    """Monic degree-d polynomials in canonical order: coefficient tuples over
    element encodings, constant term compared first (the same ordering the
    field modulus search uses)."""
    for tail in coeff_tuples(field.q, degree):
        yield UniPoly(field, (*tail, 1))


def is_irreducible_poly(f: UniPoly) -> bool:
    """Trial division by every monic polynomial of degree at most deg(f)/2."""
    if f.degree < 1:
        return False
    for d in range(1, f.degree // 2 + 1):
        for g in monic_polys(f.field, d):
            if (f % g).is_zero():
                return False
    return True


def monic_irreducibles(field: Field, degree: int):
    for g in monic_polys(field, degree):
        if is_irreducible_poly(g):
            yield g


def factor_monic(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Factor a nonzero polynomial into monic irreducibles with multiplicity.

    Linear factors come from a root scan over the field, in encoding order of
    the root; the rest from trial division by the monic polynomials of
    ascending degree, each degree in coefficient-tuple order."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    f = f.monic()
    fld = f.field
    found: list[tuple[UniPoly, int]] = []
    for c in range(fld.q):
        lin = UniPoly(fld, (fld._mul(c, fld.p - 1), 1))
        e = 0
        while f.degree >= 1 and not f._at(c):
            f = _exact_poly_div(f, lin)
            e += 1
        if e:
            found.append((lin, e))
    d = 2
    while 2 * d <= f.degree:
        # Every factor of degree < d is divided out already, so a monic
        # degree-d divisor of f has no proper factor: it is irreducible, and
        # no irreducibility test is needed.
        for g in monic_polys(fld, d):
            e = 0
            while f.degree >= g.degree and (f % g).is_zero():
                f = _exact_poly_div(f, g)
                e += 1
            if e:
                found.append((g, e))
            if f.degree < 2 * d:
                break
        d += 1
    if f.degree >= 1:
        found.append((f, 1))
    return found


# ---------------------------------------------------------------------------

class PolyMatrix:
    """A square matrix over GF(q)[x]."""

    __slots__ = ("field", "size", "rows")

    def __init__(self, field: Field, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise ValueError("polynomial matrix must be square")
            for e in r:
                if not isinstance(e, UniPoly) or e.field != field:
                    raise ValueError("entries must be UniPoly over the given field")
        self.field = field
        self.size = n
        self.rows = rows

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def det(self) -> UniPoly:
        """Determinant by fraction-free (Bareiss) elimination.

        Division-free up to exact divisions by the previous pivot, hence
        correct in any characteristic."""
        n = self.size
        if n == 0:
            return UniPoly.one(self.field)
        m = [list(r) for r in self.rows]
        sign = 1
        prev = UniPoly.one(self.field)
        for r in range(n - 1):
            if m[r][r].is_zero():
                for i in range(r + 1, n):
                    if not m[i][r].is_zero():
                        m[r], m[i] = m[i], m[r]
                        sign = -sign
                        break
                else:
                    return UniPoly.zero(self.field)
            for i in range(r + 1, n):
                for j in range(r + 1, n):
                    num = m[r][r] * m[i][j] - m[i][r] * m[r][j]
                    m[i][j] = _exact_poly_div(num, prev)
                m[i][r] = UniPoly.zero(self.field)
            prev = m[r][r]
        d = m[n - 1][n - 1]
        return d if sign == 1 else -d


def char_matrix(X: "Matrix") -> PolyMatrix:
    """The lambda-matrix x*I - X of a square field matrix."""
    if X.n_rows != X.n_cols:
        raise ValueError("characteristic matrix requires a square matrix")
    fld = X.field
    x = UniPoly.x(fld)
    rows = []
    for i in range(X.n_rows):
        row = []
        for j in range(X.n_cols):
            if i == j:
                row.append(x - UniPoly.constant(X[i, j]))
            else:
                row.append(UniPoly.constant(-X[i, j]))
        rows.append(row)
    return PolyMatrix(fld, rows)


class SmithForm:
    """Diagonal invariant factors h1 | h2 | ... | hn, units normalized to 1."""

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[UniPoly, ...]):
        self.invariant_factors = invariant_factors

    def nontrivial(self) -> tuple[UniPoly, ...]:
        return tuple(h for h in self.invariant_factors if h.degree >= 1)

    def __eq__(self, other):
        if not isinstance(other, SmithForm):
            return NotImplemented
        return self.invariant_factors == other.invariant_factors

    def __repr__(self):
        return "SmithForm(" + "; ".join(h.text() for h in self.invariant_factors) + ")"


def smith_normal_form(M: PolyMatrix) -> SmithForm:
    """Smith normal form over GF(q)[x] by elementary row/column operations.

    Pivot selection is the nonzero entry of minimal degree with row-major
    tie-break; rows/columns are reduced by Euclidean division until clear.
    A final gcd/lcm absorption pass between adjacent diagonal entries fixes
    the divisibility chain.  Fully deterministic."""
    n = M.size
    fld = M.field
    a = [list(r) for r in M.rows]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]

    for t in range(n):
        while True:
            pivot = None
            for i in range(t, n):
                for j in range(t, n):
                    e = a[i][j]
                    if not e.is_zero() and (pivot is None
                                            or e.degree < a[pivot[0]][pivot[1]].degree):
                        pivot = (i, j)
            if pivot is None:
                break  # submatrix is all zero
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            dirty = False
            for i in range(t + 1, n):
                if not a[i][t].is_zero():
                    q = a[i][t] // a[t][t]
                    for j in range(t, n):
                        a[i][j] = a[i][j] - q * a[t][j]
                    if not a[i][t].is_zero():
                        dirty = True  # remainder of smaller degree; reselect pivot
            for j in range(t + 1, n):
                if not a[t][j].is_zero():
                    q = a[t][j] // a[t][t]
                    for i in range(t, n):
                        a[i][j] = a[i][j] - q * a[i][t]
                    if not a[t][j].is_zero():
                        dirty = True
            if not dirty:
                break

    diag = [a[i][i] for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            f, g = diag[i], diag[i + 1]
            if f.is_zero():
                if not g.is_zero():
                    diag[i], diag[i + 1] = g, f
                    changed = True
                continue
            if (g % f).is_zero():
                continue
            d = poly_gcd(f, g)
            diag[i], diag[i + 1] = d, _exact_poly_div(f, d) * g
            changed = True
    return SmithForm(tuple(h.monic() for h in diag))


def invariant_factors(X: "Matrix") -> tuple[UniPoly, ...]:
    """Invariant factors of x*I - X (monic, units reported as 1)."""
    return smith_normal_form(char_matrix(X)).invariant_factors


def _poly_sort_key(g: UniPoly):
    return (g.degree, g.enc)


def elementary_divisors(X: "Matrix") -> tuple[UniPoly, ...]:
    """The multiset of prime-power divisors of x*I - X, as a sorted tuple."""
    out: list[UniPoly] = []
    for h in invariant_factors(X):
        if h.degree >= 1:
            for g, e in factor_monic(h):
                out.append(g**e)
    return tuple(sorted(out, key=_poly_sort_key))


def rational_canonical_form(X: "Matrix") -> "Matrix":
    """Direct sum of companion blocks of the nontrivial invariant factors,
    in divisibility-chain (hence ascending-degree) order."""
    from .matfq import companion, direct_sum

    blocks = [companion(h) for h in invariant_factors(X) if h.degree >= 1]
    out = blocks[0]
    for b in blocks[1:]:
        out = direct_sum(out, b)
    return out


def companion_not_solution(f: UniPoly, a: FieldElement) -> bool:
    """True iff C(f)^2 differs from a*C(f) for a monic f of degree >= 3.

    Companion blocks of degree 3 or more can never appear in a canonical
    form solving X^2 = aX; this checks one instance directly."""
    if f.degree < 3:
        raise ValueError("check applies to polynomials of degree >= 3")
    from .matfq import companion

    c = companion(f)
    return c * c != a * c
