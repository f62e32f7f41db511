"""Univariate polynomials over GF(q) and the canonical forms of a matrix.

Provides exact polynomial arithmetic, factoring in time polynomial in log q,
the invariant factors, elementary divisors and rational canonical form of a
field matrix, and x*I - X as a PolyMatrix whose Bareiss determinant is the
reference perfbench and the tests check matfq.char_coeffs against.  The
matrices come from matfq, which imports nothing from here.  The Smith form
of a whole polynomial matrix, companion matrices and the enumeration of
monic polynomials are test references, in tests/support.py.

A UniPoly stores the integer encodings of its coefficients, not
FieldElements, and computes on them with the field's encoding operations;
FieldElements appear only where the public API hands out coefficients.

The invariant factors never build the n x n matrix x*I - X: a sweep of
x*I - H, H a Hessenberg form of X, uses each nonzero subdiagonal entry as a
unit pivot, and leaves a k x k upper triangular remainder, k the number of
unreduced blocks of H.  Cleared wherever a diagonal entry divides, only it
gets a Smith form (none when k = 1), on coefficient tuples, no UniPoly.
"""

from __future__ import annotations

import itertools
import random

from .errors import InternalInvariantError
from .gf import Field, FieldElement, power
from .matfq import Matrix, _from_encodings, _hessenberg


# -- coefficient-tuple kernels ------------------------------------------------
# A polynomial is the little-endian tuple of its coefficient encodings with no
# trailing zeros (UniPoly.enc).  UniPoly's operators, the Smith form and the
# invariant-factor sweep all compute through these functions.

def _trim(enc: list[int]) -> tuple[int, ...]:
    while enc and not enc[-1]:
        enc.pop()
    return tuple(enc)


def _enc_plus(fld: Field, a, b, k: int) -> tuple[int, ...]:
    """a + k*b, k an encoding."""
    add, mul = fld._add, fld._mul
    return _trim([add(x, mul(k, y)) if y else x
                  for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _enc_mul(fld: Field, a, b) -> tuple[int, ...]:
    if not a or not b:
        return ()
    add, mul = fld._add, fld._mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    out[j] = add(out[j], mul(x, y))
    return _trim(out)


def _enc_divmod(fld: Field, a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(quotient, remainder) of a by the nonzero b."""
    add, mul = fld._add, fld._mul
    d = len(b) - 1
    inv_lead = fld._inv(b[-1])
    if not d:  # b is a unit
        return tuple(mul(c, inv_lead) for c in a), ()
    neg_g = [mul(c, fld.p - 1) for c in b[:d]]
    rem = list(a)
    quot = [0] * max(len(rem) - d, 0)
    for shift in range(len(quot) - 1, -1, -1):
        c = quot[shift] = mul(rem[shift + d], inv_lead)
        if c:  # cancels rem[shift + d]; only the lower coefficients change
            for j, y in enumerate(neg_g):
                if y:
                    rem[shift + j] = add(rem[shift + j], mul(c, y))
    return _trim(quot), _trim(rem[:d])


def _enc_monic(fld: Field, a) -> tuple[int, ...]:
    if not a or a[-1] == 1:
        return tuple(a)
    mul, k = fld._mul, fld._inv(a[-1])
    return tuple(mul(c, k) for c in a)


def _enc_gcd(fld: Field, f, g) -> tuple[int, ...]:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0.  Each remainder
    must have lower degree than its divisor, else InternalInvariantError."""
    while g:
        r = _enc_divmod(fld, f, g)[1]
        if len(r) >= len(g):
            raise InternalInvariantError("Euclidean remainder did not lower the degree")
        f, g = g, r
    return _enc_monic(fld, f)


class UniPoly:
    """A univariate polynomial over a Field.

    It holds the integer encodings of its coefficients (see gf), little
    endian, in the tuple ``enc`` with no trailing zeros; all arithmetic runs
    on those integers through the field's encoding operations.  ``coeffs``
    and ``coeff`` give FieldElements.  The zero polynomial has an empty
    tuple and degree -1 (standing in for minus infinity)."""

    __slots__ = ("field", "enc")

    def __init__(self, field: Field, enc: tuple[int, ...]):
        self.field = field
        self.enc = enc

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_elements(cls, field: Field, seq) -> "UniPoly":
        return cls(field, _trim([c.encoding for c in seq]))

    @classmethod
    def from_encodings(cls, field: Field, encs) -> "UniPoly":
        return cls(field, _trim([field.from_encoding(e).encoding for e in encs]))

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

    def coeff(self, k: int) -> FieldElement:
        return FieldElement(self.field, self.enc[k] if 0 <= k < len(self.enc) else 0)

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.enc[-1] == 1:
            return self
        return UniPoly(self.field, _enc_monic(self.field, self.enc))

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
        return UniPoly(self.field, _enc_plus(self.field, self.enc, other.enc, k))

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
        return UniPoly(self.field, _enc_mul(self.field, self.enc, other.enc))

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        return power(self, e, UniPoly.one(self.field))

    def __divmod__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero polynomial")
        quot, rem = _enc_divmod(self.field, self.enc, other.enc)
        return UniPoly(self.field, quot), UniPoly(self.field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, point: FieldElement) -> FieldElement:
        self._check(point)
        add, mul, x = self.field._add, self.field._mul, point.encoding
        acc = 0
        for c in reversed(self.enc):
            acc = add(mul(acc, x), c)
        return FieldElement(self.field, acc)

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


# ---------------------------------------------------------------------------
# Irreducibility and factoring on coefficient tuples, in time polynomial in
# the degree and log q: squarefree, distinct-degree and Cantor-Zassenhaus
# equal-degree splits (Cantor and Zassenhaus, Math. Comp. 36, 1981; von zur
# Gathen and Gerhard, Modern Computer Algebra, ch. 14).

def _enc_powmod(fld: Field, b, e: int, g) -> tuple[int, ...]:
    """b^e mod the monic g by square-and-multiply, each product reduced in
    place; e >= 1, and b must be reduced mod g only where e = 1."""
    add, mul, d = fld._add, fld._mul, len(g) - 1
    neg_g = [mul(c, fld.p - 1) for c in g[:d]]
    out = b
    for op in bin(e)[3:].replace("1", "01"):  # 0: square, 1: times b
        prod = list(_enc_mul(fld, out, b if op == "1" else out))
        for i in range(len(prod) - 1, d - 1, -1):
            c = prod[i]
            if c:
                for j, y in enumerate(neg_g, i - d):
                    if y:
                        prod[j] = add(prod[j], mul(c, y))
        out = _trim(prod[:d])
    return out


def _squarefree_parts(fld: Field, f) -> list[tuple[tuple[int, ...], int]]:
    """Pairs (g, e), g squarefree and pairwise coprime, whose g^e multiply to
    the monic f.  A round splits f by c = gcd(f, f'); what is left of c has
    derivative 0, and its p-th root, c_pk^(q/p) at x^k, is the next f."""
    p, root_exp, mult, out = fld.p, fld.q // fld.p, 1, []
    while len(f) > 1:
        c = _enc_gcd(fld, f, _trim([fld._mul(a, k % p) for k, a in enumerate(f)][1:]))
        if len(c) == 1:
            out.append((f, mult))
            break
        w, i = _enc_divmod(fld, f, c)[0], mult
        while len(w) > 1:  # w is the product of the factors of multiplicity >= i
            y = _enc_gcd(fld, w, c)
            if len(y) < len(w):
                out.append((_enc_divmod(fld, w, y)[0], i))
            w, c, i = y, _enc_divmod(fld, c, y)[0], i + mult
        f, mult = tuple((FieldElement(fld, a) ** root_exp).encoding for a in c[::p]), mult * p
    return out


def _distinct_degree(fld: Field, g):
    """Yield (u, d), d ascending, u = gcd(g, x^(q^d) - x) the product of the
    degree-d factors of the monic squarefree g, where not 1; once 2(d+1) >
    deg g, the rest is irreducible.  For any monic g, the first d yielded
    is the least degree of a factor."""
    h, d = (0, 1), 0
    while 2 * (d + 1) < len(g):
        d += 1
        h = _enc_powmod(fld, h, fld.q, g)
        u = _enc_gcd(fld, g, _enc_plus(fld, h, (0, 1), fld.p - 1))
        if len(u) > 1:
            yield u, d
            if len(u) == len(g):
                return
            g = _enc_divmod(fld, g, u)[0]
    if len(g) > 1:
        yield g, len(g) - 1


def _equal_degree(fld: Field, u, d: int, rng: random.Random) -> list[tuple[int, ...]]:
    """The factors of u, a product of distinct monic irreducibles of degree
    d.  A draw b, deg b < deg u, splits u with probability at least 4/9 by
    gcd(u, b^((q^d-1)/2) - 1) for odd q, or by gcd(u, b + b^2 + ... +
    b^(2^(sd-1))), the trace, for q = 2^s; 200 failed draws, a chance
    below 10^-50, mean u is not such a product: InternalInvariantError."""
    if len(u) - 1 == d:
        return [u]
    for _ in range(200):
        b = _trim([rng.randrange(fld.q) for _ in range(len(u) - 1)])
        if fld.p == 2:
            t = s = b
            for _ in range(fld.s * d - 1):
                s = _enc_powmod(fld, s, 2, u)
                t = _enc_plus(fld, t, s, 1)
        else:
            t = _enc_plus(fld, _enc_powmod(fld, b, (fld.q**d - 1) // 2, u), (1,), fld.p - 1)
        w = _enc_gcd(fld, u, t)
        if 1 < len(w) < len(u):
            return (_equal_degree(fld, w, d, rng)
                    + _equal_degree(fld, _enc_divmod(fld, u, w)[0], d, rng))
    raise InternalInvariantError("no equal-degree split in 200 draws")


def is_irreducible_poly(f: UniPoly) -> bool:
    """gcd(f, x^(q^k) - x) = 1 for k = 1..deg(f)/2.  f need not be
    squarefree: a repeated factor has degree at most deg(f)/2 as well."""
    if f.degree < 1:
        return False
    return next(_distinct_degree(f.field, _enc_monic(f.field, f.enc)))[1] == f.degree


DEFAULT_FACTOR_BUDGET = 10**7  # field multiplications


def factor_cost(q: int, degree: int) -> int:
    """A bound on the field multiplications factor_monic makes on a degree-m
    polynomial over GF(q).  With k = m + 1 and L the bit length of q, a
    product mod g costs at most 2k^2 and a gcd or a division 3k^2.  The
    squarefree split makes 9k gcds and divisions, and 2L multiplications
    per coefficient of a p-th root; the distinct-degree split m/2 rounds of
    2L products and 3 more steps.  The degree-d factors need m/d splits,
    each charged four draws of 2dL products and 2 steps; 9/4 are expected."""
    L, m, k = q.bit_length(), degree, degree + 1
    return (18 * L + 29) * m * k * k + 27 * k**3 + 2 * L * k


def factor_monic(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Factor a nonzero polynomial into monic irreducibles with multiplicity;
    a constant has none.  Linear factors come first, in encoding order of
    the root; then the rest by degree, each degree in coefficient-tuple
    order.  The power of x splits off by a shift, so x^e (x - a) needs no
    draw; the rest draws from random.Random(0): the work is deterministic."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    fld, rng, f = f.field, None, _enc_monic(f.field, f.enc)
    x_exp = next(i for i, c in enumerate(f) if c)  # x^x_exp divides f exactly
    found = [((0, 1), x_exp)] if x_exp else []
    for g, e in _squarefree_parts(fld, f[x_exp:]):
        for u, d in _distinct_degree(fld, g):
            if len(u) - 1 > d and rng is None:  # a split needs draws
                rng = random.Random(0)
            found += [(v, e) for v in _equal_degree(fld, u, d, rng)]
    found.sort(key=lambda ue: (len(ue[0]), fld._mul(ue[0][0], fld.p - 1)  # the root
                               if len(ue[0]) == 2 else ue[0]))
    return [(UniPoly(fld, g), e) for g, e in found]


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
        correct in any characteristic; a remainder is InternalInvariantError."""
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
                    m[i][j], rem = divmod(m[r][r] * m[i][j] - m[i][r] * m[r][j], prev)
                    if not rem.is_zero():
                        raise InternalInvariantError("inexact polynomial division")
                m[i][r] = UniPoly.zero(self.field)
            prev = m[r][r]
        d = m[n - 1][n - 1]
        return d if sign == 1 else -d


def _char_row(fld: Field, rows, i: int) -> list[tuple[int, ...]]:
    """Row i of x*I - M on coefficient tuples, M given by its encoded rows."""
    mul, minus_one = fld._mul, fld.p - 1
    row = [(mul(e, minus_one),) if e else () for e in rows[i]]
    row[i] = (mul(rows[i][i], minus_one), 1)
    return row


def char_matrix(X: Matrix) -> PolyMatrix:
    """The lambda-matrix x*I - X of a square field matrix."""
    if X.n_rows != X.n_cols:
        raise ValueError("characteristic matrix requires a square matrix")
    fld = X.field
    return PolyMatrix(fld, [[UniPoly(fld, e) for e in _char_row(fld, X.enc, i)]
                            for i in range(X.n_rows)])


def _smith_chain(fld: Field, a: list[list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    """The monic Smith chain of the square matrix a of coefficient tuples,
    which it reduces in place.

    Pivot selection is the nonzero entry of minimal degree with row-major
    tie-break; the pivot row and column are reduced by Euclidean division
    until clear.  A pass that leaves a remainder selects the pivot again,
    and that pivot must have strictly lower degree, else the reduction is
    broken and InternalInvariantError is raised: a pivot of degree d allows
    at most d + 1 passes.  Then each diagonal entry in turn takes the gcd
    of itself with every later one, which leaves it the lcm, so that the
    chain divides; n(n-1)/2 gcds at most."""
    n = len(a)
    minus_one = fld.p - 1
    for t in range(n):
        limit = None
        while True:
            pivot, best = None, 0
            for i in range(t, n):
                row = a[i]
                for j in range(t, n):
                    e = row[j]
                    if e and (pivot is None or len(e) < best):
                        pivot, best = (i, j), len(e)
            if pivot is None:
                break  # submatrix is all zero
            if limit is not None and best >= limit:
                raise InternalInvariantError("Smith pass did not lower the pivot degree")
            i0, j0 = pivot
            a[t], a[i0] = a[i0], a[t]
            if j0 != t:
                for row in a:
                    row[t], row[j0] = row[j0], row[t]
            top = a[t]
            piv = top[t]
            dirty = False
            for i in range(t + 1, n):
                row = a[i]
                if row[t]:
                    q = _enc_divmod(fld, row[t], piv)[0]
                    for j in range(t, n):
                        if top[j]:
                            row[j] = _enc_plus(fld, row[j], _enc_mul(fld, q, top[j]),
                                               minus_one)
                    dirty = dirty or bool(row[t])  # a remainder: reselect the pivot
            for j in range(t + 1, n):
                if top[j]:
                    q = _enc_divmod(fld, top[j], piv)[0]
                    for row in a[t:]:
                        if row[t]:
                            row[j] = _enc_plus(fld, row[j], _enc_mul(fld, q, row[t]),
                                               minus_one)
                    dirty = dirty or bool(top[j])
            if not dirty:
                break
            limit = best

    diag = [a[i][i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            f, g = diag[i], diag[j]
            if not g or f == g or len(f) == 1 or f and not _enc_divmod(fld, g, f)[1]:
                continue  # f divides g
            d = _enc_gcd(fld, f, g)
            diag[i], diag[j] = d, (_enc_mul(fld, _enc_divmod(fld, f, d)[0], g) if f else ())
    return [_enc_monic(fld, h) for h in diag]


def invariant_factors(X: Matrix) -> tuple[UniPoly, ...]:
    """Invariant factors of x*I - X (monic, units reported as 1).

    X is reduced by a similarity to upper Hessenberg H (matfq's reduction,
    shared with char_coeffs), which splits into k unreduced blocks at the
    zeros of its subdiagonal.  x*I - H is then swept column by column: a
    nonzero subdiagonal entry -h(j+1, j) is a unit, so row j+1 clears
    column j from the first row of every block opened so far, and then row
    j+1 and column j split off as a unit.  The k block rows and the last
    column of each block are left: an upper triangular k x k matrix T whose
    diagonal holds the blocks' characteristic polynomials.  Bottom-up, each
    t(i, j), i < j, that t(j, j) divides is cleared by a multiple of row j,
    and else one that t(i, i) divides by a multiple of column i; a
    conjugated solution of X^2 = aX mostly leaves T diagonal.  The answer
    is n - k ones followed by the Smith chain of T; when k = 1 that is the
    characteristic polynomial alone, with no Smith form at all."""
    if X.n_rows != X.n_cols:
        raise ValueError("characteristic matrix requires a square matrix")
    fld, n = X.field, X.n_rows
    mul, h = fld._mul, _hessenberg(fld, X._encodings())
    blocks = []  # the first row of each block, reduced so far
    kept = []  # the last column of each block
    for j in range(n):
        if not (j and h[j][j - 1]):
            blocks.append(_char_row(fld, h, j))
        if j + 1 == n or not h[j + 1][j]:
            kept.append(j)
            continue
        # adding r[j] / h(j+1, j) times row j+1 to a block row r clears r[j]
        pivot_row, inv = _char_row(fld, h, j + 1), fld._inv(h[j + 1][j])
        for r in blocks:
            if r[j]:
                g = tuple(mul(e, inv) for e in r[j])
                for c in range(j + 1, n):
                    if pivot_row[c]:
                        r[c] = _enc_plus(fld, r[c], _enc_mul(fld, g, pivot_row[c]), 1)
    one = UniPoly.one(fld)
    k = len(kept)
    if k == 1:
        return (one,) * (n - 1) + (UniPoly(fld, _enc_monic(fld, blocks[0][-1])),)
    t = [[r[c] for c in kept] for r in blocks]
    for i in range(k - 2, -1, -1):  # rows below i are done, still zero left of the diagonal
        for j in range(i + 1, k):
            if not t[i][j]:
                continue
            quo, rem = _enc_divmod(fld, t[i][j], t[j][j])
            if not rem:  # row i -= quo * row j
                cells = [(t[i], c, t[j][c]) for c in range(j, k)]
            else:  # or column j -= quo * column i, which is zero below row i
                quo, rem = _enc_divmod(fld, t[i][j], t[i][i])
                cells = [] if rem else [(r, j, r[i]) for r in t[:i + 1]]
            for r, c, b in cells:
                if b:
                    r[c] = _enc_plus(fld, r[c], _enc_mul(fld, quo, b), fld.p - 1)
    return (one,) * (n - k) + tuple(UniPoly(fld, e) for e in _smith_chain(fld, t))


def _divisors_of_factors(hs) -> tuple[UniPoly, ...]:
    """The elementary divisors of an invariant-factor chain, sorted.

    Only the last factor, the minimal polynomial, is factored: every other
    factor divides it, so its multiplicities come from exact division by
    the same primes."""
    hs = [h for h in hs if h.degree >= 1]
    if not hs:
        return ()
    fld = hs[-1].field
    out: list[UniPoly] = []
    for g, e in factor_monic(hs[-1]):
        out.append(g**e)
        for h in hs[:-1]:
            rest, m = h.enc, 0
            while len(rest) > g.degree:
                quot, rem = _enc_divmod(fld, rest, g.enc)
                if rem:
                    break
                rest, m = quot, m + 1
            if m:
                out.append(g**m)
    return tuple(sorted(out, key=lambda g: (g.degree, g.enc)))


def elementary_divisors(X: Matrix) -> tuple[UniPoly, ...]:
    """The multiset of prime-power divisors of x*I - X, as a sorted tuple."""
    return _divisors_of_factors(invariant_factors(X))


def _rcf_of_factors(field: Field, hs) -> Matrix:
    """The direct sum of the companion blocks of the nontrivial factors hs,
    built as one encoded matrix."""
    n = sum(h.degree for h in hs)
    rows = [[0] * n for _ in range(n)]
    o = 0
    for h in hs:
        d = h.degree
        if d < 1:
            continue
        for i in range(o, o + d - 1):
            rows[i][i + 1] = 1
        rows[o + d - 1][o:o + d] = [field._mul(c, field.p - 1) for c in h.enc[:d]]
        o += d
    return _from_encodings(field, rows)


def rational_canonical_form(X: Matrix) -> Matrix:
    """Direct sum of companion blocks of the nontrivial invariant factors,
    in divisibility-chain (hence ascending-degree) order."""
    return _rcf_of_factors(X.field, invariant_factors(X))

