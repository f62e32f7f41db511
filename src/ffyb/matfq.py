"""Dense exact matrix algebra over GF(q).

Matrices are immutable row-major tuples of the integer encodings of their
entries, with the usual operator overloads; field elements are handed out
only at the boundary.  Besides products, determinant, rank and inverse, this
module provides the signed characteristic-polynomial coefficients (the
conjugation invariants: first entry is the trace, last the determinant),
the Hessenberg reduction that polyfq shares, and the order of GL(n, q).

Canonical text form of a matrix: rows separated by semicolons, entries as
comma-separated integer encodings, e.g. ``0,1;0,3``.  The enumeration
scanners index an n x n matrix by its entries (row-major) as base-q digits,
least significant first, and decode whole index arrays (scan.decode).
"""

from __future__ import annotations

from .errors import InternalInvariantError, SingularMatrixError
from .gf import Field, FieldElement, power


def _encoding_in(field: Field, e) -> int:
    """The encoding of e, which must be an element of field."""
    if not isinstance(e, FieldElement) or (e.field is not field and e.field != field):
        raise ValueError("entries must be elements of the given field")
    return e.encoding


class Matrix:
    """An immutable matrix over a Field, held as the encodings of its entries."""

    __slots__ = ("field", "n_rows", "n_cols", "enc")

    def __init__(self, field: Field, rows):
        rows = [tuple(r) for r in rows]
        n_cols = len(rows[0]) if rows else 0
        if any(len(r) != n_cols for r in rows):
            raise ValueError("ragged rows")
        self.field, self.n_rows, self.n_cols = field, len(rows), n_cols
        self.enc = tuple(tuple(_encoding_in(field, e) for e in r) for r in rows)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, n_rows: int, n_cols: int | None = None) -> "Matrix":
        cols = n_rows if n_cols is None else n_cols
        return _from_encodings(field, [[0] * cols for _ in range(n_rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.scalar(field, n, field.one())

    @classmethod
    def scalar(cls, field: Field, n: int, c: FieldElement) -> "Matrix":
        c = _encoding_in(field, c)
        return _from_encodings(field, [[c if i == j else 0 for j in range(n)]
                                       for i in range(n)])

    # -- access -------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return FieldElement(self.field, self.enc[i][j])

    @property
    def entries(self) -> tuple[tuple[FieldElement, ...], ...]:
        return tuple(tuple(FieldElement(self.field, e) for e in row) for row in self.enc)

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("dimension mismatch")
        add = self.field._add
        return _from_encodings(self.field,
                               [[add(a, b) for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.enc, other.enc)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):  # times -1, the encoding p - 1
        return self * FieldElement(self.field, self.field.p - 1)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            c, mul = _encoding_in(self.field, other), self.field._mul
            return _from_encodings(self.field, [[mul(a, c) for a in r] for r in self.enc])
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if self.n_cols != other.n_rows:
            raise ValueError("dimension mismatch in product")
        add, mul = self.field._add, self.field._mul
        cols = list(zip(*other.enc))
        out = []
        for row in self.enc:
            out_row = []
            for col in cols:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = add(acc, mul(a, b))
                out_row.append(acc)
            out.append(out_row)
        return _from_encodings(self.field, out)

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        if not self.is_square:
            raise ValueError("matrix power requires a square matrix")
        return power(self, e, Matrix.identity(self.field, self.n_rows))

    # -- elimination-based operations ----------------------------------------

    def _encodings(self) -> list[list[int]]:
        """Fresh lists of the rows, for the eliminations that edit in place."""
        return [list(row) for row in self.enc]

    def det(self) -> FieldElement:
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        return FieldElement(self.field, _echelon(self.field, self._encodings())[2])

    def rank(self) -> int:
        return _echelon(self.field, self._encodings())[1]

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ValueError("inverse requires a square matrix")
        n = self.n_rows
        unit = [[int(i == j) for j in range(n)] for i in range(n)]
        rows, _, _ = _echelon(self.field,
                              [row + u for row, u in zip(self._encodings(), unit)])
        # the left block reduces to the identity exactly when self is invertible
        if [r[:n] for r in rows] != unit:
            raise SingularMatrixError("matrix is singular")
        return _from_encodings(self.field, [r[n:] for r in rows])

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.enc == other.enc
                and self.n_cols == other.n_cols)

    def __hash__(self):
        return hash((self.enc, self.n_cols, self.field.p, self.field.modulus))

    def text(self) -> str:
        return ";".join(",".join(map(str, row)) for row in self.enc)

    def __repr__(self):
        return f"Matrix({self.text()} over {self.field!r})"


def _from_encodings(field: Field, rows) -> Matrix:
    """The matrix with these rows of encodings, trusted to lie in 0..q-1."""
    X = object.__new__(Matrix)
    enc = X.enc = tuple(map(tuple, rows))
    X.field, X.n_rows, X.n_cols = field, len(enc), len(enc[0]) if enc else 0
    return X


def _echelon(field: Field, rows: list[list[int]]):
    """Row reduction with first-nonzero pivoting, in place on encoded rows.

    Returns (rows, rank, det), det an encoding accumulated only when square."""
    add, mul, minus_one = field._add, field._mul, field.p - 1
    n, m = len(rows), len(rows[0]) if rows else 0
    det = 1
    rank = 0
    for col in range(m):
        if rank == n:
            break
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            det = 0
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            det = mul(det, minus_one)
        det = mul(det, rows[rank][col])
        inv = field._inv(rows[rank][col])
        top = rows[rank] = [mul(e, inv) for e in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col]:
                f = mul(rows[i][col], minus_one)
                rows[i] = [add(a, mul(f, b)) if b else a for a, b in zip(rows[i], top)]
        rank += 1
    if rank < min(n, m):
        det = 0
    return rows, rank, det


def _hessenberg(field: Field, h: list[list[int]]) -> list[list[int]]:
    """Reduce the square encoded rows h in place, by a similarity, to upper
    Hessenberg form, and return them.

    For m = 1..n-2 the first nonzero entry of column m-1 at or below row m
    is brought to row m (a row swap and the same column swap); then for each
    row i > m, u * row m is subtracted from row i and u * column i added to
    column m.  A column with nothing to clear leaves a zero on the
    subdiagonal.  The first basis vector is never moved."""
    add, mul, minus_one = field._add, field._mul, field.p - 1
    n = len(h)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for r in h:
                r[piv], r[m] = r[m], r[piv]
        t = field._inv(h[m][m - 1])
        for i in range(m + 1, n):
            u = mul(h[i][m - 1], t)
            if u:
                f = mul(u, minus_one)
                h[i] = [add(a, mul(f, b)) if b else a for a, b in zip(h[i], h[m])]
                for r in h:
                    if r[i]:
                        r[m] = add(r[m], mul(u, r[i]))
    return h


def char_coeffs(X: Matrix) -> tuple[FieldElement, ...]:
    """Signed coefficients (e1, ..., en) of det(x*I - X).

    With det(x*I - X) = x^n + sum_i (-1)^i e_i x^(n-i), e_i is the i-th
    elementary symmetric function of the eigenvalues; e1 is the trace and
    en the determinant.  Computed on encodings by the Hessenberg method
    (Cohen, A Course in Computational Algebraic Number Theory, 1993,
    Algorithm 2.2.9): a similarity reduces X to an upper Hessenberg H, and
    det(x*I - H) follows from its leading minors by a recurrence.  That is
    O(n^3) field operations and valid in any characteristic."""
    if not X.is_square:
        raise ValueError("characteristic coefficients require a square matrix")
    fld = X.field
    add, mul, minus_one = fld._add, fld._mul, fld.p - 1
    n = X.n_rows
    h = _hessenberg(fld, X._encodings())
    # cp[k] = det(x*I - H_k), H_k the leading k x k block of H:
    #   cp[k+1] = x cp[k] - sum_{i<=k} h_ik * h_(i+1)i * ... * h_k(k-1) * cp[i]
    # where the product of subdiagonal entries is empty for i = k.
    cp = [[1]]
    for k in range(n):
        nxt = [0] + cp[k]
        sub = minus_one  # minus the product of subdiagonal entries
        for i in range(k, -1, -1):
            c = mul(h[i][k], sub)
            if c:
                for d, v in enumerate(cp[i]):
                    nxt[d] = add(nxt[d], mul(c, v))
            sub = mul(sub, h[i][i - 1]) if i else 0
            if not sub:
                break
        cp.append(nxt)
    poly = cp[n]
    if len(poly) != n + 1 or poly[-1] != 1:
        raise InternalInvariantError("characteristic polynomial is not monic of degree n")
    out, sign = [], 1
    for i in range(1, n + 1):
        sign = mul(sign, minus_one)
        out.append(FieldElement(fld, mul(sign, poly[n - i])))
    return tuple(out)


def gl_order(n: int, q: int) -> int:
    """|GL(n, q)| as an exact integer; the empty product gives 1 at n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1
    qn = q**n
    for i in range(n):
        out *= qn - q**i
    return out


# -- text codec ------------------------------------------------------------

def parse_matrix(field: Field, text: str) -> Matrix:
    rows = []
    for row_text in text.strip().split(";"):
        try:
            rows.append([field.from_encoding(int(tok)).encoding
                         for tok in row_text.split(",")])
        except ValueError as exc:
            raise ValueError(f"malformed matrix text {text!r}: {exc}") from exc
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged rows")
    return _from_encodings(field, rows)
