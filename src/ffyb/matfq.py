"""Dense exact matrix algebra over GF(q).

Matrices are immutable row-major tuples of field elements with the usual
operator overloads.  Besides products, determinant, rank and inverse, this
module provides the signed characteristic-polynomial coefficients (the
conjugation invariants: first entry is the trace, last the determinant),
companion matrices, direct sums, conjugation, and the order of GL(n, q).

Canonical text form of a matrix: rows separated by semicolons, entries as
comma-separated integer encodings, e.g. ``0,1;0,3``.  The canonical integer
index of an n x n matrix reads its entries (row-major) as base-q digits,
least significant first; the enumeration scanners run over these indices.
"""

from __future__ import annotations

from .errors import InternalInvariantError, SingularMatrixError
from .gf import Field, FieldElement
from .polyfq import UniPoly, char_matrix


class Matrix:
    """An immutable matrix over a Field."""

    __slots__ = ("field", "n_rows", "n_cols", "entries")

    def __init__(self, field: Field, rows):
        entries = tuple(tuple(r) for r in rows)
        n_cols = len(entries[0]) if entries else 0
        for r in entries:
            if len(r) != n_cols:
                raise ValueError("ragged rows")
            for e in r:
                if not isinstance(e, FieldElement) or e.field != field:
                    raise ValueError("entries must be elements of the given field")
        self.field = field
        self.n_rows = len(entries)
        self.n_cols = n_cols
        self.entries = entries

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, n_rows: int, n_cols: int | None = None) -> "Matrix":
        z = field.zero()
        cols = n_rows if n_cols is None else n_cols
        return cls(field, [[z] * cols for _ in range(n_rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def scalar(cls, field: Field, n: int, c: FieldElement) -> "Matrix":
        z = field.zero()
        return cls(field, [[c if i == j else z for j in range(n)] for i in range(n)])

    # -- access -------------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if (self.n_rows, self.n_cols) != (other.n_rows, other.n_cols):
            raise ValueError("dimension mismatch")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other)
        return Matrix(self.field,
                      [[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        self._check_same_shape(other)
        return Matrix(self.field,
                      [[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.entries])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return Matrix(self.field, [[a * other for a in r] for r in self.entries])
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise ValueError("matrices over different fields")
        if self.n_cols != other.n_rows:
            raise ValueError("dimension mismatch in product")
        cols = list(zip(*other.entries))
        out = []
        for row in self.entries:
            out.append([_dot(row, col, self.field) for col in cols])
        return Matrix(self.field, out)

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            return NotImplemented
        if not self.is_square:
            raise ValueError("matrix power requires a square matrix")
        out = Matrix.identity(self.field, self.n_rows)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- elimination-based operations ----------------------------------------

    def _echelon(self):
        """Row reduction with first-nonzero pivoting.

        Returns (rows, rank, det) where det is accumulated only when square."""
        rows = [list(r) for r in self.entries]
        n, m = self.n_rows, self.n_cols
        det = self.field.one()
        rank = 0
        for col in range(m):
            if rank == n:
                break
            pivot = next((i for i in range(rank, n) if not rows[i][col].is_zero()), None)
            if pivot is None:
                det = self.field.zero()
                continue
            if pivot != rank:
                rows[rank], rows[pivot] = rows[pivot], rows[rank]
                det = -det
            det = det * rows[rank][col]
            inv = rows[rank][col].inv()
            rows[rank] = [e * inv for e in rows[rank]]
            for i in range(n):
                if i != rank and not rows[i][col].is_zero():
                    f = rows[i][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
        if rank < min(n, m):
            det = self.field.zero()
        return rows, rank, det

    def det(self) -> FieldElement:
        if not self.is_square:
            raise ValueError("determinant requires a square matrix")
        return self._echelon()[2]

    def rank(self) -> int:
        return self._echelon()[1]

    def inverse(self) -> "Matrix":
        if not self.is_square:
            raise ValueError("inverse requires a square matrix")
        n = self.n_rows
        z, o = self.field.zero(), self.field.one()
        aug = Matrix(self.field,
                     [list(self.entries[i]) + [o if i == j else z for j in range(n)]
                      for i in range(n)])
        rows, _, _ = aug._echelon()
        # the left block reduces to the identity exactly when self is invertible
        for i in range(n):
            for j in range(n):
                if rows[i][j] != (o if i == j else z):
                    raise SingularMatrixError("matrix is singular")
        return Matrix(self.field, [r[n:] for r in rows])

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.entries == other.entries
                and self.n_cols == other.n_cols)

    def __hash__(self):
        return hash((self.entries, self.n_cols, self.field.p, self.field.modulus))

    def text(self) -> str:
        return ";".join(",".join(str(e.encoding) for e in row) for row in self.entries)

    def __repr__(self):
        return f"Matrix({self.text()} over {self.field!r})"


def _dot(row, col, field: Field) -> FieldElement:
    acc = field.zero()
    for a, b in zip(row, col):
        acc = acc + a * b
    return acc


def char_coeffs(X: Matrix) -> tuple[FieldElement, ...]:
    """Signed coefficients (e1, ..., en) of det(x*I - X).

    With det(x*I - X) = x^n + sum_i (-1)^i e_i x^(n-i), e_i is the i-th
    elementary symmetric function of the eigenvalues; e1 is the trace and
    en the determinant.  Computed by fraction-free elimination over the
    polynomial ring, which is valid in any characteristic."""
    if not X.is_square:
        raise ValueError("characteristic coefficients require a square matrix")
    cp = char_matrix(X).det()
    n = X.n_rows
    if cp.degree != n or not cp.is_monic():
        raise InternalInvariantError("characteristic polynomial is not monic of degree n")
    sign = X.field.one()
    out = []
    for i in range(1, n + 1):
        sign = -sign
        out.append(sign * cp.coeff(n - i))
    return tuple(out)


def companion(f: UniPoly) -> Matrix:
    """Companion matrix of a monic polynomial of degree >= 1."""
    if not f.is_monic():
        raise ValueError("companion matrix requires a monic polynomial")
    k = f.degree
    if k < 1:
        raise ValueError("companion matrix requires degree >= 1")
    fld = f.field
    z, o = fld.zero(), fld.one()
    rows = [[o if j == i + 1 else z for j in range(k)] for i in range(k - 1)]
    rows.append([-f.coeff(j) for j in range(k)])
    return Matrix(fld, rows)


def direct_sum(b: Matrix, c: Matrix) -> Matrix:
    """Block-diagonal sum of two square matrices over the same field."""
    if b.field != c.field:
        raise ValueError("matrices over different fields")
    if not (b.is_square and c.is_square):
        raise ValueError("direct sum requires square matrices")
    z = b.field.zero()
    k, m = b.n_rows, c.n_rows
    rows = [list(b.entries[i]) + [z] * m for i in range(k)]
    rows += [[z] * k + list(c.entries[i]) for i in range(m)]
    return Matrix(b.field, rows)


def conjugate(p: Matrix, x: Matrix) -> Matrix:
    """P X P^-1; raises SingularMatrixError when P is not invertible."""
    return p * x * p.inverse()


def gl_order(n: int, q: int) -> int:
    """|GL(n, q)| as an exact integer; the empty product gives 1 at n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = 1
    qn = q**n
    for i in range(n):
        out *= qn - q**i
    return out


# -- canonical integer index and text codecs ---------------------------------

def matrix_from_index(field: Field, n: int, idx: int) -> Matrix:
    q = field.q
    if not 0 <= idx < q ** (n * n):
        raise ValueError("matrix index out of range")
    digits = []
    for _ in range(n * n):
        idx, r = divmod(idx, q)
        digits.append(r)
    return Matrix(field, [[field.from_encoding(digits[i * n + j])
                           for j in range(n)] for i in range(n)])


def matrix_index(X: Matrix) -> int:
    q = X.field.q
    idx = 0
    flat = [e.encoding for row in X.entries for e in row]
    for d in reversed(flat):
        idx = idx * q + d
    return idx


def parse_matrix(field: Field, text: str) -> Matrix:
    rows = []
    for row_text in text.strip().split(";"):
        try:
            rows.append([field.from_encoding(int(tok)) for tok in row_text.split(",")])
        except ValueError as exc:
            raise ValueError(f"malformed matrix text {text!r}: {exc}") from exc
    return Matrix(field, rows)
