"""The prefix-pruned index scan shared by every brute-force oracle.

An index in [0, q^width) stands for a vector of `width` base-q digits, least
significant first: a matrix (width n^2) or a point of F_q^n (width n).  All
field arithmetic goes through `Tables`, whose add(a, b) and mul(a, b) take
pairs of encodings and compute each entry from O(q) vectors
(`arithmetic`).  When q^2 fits one scan chunk (q <= 256) and the scan has
more than q^2 indices, those formulas run once over all q^2 pairs, and mul,
and add past p = 2, gather from a table at the flat index a*q + b, several
times faster per lookup; no other module knows that format.  Past either
bound a table costs more memory and time than the lookups it serves.
`tables` keeps one Tables per field and cut, so each is set up once.

`gate` decides what a scan may cost: it refuses more than min(budget,
INDEX_LIMIT) indices before it sets up the arithmetic, so the solution,
variety, GL and centralizer scans all refuse an index space that int64
cannot hold, whatever the budget.  It never computes a q^width of more than
EXACT_BITS bits; past that, the refusal reports a power of 2 below it.
`pruned` builds indices digit by digit and never extends a prefix that
already fails a test on its digits, so most indices are never formed.  The
scan may fix the digits in any order: each is given with its place value in
the index, so the scan's output is the canonical indices, ascending.
`decode` gives the (width, rows) digit array of an index array, row t
holding digit t.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import BudgetExceededError
from .gf import Field

CHUNK = 1 << 16
# indices are int64: a wider index space would wrap around
INDEX_LIMIT = 2**63 - 1
# a refused q^width is given exactly up to this many bits
EXACT_BITS = 10**5


def decode(q: int, width: int, idx: np.ndarray) -> np.ndarray:
    """The (width, len(idx)) base-q digit array of the indices idx."""
    return idx // q ** np.arange(width, dtype=np.int64)[:, None] % q


def gate(field: Field, width: int, budget: int, what: str) -> Tables:
    """The tables for a scan of all q^width indices, refused before they are
    set up when q^width exceeds the budget or INDEX_LIMIT."""
    q = field.q
    # past EXACT_BITS, 2^(width * floor(log2 q)) <= q^width, capped, is far above limit
    space = (q ** width if width * q.bit_length() <= EXACT_BITS
             else 1 << min(width * (q.bit_length() - 1), EXACT_BITS))
    limit = min(budget, INDEX_LIMIT)
    if space > limit:
        raise BudgetExceededError(space, limit, what)
    return tables(field, space)


def tables(field: Field, lookups: int) -> Tables:
    """The field's shared Tables for `lookups` entries: dense if q^2 fits one
    chunk and is below lookups.  The cut keys the cache: a changed CHUNK finds no stale one."""
    q2 = field.q ** 2
    return _shared(field, q2 <= CHUNK and q2 < lookups)


def pruned(q: int, places: list[int], prune) -> np.ndarray:
    """The indices sum_t d_t * places[t], d_t in [0, q), that survive prune,
    in ascending order.

    The first t digits of an index are a prefix, itself such a sum with the
    later digits 0.  prune(t, idx) returns the t-digit prefixes in idx that
    may still extend to a survivor; a prefix it drops is never extended.
    Extending a prefix by digit t adds d * places[t] for d = 0..q-1.  The
    scan runs depth first on slices of at most CHUNK // q prefixes, so each
    depth holds about CHUNK indices at a time, however little prune drops."""
    step = max(1, CHUNK // q)
    width = len(places)
    shifts = [np.arange(0, q * w, w, dtype=np.int64)[:, None] for w in places]
    out = [np.zeros(0, dtype=np.int64)]

    def descend(t: int, idx: np.ndarray):
        idx = prune(t, idx)
        if t == width:
            out.append(idx)
            return
        for lo in range(0, len(idx), step):
            descend(t + 1, (idx[lo:lo + step] + shifts[t]).ravel())

    descend(0, np.zeros(1, dtype=np.int64))
    return np.sort(np.concatenate(out))


def _take(table: np.ndarray, i):
    """table[i], gathered into i when it is a fresh index array; mode "raise"
    would buffer a second index array."""
    return table.take(i, None, i, "clip") if isinstance(i, np.ndarray) else table[i]


def arithmetic(field: Field, dense: bool):
    """(add, mul, inv) of a field as functions of encodings, add and mul of
    (a, b) computed per lookup from O(q) vectors or, when dense, gathered
    from the q x q tables that the same formulas give once over all pairs.

    add is an XOR for p = 2, dense or not, and red[a + b] with red[k] = k
    mod p in an odd prime field.  An odd-p extension field adds by its own
    Zech formula, ext[lg a + zech[lg b - lg a]], on int64 copies of the
    field's _logs (m = q - 1, lg 0 = 2m).  zech is widened to every d =
    lg b - lg a in [-2m, 2m], stored at d + 2m: it holds d where a = 0 and 0
    where b = 0, so a zero operand needs no test.  mul is a*b mod p in a
    prime field and ext[lg a + lg b] in an extension field; inv of k != 0 is
    k^(p-2) by square and multiply, or ext[m - lg k].  No vector has more
    than 4q entries."""
    p, s, q, m = field.p, field.s, field.q, field.q - 1
    if s > 1:
        ext, lg = (np.array(t, dtype=np.int64) for t in field._logs[:2])
    if p == 2:
        add = np.bitwise_xor
    elif s == 1:
        red = np.arange(2 * p - 1, dtype=np.int64) % p

        def add(a, b):
            return _take(red, a + b)
    else:
        # zech[d + 2m] over d in [-2m, -m), [-m, 0), [0, m) and [m, 2m]
        z = np.array(field._logs[2], dtype=np.int64)
        zech = np.concatenate([np.arange(-2 * m, -m), z, z, np.zeros(m + 1, np.int64)])
        lg2 = lg + 2 * m

        def add(a, b):
            la = lg[a]
            i = lg2[b] - la  # numpy subtracts into the temporary lg2[b] once it is large
            i = _take(zech, i)
            i += la
            return _take(ext, i)
    if s == 1:
        def mul(a, b):
            i = a * b
            i %= p  # in place: a * b % p would buffer a second array
            return i

        def inv(k, e=p - 2):  # k^e, squaring k once per bit of e
            r = inv(mul(k, k), e >> 1) if e > 1 else np.ones_like(k)
            return mul(r, k) if e & 1 else r
    else:
        def mul(a, b):
            return _take(ext, lg[a] + lg[b])

        def inv(k):
            return _take(ext, m - lg[k])
    if not dense:
        return add, mul, inv
    k = np.arange(q, dtype=np.int64)
    # an XOR is faster than a gather: p = 2 builds the mul table alone
    return (*(f if f is np.bitwise_xor else _gather(f(k[:, None], k).ravel(), q)
              for f in (add, mul)), inv)


def _gather(table: np.ndarray, q: int):
    """f(a, b) = table[a*q + b] of a flat q x q table, for ints or int64
    arrays a and b that broadcast together."""
    return lambda a, b: _take(table, a * q + b)  # numpy adds into a large a * q in place


class Tables:
    """A field's arithmetic on encodings: add(a, b) and mul(a, b) take ints
    or int64 arrays that broadcast together; neg and inv are vectors indexed
    by encoding, inv[0] = 0.  add and mul gather from q x q tables while
    dense and q^2 <= CHUNK, except the XOR add of p = 2, and else compute
    each entry from O(q) vectors, so no field is too large to set up."""

    def __init__(self, field: Field, dense: bool = True):
        self.field = field
        self.q = q = field.q
        self.add, self.mul, self._inverse = arithmetic(field, dense and q * q <= CHUNK)

    # neg and inv are built on first use: most scans read neither
    @cached_property
    def neg(self) -> np.ndarray:
        return self.mul(self.field.p - 1, np.arange(self.q, dtype=np.int64))

    @cached_property
    def inv(self) -> np.ndarray:
        inv = self._inverse(np.arange(self.q, dtype=np.int64))
        inv[0] = 0
        return inv

    def det(self, n: int, mats: np.ndarray) -> np.ndarray:
        """Batched determinants of n x n digit arrays, by elimination below
        the pivots; a matrix with no pivot in a column gets det 0."""
        add, mul, neg, inv = self.add, self.mul, self.neg, self.inv
        a = mats.reshape(n, n, mats.shape[1]).copy()
        cols, det = np.arange(a.shape[2]), np.ones(a.shape[2], dtype=np.int64)
        for c in range(n - 1):  # the last pivot needs no swap and clears no row
            r = c + (a[c:, c] != 0).argmax(0)  # the pivot row, or c if there is none
            det[r != c] = neg[det[r != c]]
            a[r, c:, cols], a[c, c:] = a[c, c:, cols], a[r, c:, cols].T  # swap rows c and r
            det = mul(det, a[c, c])
            f = mul(neg[a[c + 1:, c]], inv[a[c, c]])
            a[c + 1:, c + 1:] = add(a[c + 1:, c + 1:], mul(f[:, None], a[c, c + 1:]))
        return mul(det, a[n - 1, n - 1])


_shared = lru_cache(maxsize=None)(Tables)
