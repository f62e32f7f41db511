"""Exact arithmetic in finite fields GF(p^s).

A :class:`Field` fixes a prime p, an extension degree s and a monic
irreducible modulus of degree s over GF(p).  An element is its canonical
integer encoding in 0..q-1: the coefficient vector of its residue mod
(p, modulus), read as base-p digits, least significant first.  The same
integer is the wire format of the CLI and the digit of the enumeration
scanners.

Each field binds its own add, mul and inv on encodings on first use and
branches on nothing per call: mod p in a prime field, XOR for the sum when
p = 2, and in an extension field lookups in exp, log and Zech-log lists of
O(q) entries over the first primitive element.

The modulus is chosen deterministically: candidates are ordered
lexicographically by their non-leading coefficient tuple, constant term
first, and the first irreducible wins.  For s = 1 this degenerates to the
modulus x, i.e. plain residues mod p.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

import numpy as np

from .errors import InternalInvariantError

# Enumeration-based oracles make larger fields pointless; the cap also keeps
# the modulus search and the O(q) log tables small.
MAX_ORDER = 2**20


def exact_div(num: int, den: int) -> int:
    """Integer division that must be exact; a remainder is an internal bug."""
    quot, rem = divmod(num, den)
    if rem:
        raise InternalInvariantError(f"inexact division: {num} / {den}")
    return quot


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def power(base, e: int, one):
    """base ** e for an int e >= 0 by square-and-multiply, one being the
    unit of base's ring; FieldElement, UniPoly and Matrix all power here."""
    out = one
    while e:
        if e & 1:
            out = out * base
        base = base * base
        e >>= 1
    return out


def _digit_add(a, b, p: int, s: int):
    """Digitwise sum mod p of encodings, i.e. field addition; works
    elementwise (with broadcasting) on numpy arrays as well as on ints."""
    if p == 2:
        return a ^ b
    out, w = 0, 1
    for _ in range(s):
        out = out + (a // w + b // w) % p * w
        w *= p
    return out


class Field:
    """GF(p^s) with a fixed modulus.  Immutable; safe to share."""

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p, self.s, self.q, self.modulus = p, s, p**s, modulus

    def __getattr__(self, name):
        """The first read of _logs, _add, _mul or _inv sets all four (_bind)."""
        if name not in ("_logs", "_add", "_mul", "_inv"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._bind()
        return self.__dict__[name]

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus)

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        return f"GF({self.p})" if self.s == 1 else f"GF({self.p}^{self.s})"

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def from_encoding(self, k: int) -> "FieldElement":
        """The element with canonical integer encoding k."""
        if not 0 <= k < self.q:
            raise ValueError(f"encoding {k} out of range 0..{self.q - 1}")
        return FieldElement(self, k)

    def from_int(self, k: int) -> "FieldElement":
        """Cast an integer scalar into the field: (k mod p) in the prime
        subfield, i.e. k times the identity."""
        return FieldElement(self, k % self.p)

    # -- arithmetic on encodings ------------------------------------------

    def _bind(self) -> None:
        """Set _add, _mul and _inv, the arithmetic on encodings, and _logs.
        A prime field computes mod p; p = 2 adds by XOR.  An extension field
        reads _logs = (ext, lg, zech) over its first primitive element g: ext
        is exp (exp[i] = g^i, i < q-1) written twice, then zeros; lg inverts
        exp, and lg[0] = 2(q-1) sends every product with 0 into the zeros, so
        a product is ext[lg a + lg b]; for odd p, zech[i] = lg[1 + g^i], and
        a sum of nonzero a, b is a * (1 + b/a)."""
        p, s, q, m = self.p, self.s, self.q, self.q - 1
        if s == 1:
            self._logs = None
            add, self._mul = (lambda a, b: (a + b) % p), (lambda a, b: a * b % p)

            def inv(a: int) -> int:
                if not a:
                    raise ZeroDivisionError("inverse of zero field element")
                return pow(a, -1, p)
        else:
            from .polyfq import _enc_powmod, _trim
            # g is primitive when g^((q-1)/r) != 1, by powering mod the
            # modulus, for each prime r | q-1; the prime subfield holds none
            rs = {d for r in range(1, int(q**0.5) + 1) if m % r == 0 for d in (r, m // r)}
            g = next(g for g in range(p, q) if all(
                _enc_powmod(make_field(p), _trim([g // p**t % p for t in range(s)]),
                            m // r, self.modulus) != (1,) for r in rs if is_prime(r)))
            # times_g[k] = g * k, grown one base-p digit of k at a time:
            # g * (d x^t + k) = d * v + g * k with v = g * x^t, all d at once
            times_g = np.zeros(1, dtype=np.int64)
            v = g  # g * x^t
            for _ in range(s):
                dv = itertools.accumulate([v] * (p - 1), lambda a, b: _digit_add(a, b, p, s))
                step = _digit_add(np.array([*dv])[:, None], times_g, p, s).ravel()
                times_g = np.concatenate([times_g, step])
                # v * x: shift the digits up; hi * x^s reduces to -hi * (modulus - x^s)
                hi, lo = divmod(v, p ** (s - 1))
                fold = sum(-hi * c % p * p**t for t, c in enumerate(self.modulus[:-1]))
                v = _digit_add(lo * p, fold, p, s)
            # exp[:2L] from exp[:L] and times_g = (g^L * .), by doubling
            exp = np.ones(1, dtype=np.int64)
            while len(exp) < m:
                exp = np.concatenate([exp, times_g[exp]])
                times_g = times_g[times_g]
            exp = exp[:m]
            lg = np.full(q, q, dtype=np.int64)  # objs[q] = 2(q-1)
            lg[exp] = np.arange(m)
            objs = np.array([*range(q), 2 * m], dtype=object)  # the lists share their ints
            zech = objs[lg[exp - exp % p + (exp + 1) % p]].tolist() if p > 2 else None
            exp = objs[exp].tolist()
            ext, lg = exp + exp + [0] * (2 * m + 1), objs[lg].tolist()
            self._logs = (ext, lg, zech)
            self._mul = lambda a, b: ext[lg[a] + lg[b]]

            def add(a, b):  # lg[b] - lg[a] < 0 wraps as mod q-1 does
                return ext[(la := lg[a]) + zech[lg[b] - la]] if a and b else a + b

            def inv(a: int) -> int:  # ext[m - lg 0] = 0 would pass silently
                if not a:
                    raise ZeroDivisionError("inverse of zero field element")
                return ext[m - lg[a]]
        self._add, self._inv = (operator.xor if p == 2 else add), inv


class FieldElement:
    """An element of a Field, held as its integer encoding."""

    __slots__ = ("field", "encoding")

    def __init__(self, field: Field, encoding: int):
        self.field = field
        self.encoding = encoding

    def is_zero(self) -> bool:
        return self.encoding == 0

    def __bool__(self):
        return self.encoding != 0

    def _check(self, other) -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.field, self.field._add(self.encoding, other.encoding))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):  # times -1, the encoding p - 1
        return FieldElement(self.field, self.field._mul(self.encoding, self.field.p - 1))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        return FieldElement(self.field, self.field._mul(self.encoding, other.encoding))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field._inv(self.encoding))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self * other.inv()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        return power(self.inv() if e < 0 else self, abs(e), self.field.one())

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.encoding == other.encoding and (self.field is other.field
                                                    or self.field == other.field)

    def __hash__(self):
        return hash((self.encoding, self.field.p, self.field.modulus))

    def __repr__(self):
        return f"{self.encoding}@{self.field!r}"


@lru_cache(maxsize=None)
def make_field(p: int, s: int = 1) -> Field:
    """Construct GF(p^s) with the canonical modulus.

    The modulus is the first irreducible among monic degree-s polynomials
    ordered by coefficient tuple (constant term compared first)."""
    if s < 1:
        raise ValueError(f"extension degree s = {s} must be >= 1")
    # before is_prime and p**s, which are big-integer work at a huge p or s;
    # p^s >= 2^s, so an s past the bit length of MAX_ORDER needs no p**s
    if p > MAX_ORDER or s > MAX_ORDER.bit_length() or p**s > MAX_ORDER:
        raise ValueError(f"field order {p}^{s} exceeds supported maximum {MAX_ORDER}")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if s == 1:
        return Field(p, 1, (0, 1))
    from .polyfq import UniPoly, is_irreducible_poly

    prime = make_field(p)
    for tail in itertools.product(range(p), repeat=s):
        # x divides every candidate with a zero constant term
        if tail[0] and is_irreducible_poly(UniPoly.from_encodings(prime, (*tail, 1))):
            return Field(p, s, (*tail, 1))
    raise AssertionError(f"no monic irreducible of degree {s} over GF({p})")  # impossible
