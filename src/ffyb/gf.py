"""Exact arithmetic in finite fields GF(p^s).

A :class:`Field` fixes a prime p, an extension degree s and a monic
irreducible modulus of degree s over GF(p).  An element is its canonical
integer encoding in 0..q-1: the coefficient vector of its residue mod
(p, modulus), read as base-p digits, least significant first.  The same
integer is the wire format of the CLI and the digit of the enumeration
scanners.

Prime fields compute mod p.  Extension fields compute through exp, log and
Zech-log tables of size q over the first primitive element, built on first
use.

The modulus is chosen deterministically: candidates are ordered
lexicographically by their non-leading coefficient tuple, constant term
first, and the first irreducible wins.  For s = 1 this degenerates to the
modulus x, i.e. plain residues mod p.
"""

from __future__ import annotations

import itertools
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

    __slots__ = ("p", "s", "q", "modulus", "_logs")

    def __init__(self, p: int, s: int, modulus: tuple[int, ...]):
        self.p = p
        self.s = s
        self.q = p**s
        self.modulus = modulus
        self._logs = None

    def __eq__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus)

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    def __repr__(self):
        if self.s == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.s})"

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

    def _log_tables(self) -> tuple[list[int], list[int], list[int]]:
        """(exp, log, zech) of an extension field, built on first use.

        exp[i] = g^i for a primitive element g (i < q-1), log inverts it
        (log[0] is unused), and zech[i] = log(1 + g^i), or -1 where
        1 + g^i = 0."""
        if self._logs is None:
            from .polyfq import _enc_powmod, _trim
            p, s, q = self.p, self.s, self.q
            # g is primitive when g^((q-1)/r) != 1, by powering mod the
            # modulus, for each prime r | q-1; the prime subfield holds none
            rs = {d for r in range(1, int(q**0.5) + 1) if (q - 1) % r == 0
                  for d in (r, (q - 1) // r)}
            g = next(g for g in range(p, q) if all(
                _enc_powmod(make_field(p), _trim([g // p**t % p for t in range(s)]),
                            (q - 1) // r, self.modulus) != (1,) for r in rs if is_prime(r)))
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
                fold = sum(-hi * m % p * p**t for t, m in enumerate(self.modulus[:-1]))
                v = _digit_add(lo * p, fold, p, s)
            # exp[:2L] from exp[:L] and times_g = (g^L * .), by doubling
            exp = np.ones(1, dtype=np.int64)
            while len(exp) < q - 1:
                exp = np.concatenate([exp, times_g[exp]])
                times_g = times_g[times_g]
            exp = exp[:q - 1]
            log = np.zeros(q, dtype=np.int64)
            log[exp] = np.arange(q - 1)
            succ = exp - exp % p + (exp + 1) % p  # 1 + g^i
            zech = np.where(succ == 0, -1, log[succ]).tolist()
            self._logs = (exp.tolist(), log.tolist(), zech)
        return self._logs

    def _add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        if not a or not b:
            return a or b
        exp, log, zech = self._logs or self._log_tables()
        la = log[a]
        z = zech[(log[b] - la) % (self.q - 1)]
        return 0 if z < 0 else exp[(la + z) % (self.q - 1)]

    def _mul(self, a: int, b: int) -> int:
        if self.s == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        exp, log, _ = self._logs or self._log_tables()
        return exp[(log[a] + log[b]) % (self.q - 1)]

    def _inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        if self.s == 1:
            return pow(a, -1, self.p)
        exp, log, _ = self._logs or self._log_tables()
        return exp[-log[a] % (self.q - 1)]


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
