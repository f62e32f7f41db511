"""Shared helpers for the test suite."""

import random
import tracemalloc
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from unittest import mock

import numpy as np

from ffyb import scan
from ffyb.gf import Field, FieldElement, make_field
from ffyb.ideal import DEFAULT_VARIETY_BUDGET, GeneratorSet, MultiPoly, _common_zeros
from ffyb.invariants import _image_encodings, _separates
from ffyb.matfq import Matrix, _from_encodings, char_coeffs
from ffyb.orbits import OrbitLabel, list_orbits, representative
from ffyb.polyfq import (PolyMatrix, UniPoly, _rcf_of_factors, _smith_chain,
                         is_irreducible_poly)
from ffyb.solutions import EquationInstance, _check_shape


def random_matrix(rng: random.Random, field: Field, n: int) -> Matrix:
    elems = [field.from_encoding(k) for k in range(field.q)]
    return Matrix(field, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])


def random_invertible(rng: random.Random, field: Field, n: int) -> Matrix:
    while True:
        m = random_matrix(rng, field, n)
        if not m.det().is_zero():
            return m


def ref_generators(field: Field, n: int) -> list[Matrix]:
    """The transvections I + x^t E_ij (i != j, t < s; p^t encodes x^t), then
    the dilations diag(d, 1, ..., 1), d = 2..q-1, as matrices."""
    def identity_with(i: int, j: int, enc: int) -> Matrix:
        rows = [[field.from_encoding(int(r == c)) for c in range(n)] for r in range(n)]
        rows[i][j] = field.from_encoding(enc)
        return Matrix(field, rows)
    return ([identity_with(i, j, field.p**t)
             for i, j in permutations(range(n), 2) for t in range(field.s)]
            + [identity_with(0, 0, d) for d in range(2, field.q)])


# -- an entry-wise reference for matfq, on rows of FieldElements ------------

def matrix_from_index(field: Field, n: int, idx: int) -> Matrix:
    """The n x n matrix whose entries, row-major, are the base-q digits of
    idx, least significant first: the scanners' canonical index."""
    q = field.q
    if not 0 <= idx < q ** (n * n):
        raise ValueError("matrix index out of range")
    digits = []
    for _ in range(n * n):
        idx, r = divmod(idx, q)
        digits.append(r)
    return _from_encodings(field, [digits[i:i + n] for i in range(0, n * n, n)])


def matrix_index(X: Matrix) -> int:
    """The canonical index of X, the inverse of matrix_from_index."""
    q = X.field.q
    idx = 0
    for d in reversed([e for row in X.enc for e in row]):
        idx = idx * q + d
    return idx


def direct_sum(b: Matrix, c: Matrix) -> Matrix:
    """Block-diagonal sum of two square matrices over the same field."""
    if b.field != c.field:
        raise ValueError("matrices over different fields")
    if not (b.is_square and c.is_square):
        raise ValueError("direct sum requires square matrices")
    k, m = b.n_rows, c.n_rows
    return _from_encodings(b.field, [row + (0,) * m for row in b.enc]
                           + [(0,) * k + row for row in c.enc])


def ref_rows(X: Matrix) -> list[list]:
    return [[X[i, j] for j in range(X.n_cols)] for i in range(X.n_rows)]


def ref_product(a: list[list], b: list[list], zero) -> list[list]:
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


def ref_det(a: list[list], one):
    """The Leibniz expansion: a signed sum over all permutations."""
    out = one - one
    for perm in permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(a)), 2))
        term = -one if inversions % 2 else one
        for i, j in enumerate(perm):
            term = term * a[i][j]
        out = out + term
    return out


def ref_rref(a: list[list]) -> tuple[list[list], int]:
    """The reduced row echelon form and the rank, by Gauss-Jordan."""
    rows = [list(r) for r in a]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [e / rows[rank][col] for e in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rows, rank


def ref_inverse(a: list[list], zero, one) -> list[list] | None:
    """The inverse by Gauss-Jordan on [a | I], or None when a is singular."""
    n = len(a)
    rows, _ = ref_rref([row + [one if i == j else zero for j in range(n)]
                           for i, row in enumerate(a)])
    if any(rows[i][i] != one for i in range(n)):
        return None
    return [row[n:] for row in rows]


# -- trial division, the reference for polyfq's factoring ---------------------

def monic_polys(field: Field, degree: int):
    """Monic degree-d polynomials in canonical order: coefficient tuples over
    element encodings, constant term compared first (the same ordering the
    field modulus search uses)."""
    for tail in product(range(field.q), repeat=degree):
        yield UniPoly(field, (*tail, 1))


def ref_is_irreducible(f: UniPoly) -> bool:
    """Trial division by every monic polynomial of degree at most deg(f)/2."""
    if f.degree < 1:
        return False
    for d in range(1, f.degree // 2 + 1):
        for g in monic_polys(f.field, d):
            if (f % g).is_zero():
                return False
    return True


def ref_factor_monic(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """The factors of f by a root scan over the field, in encoding order of
    the root, then trial division by the monic polynomials of ascending
    degree, each degree in coefficient-tuple order.  Once every factor of
    degree < d is divided out, a monic degree-d divisor is irreducible."""
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    f = f.monic()
    fld = f.field
    found = []
    for c in range(fld.q):
        lin = UniPoly(fld, (fld._mul(c, fld.p - 1), 1))
        e = 0
        while f.degree >= 1 and (f % lin).is_zero():
            f, e = f // lin, e + 1
        if e:
            found.append((lin, e))
    d = 2
    while 2 * d <= f.degree:
        for g in monic_polys(fld, d):
            e = 0
            while f.degree >= g.degree and (f % g).is_zero():
                f, e = f // g, e + 1
            if e:
                found.append((g, e))
            if f.degree < 2 * d:
                break
        d += 1
    if f.degree >= 1:
        found.append((f, 1))
    return found


def ref_modulus(p: int, s: int) -> tuple[int, ...]:
    """The first monic irreducible of degree s over GF(p), candidates in
    coefficient-tuple order with the constant term compared first."""
    prime = make_field(p)
    for tail in product(range(p), repeat=s):
        g = UniPoly(prime, (*tail, 1))
        if ref_is_irreducible(g):
            return g.enc
    raise AssertionError("no irreducible found")


# -- the field's tables entry by entry, the reference for gf and scan -------

def ref_digit_add(a, b, p: int, s: int):
    """Digitwise sum mod p of encodings, elementwise on numpy arrays."""
    if p == 2:
        return a ^ b
    out, w = 0, 1
    for _ in range(s):
        out = out + (a // w + b // w) % p * w
        w *= p
    return out


def ref_log_tables(field: Field) -> tuple[list[int], list[int], list[int]]:
    """(exp, log, zech) of an extension field: the first primitive g >= p,
    with g * k for every encoding k grown by p - 1 digit adds per digit."""
    p, s, q = field.p, field.s, field.q
    for g in range(p, q):
        times_g = np.zeros(1, dtype=np.int64)
        v = g  # g * x^t
        for _ in range(s):
            step, dv = [times_g], 0
            for _ in range(p - 1):
                dv = ref_digit_add(dv, v, p, s)
                step.append(ref_digit_add(times_g, dv, p, s))
            times_g = np.concatenate(step)
            hi, lo = divmod(v, p ** (s - 1))
            fold = sum(-hi * m % p * p**t for t, m in enumerate(field.modulus[:-1]))
            v = ref_digit_add(lo * p, fold, p, s)
        exp = np.ones(1, dtype=np.int64)
        while len(exp) < q - 1:
            exp = np.concatenate([exp, times_g[exp]])
            times_g = times_g[times_g]
        exp = exp[:q - 1]
        if np.count_nonzero(exp == 1) == 1:
            break
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    succ = exp - exp % p + (exp + 1) % p
    zech = np.where(succ == 0, -1, log[succ]).tolist()
    return exp.tolist(), log.tolist(), zech


def ref_encoded_tables(field: Field) -> tuple[np.ndarray, np.ndarray]:
    """(add, mul) as q x q int64 arrays: a digit add over all pairs, and
    mod p or exp[(log a + log b) mod (q - 1)] with the zero row and column
    set after."""
    p, s, q = field.p, field.s, field.q
    k = np.arange(q, dtype=np.int64)
    if s == 1:
        return (k[:, None] + k) % p, k[:, None] * k % p
    exp, log, _ = ref_log_tables(field)
    log_a = np.array(log, dtype=np.int64)
    mul = np.array(exp, dtype=np.int64)[(log_a[:, None] + log_a) % (q - 1)]
    mul[0, :] = mul[:, 0] = 0
    return ref_digit_add(k[:, None], k, p, s), mul


def ref_field_mul(field: Field, a, b):
    """Products of encodings by schoolbook multiplication of the digit
    vectors mod p, reduced by the modulus: no log table; elementwise on
    int64 arrays as well as on ints."""
    p, s, mod = field.p, field.s, field.modulus
    da, db = ([c // p**t % p for t in range(s)] for c in (a, b))
    prod = [sum(da[i] * db[k - i] for i in range(max(0, k - s + 1), min(k, s - 1) + 1)) % p
            for k in range(2 * s - 1)]
    for k in range(2 * s - 2, s - 1, -1):  # x^k = x^(k-s) * (x^s - modulus)
        for t in range(s):
            prod[k - s + t] = (prod[k - s + t] - prod[k] * mod[t]) % p
    return sum(d * p**t for t, d in enumerate(prod[:s]))


def fresh_arithmetic_cache():
    """scan's shared Tables behind an empty per-field cache of its own, so
    that a test sets the arithmetic up inside its own trace and leaves scan's
    cache as it was."""
    return mock.patch.object(scan, "_shared", lru_cache(scan._shared.__wrapped__))


def arithmetic_peak(p: int, s: int, chunk: int = scan.CHUNK) -> int:
    """The tracemalloc peak, in bytes, of scan.Tables setting up the
    arithmetic of a fresh GF(p^s), with scan.CHUNK set to chunk."""
    f = Field(p, s, make_field(p, s).modulus)  # a fresh field: no log tables yet
    with mock.patch.object(scan, "CHUNK", chunk), fresh_arithmetic_cache():
        tracemalloc.start()
        try:
            scan.Tables(f)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


# -- references no command runs, checked against the package's fast paths ----

def smith_normal_form(M: PolyMatrix) -> tuple[UniPoly, ...]:
    """The invariant factors h1 | h2 | ... | hn of a square matrix over
    GF(q)[x], monic, units as 1: the Smith chain of the whole matrix, by
    elementary row and column operations (polyfq._smith_chain)."""
    fld = M.field
    return tuple(UniPoly(fld, h)
                 for h in _smith_chain(fld, [[e.enc for e in row] for row in M.rows]))


def monic_irreducibles(field: Field, degree: int):
    for g in monic_polys(field, degree):
        if is_irreducible_poly(g):
            yield g


def companion(f: UniPoly) -> Matrix:
    """Companion matrix of a monic polynomial of degree >= 1."""
    if not f.is_monic():
        raise ValueError("companion matrix requires a monic polynomial")
    if f.degree < 1:
        raise ValueError("companion matrix requires degree >= 1")
    return _rcf_of_factors(f.field, [f])


def companion_not_solution(f: UniPoly, a: FieldElement) -> bool:
    """True iff C(f)^2 differs from a*C(f) for a monic f of degree >= 3:
    no companion block of degree 3 or more solves X^2 = aX."""
    if f.degree < 3:
        raise ValueError("check applies to polynomials of degree >= 3")
    c = companion(f)
    return c * c != a * c


def multipoly(field: Field, n_vars: int, terms) -> MultiPoly:
    """The sum of the (exponent vector, coefficient) pairs in terms."""
    out: dict = {}
    for exps, c in terms:
        exps = tuple(exps)
        out[exps] = out.get(exps, field.zero()) + c
    return MultiPoly(field, n_vars, out)


def encoded_terms(gens: GeneratorSet):
    """The nonzero polynomials of any generator set as encoded terms, as
    ideal._generator_terms gives them; the zero polynomial vanishes
    everywhere and is left out.  A polynomial sits in the layer where the
    lowest-index variable it reads is fixed, layer 0 for a constant."""
    n = gens.n
    polys = []  # (layer, terms)
    for g in gens.generators:
        terms = [(c.encoding, [n - v for v, e in enumerate(exps) for _ in range(e)])
                 for exps, c in g.terms.items()]
        if terms:
            polys.append((max([max(fs) for _, fs in terms if fs] or [0]), terms))
    polys.sort(key=lambda lt: lt[0])
    degree = max([1] + [len(fs) for _, terms in polys for _, fs in terms])
    rows, widths = [], [0] * (n + 1)
    for g, (t, terms) in enumerate(polys):
        widths[t] = max(widths[t], len(terms))
        for j, (c, fs) in enumerate(terms):
            rows += (g, j, t, c, *fs, *[0] * (degree - len(fs)))
    layers = [t for t, _ in polys]
    ends = [bisect_left(layers, t) for t in range(n + 2)]
    return np.array(rows, dtype=np.int64).reshape(-1, degree + 4), ends, widths


def variety(gens: GeneratorSet, field: Field, *,
            budget: int = DEFAULT_VARIETY_BUDGET) -> list[tuple[FieldElement, ...]]:
    """All common zeros in F_q^n, in ascending point-encoding order, by the
    package's variety scan (ideal._common_zeros) on any generator set."""
    idx = _common_zeros(encoded_terms(gens), gens.n, field, budget)
    return [tuple(map(field.from_encoding, row))
            for row in scan.decode(field.q, gens.n, idx).T.tolist()]


def evaluate(g: MultiPoly, point) -> FieldElement:
    """g at a point, term by term with FieldElement arithmetic."""
    pt = list(point)
    if len(pt) != g.n_vars:
        raise ValueError(f"expected a point of length {g.n_vars}")
    acc = g.field.zero()
    for exps, c in g.terms.items():
        term = c
        for x, e in zip(pt, exps):
            for _ in range(e):
                term = term * x
        acc = acc + term
    return acc


def orbit_invariants(inst: EquationInstance, label: OrbitLabel) -> tuple[FieldElement, ...]:
    """The invariant vector of an orbit, evaluated on its representative."""
    return char_coeffs(representative(inst, label))


def satisfies_yang_baxter(inst: EquationInstance, X: Matrix) -> bool:
    """True iff A X A = X A X with A = a*I; defined for every a including 0."""
    _check_shape(inst, X)
    a = inst.a
    return X * (a * a) == (X * X) * a


def orbit_sum_count(inst: EquationInstance) -> tuple[int, list[tuple[str, int]]]:
    """The solution count as the sum of the orbit sizes, and the (label,
    size) of each orbit."""
    per_orbit = [(r.label.text(), r.orbit_size) for r in list_orbits(inst)]
    return sum(size for _, size in per_orbit), per_orbit


def ref_block_solution(inst: EquationInstance, k: int, b: FieldElement) -> Matrix:
    """b*I of size n-2k ⊕ k copies of Q(a), as a fold of direct_sum over the
    blocks."""
    fld = inst.field
    blocks = [Matrix.scalar(fld, inst.n - 2 * k, b)] if inst.n > 2 * k else []
    blocks += [Matrix(fld, [[fld.zero(), fld.one()], [fld.zero(), inst.a]])] * k
    return reduce(direct_sum, blocks)


# -- image points as FieldElements, and separation one subset at a time ------

@dataclass(frozen=True)
class ImagePoint:
    """The invariant vector of the rank-j orbit: coordinates C(j,i)*a^i."""

    index: int
    coords: tuple[FieldElement, ...]


def image_points(inst: EquationInstance) -> list[ImagePoint]:
    """The n+1 image points of the orbits, indexed by representative rank."""
    fld = inst.field
    return [ImagePoint(j, tuple(FieldElement(fld, c) for c in row))
            for j, row in enumerate(_image_encodings(inst))]


def subset_separates(inst: EquationInstance, subset) -> bool:
    """True iff projecting the image points onto the 1-based coordinate
    subset stays injective, i.e. those invariants still separate all orbits."""
    idx = sorted(set(subset))
    if not idx:
        raise ValueError("subset must be nonempty")
    if idx[0] < 1 or idx[-1] > inst.n:
        raise ValueError(f"coordinate indices must lie in 1..{inst.n}")
    return _separates(_image_encodings(inst), [i - 1 for i in idx])


def trace_separates(inst: EquationInstance) -> bool:
    """Whether the trace (the first invariant) alone separates the orbits.

    Its n+1 orbit values are 0, a, 2a, ..., na, so this holds whenever the
    characteristic exceeds n."""
    return subset_separates(inst, [1])
