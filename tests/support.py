"""Shared helpers for the test suite."""

import random
from itertools import combinations, permutations

from ffyb.gf import Field, all_elements
from ffyb.matfq import Matrix


def random_matrix(rng: random.Random, field: Field, n: int) -> Matrix:
    elems = all_elements(field)
    return Matrix(field, [[rng.choice(elems) for _ in range(n)] for _ in range(n)])


def random_invertible(rng: random.Random, field: Field, n: int) -> Matrix:
    while True:
        m = random_matrix(rng, field, n)
        if not m.det().is_zero():
            return m


# -- an entry-wise reference for matfq, on rows of FieldElements ------------

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
