"""Fields past one scan chunk: the computed add/mul lookups against the dense
reference tables, and the oracles that run on them against the closed forms."""

import tracemalloc

import numpy as np
import pytest

from support import ref_encoded_tables
from ffyb import scan
from ffyb.gf import Field, is_prime, make_field
from ffyb.ideal import verify_variety
from ffyb.matfq import gl_order
from ffyb.orbits import (all_labels, brute_force_centralizer_order, enumerate_gl,
                         representative, stabilizer_order)
from ffyb.solutions import EquationInstance, brute_force_count, closed_form_count

# Every field with 256 < q <= 1024: the primes 257..1021, 2^9, 2^10, 3^6,
# 5^4, 7^3 and the squares 17^2..31^2.
COMPUTED_FIELDS = [(p, s) for p in range(2, 1025) if is_prime(p)
                   for s in range(1, 11) if 256 < p**s <= 1024]


def test_the_cut_is_one_scan_chunk():
    assert 256 * 256 == scan.CHUNK
    assert isinstance(scan.Tables(make_field(2, 8)).mul, np.ndarray)
    assert isinstance(scan.Tables(make_field(257)).mul, scan.Computed)
    assert {q for p, s in COMPUTED_FIELDS for q in [p**s]} >= {257, 289, 343, 512, 625,
                                                               729, 961, 1021, 1024}


@pytest.mark.parametrize("p,s", COMPUTED_FIELDS)
def test_computed_tables_equal_the_dense_reference(p, s):
    f = make_field(p, s)
    q = f.q
    tabs = scan.Tables(f)
    rng = np.random.default_rng(q)
    flat = rng.permutation(q * q)
    a, b = rng.integers(0, q, (3, 4)), rng.integers(0, q, (5, 6))
    for got, want in zip((tabs.add, tabs.mul), ref_encoded_tables(f), strict=True):
        assert isinstance(got, scan.Computed)
        # every flat index, in one shuffled 1-D and one 2-D array
        assert np.array_equal(got[flat], want.ravel()[flat])
        assert got[flat].dtype == np.int64
        assert np.array_equal(got[flat.reshape(q, q)], want.ravel()[flat.reshape(q, q)])
        # a 4-D array broadcast from two digit arrays, as the commutant builds it
        assert np.array_equal(got[a[:, None, :, None] * q + b[None, :, None, :]],
                              want[a[:, None, :, None], b[None, :, None, :]])
        for c in (0, 1, p - 1, q - 1, int(rng.integers(q))):
            assert np.array_equal(got[c * q:(c + 1) * q], want[c])  # a row slice
            d = int(rng.integers(q))
            assert got[c * q + d] == want[c, d]  # a scalar int


@pytest.mark.parametrize("p,s", COMPUTED_FIELDS)
def test_oracles_on_computed_tables_match_the_closed_forms(p, s):
    f = make_field(p, s)
    q = f.q
    budget = q * q  # the table-entry refusal still counts q^2, past 10^6 from q = 1001
    a = f.from_encoding(q - 1)
    one = EquationInstance(f, 1, a)
    assert brute_force_count(one) == closed_form_count(one).total == 2
    assert verify_variety(EquationInstance(f, 2, a), budget=budget).equal
    assert len(enumerate_gl(f, 1, budget=budget)) == gl_order(1, q) == q - 1
    for label in all_labels(1):
        X = representative(one, label)
        assert (brute_force_centralizer_order(one, X, budget=budget)
                == stabilizer_order(one, label))


def test_scans_past_one_chunk_allocate_no_q_by_q_table():
    # two int64 tables of GF(23^2) take 4.5 MB; the O(q) vectors and one
    # chunk of scan indices stay under 1 MB
    f = Field(23, 2, make_field(23, 2).modulus)  # a fresh field: nothing cached
    scan.computed_tables.cache_clear()
    tracemalloc.start()
    try:
        assert brute_force_count(EquationInstance(f, 1, f.one())) == 2
        assert verify_variety(EquationInstance(f, 2, f.from_encoding(444))).equal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert f._tables is None
