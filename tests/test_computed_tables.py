"""Scan arithmetic on both sides of one scan chunk: the dense and the computed
add/mul lookups against the dense reference tables, and the oracles that run
on the computed ones against the closed forms."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from support import arithmetic_peak, fresh_arithmetic_cache, ref_encoded_tables
from ffyb import scan
from ffyb.gf import Field, is_prime, make_field
from ffyb.ideal import verify_variety
from ffyb.matfq import gl_order
from ffyb.orbits import (all_labels, brute_force_centralizer_order, enumerate_gl,
                         mixed_label, representative, stabilizer_order)
from ffyb.solutions import EquationInstance, brute_force_count, closed_form_count

# Every field with 256 < q <= 1024: the primes 257..1021, 2^9, 2^10, 3^6,
# 5^4, 7^3 and the squares 17^2..31^2.
COMPUTED_FIELDS = [(p, s) for p in range(2, 1025) if is_prime(p)
                   for s in range(1, 11) if 256 < p**s <= 1024]


# Every field with q <= 256, which Tables serves from dense q x q tables.
DENSE_FIELDS = [(p, s) for p in range(2, 257) if is_prime(p)
                for s in range(1, 9) if p**s <= 256]


def test_the_cut_is_one_scan_chunk():
    assert 256 * 256 == scan.CHUNK
    # the int64 mul table of GF(2^8) takes 8 * 256^2 bytes (its add is an
    # XOR); one table of GF(257) would take 8 * 257^2
    assert arithmetic_peak(2, 8) >= 8 * 256**2
    assert arithmetic_peak(257, 1) < 8 * 257**2
    assert {q for p, s in COMPUTED_FIELDS for q in [p**s]} >= {257, 289, 343, 512, 625,
                                                               729, 961, 1021, 1024}
    assert {q for p, s in DENSE_FIELDS for q in [p**s]} >= {2, 4, 8, 9, 25, 49, 169, 251, 256}


def assert_tables_equal_the_reference(f: Field):
    p, q = f.p, f.q
    tabs = scan.Tables(f)
    rng = np.random.default_rng(q)
    k = np.arange(q, dtype=np.int64)
    flat, rows = rng.permutation(q * q), rng.permutation(q)
    a, b = rng.integers(0, q, (3, 4)), rng.integers(0, q, (5, 6))
    ref_add, ref_mul = ref_encoded_tables(f)
    for got, want in zip((tabs.add, tabs.mul), (ref_add, ref_mul), strict=True):
        # every (a, b), as one shuffled 1-D pair and as one broadcast grid
        assert np.array_equal(got(flat // q, flat % q), want.ravel()[flat])
        grid = got(rows[:, None], k)
        assert grid.dtype == np.int64
        assert np.array_equal(grid, want[rows])
        # a 4-D broadcast from two digit arrays, as the commutant builds it
        assert np.array_equal(got(a[:, None, :, None], b[None, :, None, :]),
                              want[a[:, None, :, None], b[None, :, None, :]])
        for c in (0, 1, p - 1, q - 1, int(rng.integers(q))):
            d = int(rng.integers(q))
            assert got(c, d) == want[c, d]  # scalar ints
    for c in (0, 1, p - 1, q - 1, int(rng.integers(q))):
        assert np.array_equal(tabs.mul(c, k), ref_mul[c])  # a row
    assert np.array_equal(tabs.neg, ref_mul[p - 1])
    assert tabs.inv[0] == 0 and (ref_mul[k[1:], tabs.inv[1:]] == 1).all()


@pytest.mark.parametrize("p,s", COMPUTED_FIELDS)
def test_computed_tables_equal_the_dense_reference(p, s):
    assert_tables_equal_the_reference(make_field(p, s))


@pytest.mark.parametrize("p,s", DENSE_FIELDS)
def test_dense_tables_equal_the_dense_reference(p, s):
    assert_tables_equal_the_reference(make_field(p, s))


@pytest.mark.parametrize("p,s", COMPUTED_FIELDS)
def test_oracles_on_computed_tables_match_the_closed_forms(p, s):
    f = make_field(p, s)
    q = f.q
    a = f.from_encoding(q - 1)
    one = EquationInstance(f, 1, a)
    assert brute_force_count(one) == closed_form_count(one).total == 2
    assert verify_variety(EquationInstance(f, 2, a)).equal
    assert len(enumerate_gl(f, 1)) == gl_order(1, q) == q - 1
    for label in all_labels(1):
        X = representative(one, label)
        assert brute_force_centralizer_order(one, X) == stabilizer_order(one, label)


@pytest.mark.parametrize("p,s", [(257, 1), (17, 2), (2, 9)])
def test_centralizer_at_n_2_past_one_chunk(p, s):
    # Tables.det at n = 2 on computed arithmetic: the commutant of diag(a, 0)
    # is the q^2 diagonal matrices, (q - 1)^2 of them invertible
    f = make_field(p, s)
    inst = EquationInstance(f, 2, f.from_encoding(f.q - 1))
    label = mixed_label(2, 1, "0")
    got = brute_force_centralizer_order(inst, representative(inst, label))
    assert got == stabilizer_order(inst, label) == (f.q - 1) ** 2


def test_scans_past_one_chunk_allocate_no_q_by_q_table():
    # one int64 table of GF(23^2) takes 2.2 MB; the O(q) vectors and one
    # chunk of scan indices stay under 1 MB
    f = Field(23, 2, make_field(23, 2).modulus)  # a fresh field: no log tables yet
    with fresh_arithmetic_cache():
        tracemalloc.start()
        try:
            assert brute_force_count(EquationInstance(f, 1, f.one())) == 2
            assert verify_variety(EquationInstance(f, 2, f.from_encoding(444))).equal
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("p,s,n", [(251, 1, 1), (3, 5, 2)])
def test_scans_with_fewer_indices_than_the_table_build_none(p, s, n):
    # q and q^2 indices: the lookups compute their entries, and the peak
    # stays under one int64 q x q table, 8 * q^2 bytes
    f = make_field(p, s)
    a = f.from_encoding(f.q - 1)
    with fresh_arithmetic_cache(), mock.patch.object(scan, "arithmetic",
                                                     wraps=scan.arithmetic) as spy:
        tracemalloc.start()
        try:
            if n == 1:
                assert brute_force_count(EquationInstance(f, 1, a)) == 2
            else:
                assert verify_variety(EquationInstance(f, 2, a)).equal
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert {c.args for c in spy.call_args_list} == {(f, False)}
    assert peak < 8 * f.q**2


def test_a_scan_past_the_table_size_gathers_from_the_tables():
    # n = 2 over GF(5) scans 5^4 indices, more than the 5^2 table entries
    f = make_field(5)
    inst = EquationInstance(f, 2, f.one())
    with fresh_arithmetic_cache(), mock.patch.object(scan, "arithmetic",
                                                     wraps=scan.arithmetic) as spy:
        assert brute_force_count(inst) == closed_form_count(inst).total
    assert {c.args for c in spy.call_args_list} == {(f, True)}


def test_scans_of_one_field_share_its_tables():
    f = make_field(13)
    with fresh_arithmetic_cache(), mock.patch.object(scan, "arithmetic",
                                                     wraps=scan.arithmetic) as spy:
        tabs = scan.gate(f, 3, 13**3, "variety scan")
        # the cut, not the index space, picks the object
        assert scan.gate(f, 4, 13**4, "matrix enumeration") is tabs
        assert scan.gate(f, 1, 13, "variety scan") is not tabs
        # CHUNK below q^2: the computed Tables, never the stale dense one
        with mock.patch.object(scan, "CHUNK", 100):
            assert scan.gate(f, 4, 13**4, "matrix enumeration") is not tabs
        assert scan.gate(f, 4, 13**4, "matrix enumeration") is tabs
    assert [c.args for c in spy.call_args_list] == [(f, True), (f, False)]
