"""The scalar arithmetic each field binds (Field._add, _mul and _inv) against
the batched scan arithmetic and the references of support.py: every pair of
the small fields, random pairs of the largest, and fields that make_field
did not build; and the hook that binds them on first read."""

from unittest import mock

import numpy as np
import pytest

from support import ref_digit_add, ref_encoded_tables, ref_field_mul
from ffyb import scan
from ffyb.gf import Field, is_prime, make_field

# Every field of order at most 64: GF(2) to GF(61), the powers of 2 up to
# 2^6, 3^2, 3^3, 5^2 and 7^2.
FIELDS_TO_64 = [(p, s) for p in range(2, 65) if is_prime(p)
                for s in range(1, 7) if p**s <= 64]


def assert_every_pair_agrees(f: Field):
    q = f.q
    k = np.arange(q, dtype=np.int64)
    tabs = scan.Tables(f)
    ref_add, ref_mul = ref_encoded_tables(f)
    add = [[f._add(a, b) for b in range(q)] for a in range(q)]
    mul = [[f._mul(a, b) for b in range(q)] for a in range(q)]
    assert add == tabs.add(k[:, None], k).tolist() == ref_add.tolist()
    assert mul == tabs.mul(k[:, None], k).tolist() == ref_mul.tolist()
    assert mul == ref_field_mul(f, k[:, None], k).tolist()  # no log table
    inv = [f._inv(a) for a in range(1, q)]
    assert inv == tabs.inv[1:].tolist()
    assert (ref_mul[k[1:], inv] == 1).all()
    with pytest.raises(ZeroDivisionError):
        f._inv(0)


@pytest.mark.parametrize("p,s", FIELDS_TO_64)
def test_every_pair_agrees_with_the_tables_and_the_references(p, s):
    assert_every_pair_agrees(make_field(p, s))


@pytest.mark.parametrize("p,s,modulus", [
    (2, 3, (1, 1, 0, 1)),  # x^3 + x + 1, not the canonical x^3 + x^2 + 1
    (3, 2, (2, 1, 1)),  # x^2 + x + 2, not the canonical x^2 + 1
    (5, 2, None), (2, 4, None), (7, 1, None), (2, 1, None),
])
def test_a_field_not_from_make_field_binds_its_own_arithmetic(p, s, modulus):
    f = Field(p, s, modulus or make_field(p, s).modulus)
    assert f is not make_field(p, s)
    assert_every_pair_agrees(f)


@pytest.mark.parametrize("p,s", [(2, 20), (3, 12), (1048573, 1)])
def test_random_pairs_of_the_largest_fields(p, s):
    f = Field(p, s, make_field(p, s).modulus)  # fresh: its lists go with the test
    q = f.q
    rng = np.random.default_rng(q)
    a, b = rng.integers(0, q, (2, 10**4))
    a[:10], b[10:20], b[20:30] = 0, 0, a[20:30]
    b[30:40] = ref_field_mul(f, a[30:40], p - 1)  # a + b = 0: the Zech log of -1
    pairs = list(zip(a.tolist(), b.tolist()))
    assert [f._add(x, y) for x, y in pairs] == ref_digit_add(a, b, p, s).tolist()
    assert [f._mul(x, y) for x, y in pairs] == ref_field_mul(f, a, b).tolist()
    nonzero = a[a != 0]
    inv = np.array([f._inv(x) for x in nonzero.tolist()], dtype=np.int64)
    assert (ref_field_mul(f, nonzero, inv) == 1).all()
    with pytest.raises(ZeroDivisionError):
        f._inv(0)


BOUND = ("_logs", "_add", "_mul", "_inv")


@pytest.mark.parametrize("p,s", [(7, 1), (3, 2)])
def test_a_fresh_field_holds_no_arithmetic_and_a_stray_name_binds_none(p, s):
    f = Field(p, s, make_field(p, s).modulus)
    assert not set(BOUND) & set(vars(f))
    assert getattr(f, "nope", None) is None
    with pytest.raises(AttributeError, match="nope"):
        f.nope
    assert not set(BOUND) & set(vars(f))


@pytest.mark.parametrize("p,s", [(7, 1), (3, 2)])
@pytest.mark.parametrize("name", BOUND)
def test_the_first_read_of_any_binds_all_four_once(p, s, name):
    f = Field(p, s, make_field(p, s).modulus)
    with mock.patch.object(f, "_bind", wraps=f._bind) as bind:
        first = getattr(f, name)
        assert set(BOUND) <= set(vars(f))
        assert getattr(f, name) is first
        for other in BOUND:
            getattr(f, other)
    bind.assert_called_once_with()
