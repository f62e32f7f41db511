import numpy as np
import pytest

from ffyb import scan
from ffyb.gf import FieldElement, is_prime, make_field
from ffyb.matfq import Matrix, parse_matrix
from ffyb.polyfq import UniPoly
from support import arithmetic_peak, ref_log_tables

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def test_prime_field_construction():
    f = make_field(2, 1)
    assert f.q == 2
    assert f.modulus == (0, 1)  # modulus x: plain residues mod p


def test_f4_has_the_unique_irreducible_quadratic():
    f = make_field(2, 2)
    # x^2, x^2+1 and x^2+x all factor over GF(2); x^2+x+1 is the only choice
    assert f.modulus == (1, 1, 1)
    assert f.q == 4


def test_f9_modulus_is_irreducible_by_root_scan():
    f = make_field(3, 2)
    assert f.q == 9
    c0, c1, c2 = f.modulus
    assert c2 == 1
    for r in range(3):
        assert (c0 + c1 * r + c2 * r * r) % 3 != 0


def test_non_prime_p_rejected():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(5, 0)


def test_examples_of_arithmetic():
    f2 = make_field(2)
    one = f2.one()
    assert (one + one).is_zero()

    f4 = make_field(2, 2)
    x = f4.from_encoding(2)
    assert (x * x).encoding == 3  # x^2 reduces to x+1 mod x^2+x+1

    f5 = make_field(5)
    assert f5.from_encoding(2).inv().encoding == 3


def test_inverse_of_zero_raises():
    f = make_field(3)
    with pytest.raises(ZeroDivisionError):
        f.zero().inv()


@pytest.mark.parametrize("p,s", SMALL_FIELDS)
def test_all_elements_distinct_and_complete(p, s):
    f = make_field(p, s)
    elems = [f.from_encoding(k) for k in range(f.q)]
    assert len(elems) == f.q
    assert len(set(elems)) == f.q
    assert [e.encoding for e in elems] == list(range(f.q))
    assert elems[min(2, f.q - 1)] == f.from_encoding(min(2, f.q - 1))


@pytest.mark.parametrize("p,s", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, s):
    f = make_field(p, s)
    elems = [f.from_encoding(k) for k in range(f.q)]
    one = f.one()
    for a in elems:
        if not a.is_zero():
            assert a * a.inv() == one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,s", SMALL_FIELDS)
def test_frobenius_exhaustive(p, s):
    f = make_field(p, s)
    elems = [f.from_encoding(k) for k in range(f.q)]
    for a in elems:
        for b in elems:
            assert (a + b) ** p == a**p + b**p


def test_int_to_field_examples():
    assert make_field(2).from_int(2).is_zero()
    assert make_field(3).from_int(3).is_zero()
    assert make_field(5).from_int(7).encoding == 2


def test_int_to_field_lands_in_prime_subfield():
    f9 = make_field(3, 2)
    assert f9.from_int(4).encoding == 1
    assert f9.from_int(5) == f9.one() + f9.one()


def test_pow_and_division():
    f7 = make_field(7)
    three = f7.from_encoding(3)
    assert three**6 == f7.one()  # Fermat
    assert three**-1 == three.inv()
    assert (three / three) == f7.one()


def test_powers_are_repeated_products():
    # FieldElement, UniPoly and Matrix share one square-and-multiply
    f = make_field(3, 2)
    x = f.from_encoding(5)
    cases = [(x, f.one()), (UniPoly.from_encodings(f, (1, 2, 3)), UniPoly.one(f)),
             (parse_matrix(f, "1,2;0,7"), Matrix.identity(f, 2))]
    for base, prod in cases:
        for e in range(10):
            assert base**e == prod, (base, e)
            prod = prod * base
    prod = f.one()
    for e in range(10):
        assert x**-e == prod
        prod = prod * x.inv()
    with pytest.raises(ZeroDivisionError):
        f.zero() ** -1
    for base, _ in cases[1:]:
        with pytest.raises(TypeError):
            base ** -1


def test_mismatched_fields_rejected():
    a = make_field(2).one()
    b = make_field(3).one()
    with pytest.raises(ValueError):
        a + b


def test_is_prime():
    assert [m for m in range(20) if is_prime(m)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_encoded_tables_agree_with_object_arithmetic():
    # scan.Tables on both sides of one scan chunk: GF(257) and GF(23^2)
    # compute their entries, the rest gather from dense tables
    for p, s in [(2, 1), (3, 1), (31, 1), (2, 2), (3, 2), (5, 3), (2, 7), (257, 1), (23, 2)]:
        f = make_field(p, s)
        tabs = scan.Tables(f)
        k = np.arange(f.q, dtype=np.int64)
        elems = [f.from_encoding(e) for e in range(f.q)]
        for x in elems:
            assert tabs.add(x.encoding, k).tolist() == [(x + y).encoding for y in elems]
            assert tabs.mul(x.encoding, k).tolist() == [(x * y).encoding for y in elems]


# Every field of order at most 1024: q = 2, GF(4), odd p with s >= 3 such as
# 3^5, 5^3 and 7^3, and the primes up to 1021.
FIELDS_TO_1024 = [(p, s) for p in range(2, 1025) if is_prime(p)
                  for s in range(1, 11) if p**s <= 1024]


@pytest.mark.parametrize("p,s", [ps for ps in FIELDS_TO_1024 if ps[1] > 1])
def test_log_tables_equal_reference(p, s):
    f = make_field(p, s)
    assert f._log_tables() == ref_log_tables(f)


@pytest.mark.parametrize("p,s", [(23, 2), (3, 5), (257, 1), (2, 7), (521, 1), (2, 8), (251, 1)])
def test_encoded_tables_peak_is_the_tables(p, s):
    # no q x q temporary: each table is computed into its own index array
    q = p**s
    tables = 2 * 8 * q * q
    if q * q <= scan.CHUNK:
        assert arithmetic_peak(p, s) <= tables + 2**20
    else:
        # past one scan chunk no table is built; with CHUNK raised the same
        # field builds its tables, where a q x q temporary would pass 1 MB
        assert arithmetic_peak(p, s) < 2**20
        assert arithmetic_peak(p, s, chunk=q * q) <= tables + 2**20


# The moduli chosen by the candidate search; every encoding depends on them.
PINNED_MODULI = {
    (2, 3): (1, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (5, 3): (1, 0, 1, 1),
    (7, 3): (1, 0, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (13, 2): (1, 3, 1),
    (23, 2): (1, 0, 1),
    (2, 12): (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 12): (1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1),
}


@pytest.mark.parametrize("ps", sorted(PINNED_MODULI))
def test_pinned_moduli(ps):
    assert make_field(*ps).modulus == PINNED_MODULI[ps]


def test_elements_are_their_encodings():
    assert FieldElement.__slots__ == ("field", "encoding")
    f = make_field(2, 3)
    assert f.from_encoding(6).encoding == 6
    assert f.one().encoding == 1 and f.zero().encoding == 0
