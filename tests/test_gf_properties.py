"""Property tests of field arithmetic on random elements of larger fields."""

from hypothesis import given, settings, strategies as st

from ffyb.gf import make_field
from ffyb.polyfq import UniPoly

PROPERTY_FIELDS = [(2, 7), (2, 12), (3, 5), (5, 3), (7, 3), (23, 2), (101, 1)]


@st.composite
def elements(draw, count):
    f = make_field(*draw(st.sampled_from(PROPERTY_FIELDS)))
    return [f.from_encoding(draw(st.integers(0, f.q - 1))) for _ in range(count)]


def _digit_poly(x):
    """The residue of x as a polynomial over GF(p): its base-p digits."""
    f, k = x.field, x.encoding
    prime = make_field(f.p)
    digits = []
    for _ in range(f.s):
        k, r = divmod(k, f.p)
        digits.append(r)
    return UniPoly.from_encodings(prime, digits)


@settings(deadline=None)
@given(elements(3))
def test_field_axioms_property(elems):
    a, b, c = elems
    f = a.field
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + f.zero() == a and a * f.one() == a
    assert a + (-a) == f.zero() and a - b == a + (-b)
    assert (a + b) ** f.p == a**f.p + b**f.p
    if a:
        assert a * a.inv() == f.one()
        assert a ** (f.q - 1) == f.one()


@settings(deadline=None)
@given(elements(2))
def test_product_matches_polynomial_reference(elems):
    a, b = elems
    f = a.field
    modulus = UniPoly.from_encodings(make_field(f.p), f.modulus)
    assert _digit_poly(a * b) == (_digit_poly(a) * _digit_poly(b)) % modulus
    assert _digit_poly(a + b) == _digit_poly(a) + _digit_poly(b)
