"""GF(p^m) arithmetic against sympy's GF(p)[x] (galoistools), plus
property-based checks of the field axioms."""

import pytest

pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcdex, gf_irreducible_p, gf_mul, gf_rem, gf_strip

from rankfold.gf import ExtField, _first_irreducible

FIELDS = [ExtField(p, m) for p, m in ((2, 5), (3, 4), (5, 3), (23, 6), (23, 8))]


def dense(coeffs):
    """Increasing-degree coefficients to sympy's dense form (leading first)."""
    return gf_strip(ZZ.map(list(reversed(coeffs))))


def padded(poly, m):
    """sympy's dense form back to m increasing-degree coefficients."""
    out = [int(c) for c in reversed(poly)]
    return tuple(out + [0] * (m - len(out)))


@pytest.mark.parametrize("p", [2, 3, 5, 23])
@pytest.mark.parametrize("m", range(1, 9))
def test_first_irreducible_is_the_least_irreducible(p, m):
    f = _first_irreducible(p, m)
    assert len(f) == m + 1 and f[-1] == 1
    assert gf_irreducible_p(dense(f), p, ZZ)
    n = sum(c * p**i for i, c in enumerate(f[:m]))
    for smaller in range(n):
        g = [(smaller // p**i) % p for i in range(m)] + [1]
        assert not gf_irreducible_p(dense(g), p, ZZ), g


def elements(draw, field, nonzero=False):
    coeffs = draw(st.lists(st.integers(0, field.p - 1), min_size=field.m, max_size=field.m))
    if nonzero and not any(coeffs):
        coeffs[0] = 1
    return field.element(coeffs)


@st.composite
def field_and_elements(draw, count, nonzero=False):
    field = draw(st.sampled_from(FIELDS))
    return field, [elements(draw, field, nonzero) for _ in range(count)]


oracle_settings = settings(max_examples=150, deadline=None, database=None)


@oracle_settings
@given(field_and_elements(2))
def test_product_matches_sympy(case):
    F, (x, y) = case
    want = gf_rem(gf_mul(dense(x.coeffs), dense(y.coeffs), F.p, ZZ), dense(F.modulus), F.p, ZZ)
    assert (x * y).coeffs == padded(want, F.m)


@oracle_settings
@given(field_and_elements(1, nonzero=True))
def test_inverse_matches_sympy_bezout(case):
    F, (x,) = case
    s, _, h = gf_gcdex(dense(x.coeffs), dense(F.modulus), F.p, ZZ)
    assert h == [1]
    assert x.inverse().coeffs == padded(s, F.m)
    assert x * x.inverse() == F.one


@oracle_settings
@given(field_and_elements(3))
def test_ring_axioms(case):
    F, (x, y, z) = case
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@oracle_settings
@given(field_and_elements(1))
def test_frobenius_fixes_the_field(case):
    F, (x,) = case
    assert x ** (F.p ** F.m) == x
    assert F.frobenius(x, F.m) == x
    assert F.frobenius(x) == x ** F.p
