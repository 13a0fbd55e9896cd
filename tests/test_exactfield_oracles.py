"""Multiquadratic tower arithmetic against sympy's exact expansion of
sum_S c_S * prod_{k in S} sqrt(a_k), plus property-based checks of the
field axioms and of the structured operations."""

from fractions import Fraction
from math import prod

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from rankfold import mq_field

# The second tower has non-integer and negative generators, so the product
# kernel's denominator D = 3 * 2 is not 1 and some square roots are imaginary.
TOWERS = [mq_field((2, 3, 5, 7)), mq_field((Fraction(2, 3), -5, Fraction(7, 2)))]


def sym(x):
    """The element as a sympy expression in the square roots of its tower."""
    roots = [sympy.sqrt(sympy.Rational(a.numerator, a.denominator)) for a in x.field.gens]
    return sum(
        sympy.Rational(c.numerator, c.denominator) * prod(r for k, r in enumerate(roots) if S >> k & 1)
        for S, c in enumerate(x.coords)
    )


def same(e1, e2):
    return sympy.expand(e1 - e2) == 0


coords = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)),
)


def elements(draw, field, nonzero=False):
    x = field.element(draw(st.lists(coords, min_size=field.dim, max_size=field.dim)))
    return field.one if nonzero and not x else x


@st.composite
def field_and_elements(draw, count, nonzero=False):
    field = draw(st.sampled_from(TOWERS))
    return field, [elements(draw, field, nonzero) for _ in range(count)]


oracle_settings = settings(max_examples=60, deadline=None, database=None)
axiom_settings = settings(max_examples=150, deadline=None, database=None)


@oracle_settings
@given(field_and_elements(2))
def test_product_matches_sympy(case):
    _, (x, y) = case
    assert same(sym(x * y), sym(x) * sym(y))


@oracle_settings
@given(field_and_elements(1, nonzero=True))
def test_inverse_matches_sympy(case):
    _, (x,) = case
    assert same(sym(x.inverse()) * sym(x), 1)


@pytest.mark.parametrize("field", TOWERS, ids=str)
def test_dense_products_and_inverses_match_sympy(field):
    x = field.element([Fraction(3 * j - 7, j + 1) for j in range(field.dim)])
    y = field.element([Fraction(j * j - 5, 2 * j + 3) for j in range(field.dim)])
    assert same(sym(x * y), sym(x) * sym(y))
    assert same(sym(x.inverse()) * sym(x), 1)
    assert x * x.inverse() == field.one


@axiom_settings
@given(field_and_elements(1, nonzero=True))
def test_inverse_is_two_sided(case):
    F, (x,) = case
    assert x * x.inverse() == F.one == x.inverse() * x
    assert x / x == F.one


@axiom_settings
@given(field_and_elements(3))
def test_ring_axioms(case):
    _, (x, y, z) = case
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@axiom_settings
@given(field_and_elements(2), st.data())
def test_structured_operations_agree_with_products(case, data):
    F, (x, y) = case
    i = data.draw(st.integers(1, F.m))
    assert x.mul_by_alpha(i) == x * F.alpha(i)
    c = data.draw(coords)
    assert x.scale(c) == x * F.scalar(c) == x * c
    negated = data.draw(st.lists(st.integers(1, F.m), unique=True))
    assert (x * y).galois(negated) == x.galois(negated) * y.galois(negated)
    # galois(x) = sum_S c_S * prod_{k in S} (+-alpha_k), through general products
    signed = {k: -F.alpha(k) if k in negated else F.alpha(k) for k in range(1, F.m + 1)}
    flipped = F.zero
    for S, c in enumerate(x.coords):
        term = F.scalar(c)
        for k, root in signed.items():
            if S >> (k - 1) & 1:
                term = term * root
        flipped = flipped + term
    assert x.galois(negated) == flipped
