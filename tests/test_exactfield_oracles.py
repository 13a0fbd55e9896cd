"""Multiquadratic tower arithmetic against sympy's exact expansion of
sum_S c_S * prod_{k in S} sqrt(a_k), plus property-based checks of the
field axioms, of the structured operations and of the canonical integer
storage."""

from fractions import Fraction
from math import gcd, prod

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from oracles import mul_by_alpha
from rankfold import mq_field
from rankfold.exactfield import MQElement
from rankfold.linalg import ExactMatrix

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
    assert mul_by_alpha(x, i) == x * F.alpha(i)
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


def canonical(x):
    """Storage (num, den) in canonical form: a tuple of 2^m ints and den > 0
    with gcd(den, *num) = 1, so zero is stored as (0, ..., 0) / 1."""
    return (
        type(x.num) is tuple and len(x.num) == x.field.dim
        and all(type(s) is int for s in x.num)
        and type(x.den) is int and x.den > 0 and gcd(x.den, *x.num) == 1
    )


@axiom_settings
@given(field_and_elements(2), st.data())
def test_every_operation_stores_a_canonical_pair(case, data):
    F, (x, y) = case
    i = data.draw(st.integers(1, F.m))
    h = data.draw(st.integers(0, F.m))
    c = data.draw(coords)
    results = [x + y, x - y, y - y, -x, x * y, x * F.zero, x.scale(c), x + c, c - x, x * c,
               x * F.alpha(i), x.galois([i]), x ** 2, *x.split(), *x.blocks_over(h),
               MQElement.join(F, *y.split()), MQElement.from_blocks(F, y.blocks_over(h)),
               x.blocks_over(h)[-1].embed(F), F.element(x.coords), F.scalar(c), F.alpha(i)]
    if y:
        results += [y.inverse(), x / y, y ** -1]
    M = ExactMatrix(F, [[x, y, x * y], [y, x + y, F.one]])
    results += [e for row in M.rref()[0].entries for e in row]
    assert all(canonical(e) for e in results)


@axiom_settings
@given(field_and_elements(1))
def test_element_from_coords_restores_the_storage(case):
    F, (x,) = case
    y = F.element(x.coords)
    assert y == x and (y.num, y.den) == (x.num, x.den)
    assert F.element_from_json(F.element_to_json(x)).num == x.num


@axiom_settings
@given(field_and_elements(2))
def test_dividing_out_a_product_restores_the_storage(case):
    F, (x, y) = case
    if not y:
        y = F.one
    z = (x * y) * y.inverse()
    assert (z.num, z.den) == (x.num, x.den)
