"""Prime fields, quadratic extensions, GF(p^m), and coordinate expansion."""

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankfold import (DimensionMismatch, FieldMismatch, MultiquadraticField, NotASquare, SingularBasis, SplitMix64,
                      mq_field)
from rankfold.gf import (
    ExtField,
    PrimeField,
    QuadExtField,
    expand_to_base,
    is_prime,
    reconstruct_from_base,
)
from rankfold.linalg import ExactMatrix
from rankfold.serial import field_from_json


def test_primality():
    primes = [2, 3, 5, 7, 23, 97, 2 ** 31 - 1]
    composites = [1, 4, 9, 15, 561, 1105, 2 ** 31 + 1]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)
    with pytest.raises(ValueError):
        PrimeField(15)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def test_strong_pseudoprime_to_the_primes_up_to_37_is_refused():
    """psi_12 passes Miller-Rabin to every prime base up to 37; the base 41
    exposes it, and from psi_13 on no fixed base set is trusted."""
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    with pytest.raises(ValueError):
        PrimeField(PSI_12)
    with pytest.raises(ValueError):
        is_prime(PSI_13)
    # the primes next to psi_12 and just below psi_13 (sympy.nextprime, prevprime)
    assert is_prime(318665857834031151167483) and is_prime(3317044064679887385961813)


def test_gfp_arithmetic():
    F = PrimeField(23)
    a = F.element(17)
    b = F.element(9)
    assert (a + b).val == 3
    assert (a - b).val == 8
    assert (a * b).val == 153 % 23
    assert (a / b) * b == a
    assert (-a).val == 6
    assert a ** 22 == F.one  # Fermat
    assert F.element(0) ** 0 == F.one
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_gfp_sqrt():
    F = PrimeField(23)  # 23 = 3 mod 4
    r = F.sqrt(F.element(2))
    assert r.val == 5 and r * r == F.element(2)
    with pytest.raises(NotASquare):
        F.sqrt(F.element(F.smallest_nonresidue()))
    # p = 1 mod 4 exercises the full Tonelli-Shanks walk
    for p in (13, 17, 29, 101):
        F = PrimeField(p)
        for v in range(p):
            if F.is_square(v):
                r = F.sqrt(v)
                assert (r * r).val == v
                assert r.val <= p - r.val or r.val == 0


def test_is_square_matches_enumeration():
    for p in (3, 5, 7, 11, 23):
        F = PrimeField(p)
        squares = {v * v % p for v in range(p)}
        for v in range(p):
            assert F.is_square(v) == (v in squares)


def test_gf2_allowed_quadext_not():
    F2 = PrimeField(2)
    assert (F2.one + F2.one) == F2.zero
    assert F2.sqrt(F2.one) == F2.one
    with pytest.raises(ValueError):
        QuadExtField(F2)


def test_quadext_arithmetic():
    F = PrimeField(23)
    E = QuadExtField(F)  # smallest non-residue is 5
    assert E.n == 5
    s = E.sqrt_nonresidue
    assert s * s == E.coerce(5)
    rng = SplitMix64(4)
    for _ in range(50):
        x = E.random_element(rng)
        y = E.random_element(rng)
        assert (x + y) * (x - y) == x * x - y * y
        if x:
            assert x * x.inverse() == E.one
        # conjugation is the nontrivial automorphism; norms land in GF(p)
        n = x * x.conjugate()
        assert n.v == 0
    assert E.coerce(7) + 1 == E.coerce(8)


@pytest.mark.parametrize("p, other_nonresidue", [(23, 7), (2147483659, 3)])
def test_quadext_join_and_split(p, other_nonresidue):
    """join(U, V) = U + sV entry by entry and split undoes it, on int64
    arrays and, at 2147483659, where GF(p^2) matrices hold Python ints and
    GF(p) ones int64, on arrays of each field's dtype; both refuse parts of
    unequal shapes or over the wrong field."""
    F = PrimeField(p)
    E = QuadExtField(F)
    rng = SplitMix64(p)
    U, V = (ExactMatrix(F, [[F.random_element(rng) for _ in range(3)] for _ in range(2)]) for _ in "UV")
    W = E.join(U, V)
    assert W.array.dtype == (object if p == 2147483659 else np.int64)
    assert all(M.array.dtype == np.int64 for M in E.split(W))
    assert W.field == E and W.entries == tuple(
        tuple(E.element(u.val, v.val) for u, v in zip(ru, rv)) for ru, rv in zip(U.entries, V.entries))
    assert E.split(W) == (U, V)
    with pytest.raises(DimensionMismatch):
        E.join(ExactMatrix(F, [[1, 2], [3, 4]]), ExactMatrix(F, [[1, 2, 3]]))
    with pytest.raises(FieldMismatch):
        E.join(ExactMatrix(PrimeField(7), [[1, 2]]), ExactMatrix(PrimeField(7), [[3, 4]]))
    with pytest.raises(FieldMismatch):
        E.join(W, W)
    with pytest.raises(FieldMismatch):
        E.split(U)
    with pytest.raises(FieldMismatch):
        E.split(QuadExtField(F, other_nonresidue).join(U, V))


def test_quadext_order_of_multiplicative_group():
    E = QuadExtField(PrimeField(5), 2)
    x = E.element(1, 1)
    assert x ** 24 == E.one


def test_extfield_modulus_and_order():
    F = ExtField(23, 8)
    assert F.order == 23 ** 8
    # lex-first irreducible octic over GF(23), frozen for determinism
    assert F.modulus == (5, 1, 0, 0, 0, 0, 0, 0, 1)
    G = ExtField(2, 4)
    assert G.order == 16
    with pytest.raises(ValueError):
        ExtField(23, 3, modulus=(1, 0, 0, 0))  # not monic of right shape
    for m in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            ExtField(23, m)


def test_extfield_arithmetic_axioms():
    F = ExtField(5, 3)
    rng = SplitMix64(8)
    for _ in range(60):
        x = F.random_element(rng)
        y = F.random_element(rng)
        z = F.random_element(rng)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        if x:
            assert x * x.inverse() == F.one
    x = F.element((1, 2, 1))
    assert x ** (5 ** 3 - 1) == F.one


def test_frobenius():
    F = ExtField(23, 8)
    rng = SplitMix64(12)
    for _ in range(20):
        x = F.random_element(rng)
        y = F.random_element(rng)
        assert F.frobenius(x) == x ** 23
        assert F.frobenius(x + y, 3) == F.frobenius(x, 3) + F.frobenius(y, 3)
        assert F.frobenius(x, 8) == x  # full orbit
        assert F.frobenius(F.frobenius(x, 2), 3) == F.frobenius(x, 5)


@pytest.mark.parametrize(
    "F, c",
    [(PrimeField(23), 5), (QuadExtField(23), 5), (ExtField(5, 3), 3), (mq_field((2, 3)), 5),
     (mq_field((2, 3)), Fraction(-3, 7))],
    ids=["GF(23)", "GF(23^2)", "GF(5^3)", "tower-int", "tower-fraction"],
)
def test_reflected_operators_and_negative_powers(F, c):
    rng = SplitMix64(31)
    for _ in range(10):
        x = F.random_element(rng, 9) if isinstance(F, MultiquadraticField) else F.random_element(rng)
        if not x:
            continue
        assert c - x == -(x - c) and (c - x) + x == c
        assert c / x == x.inverse() * c and (c / x) * x == c
        for k in (1, 2, 5):
            assert x ** -k == (x ** k).inverse()


def test_field_mismatch_is_not_equality():
    assert not (PrimeField(5).one == PrimeField(7).one)
    assert not (ExtField(5, 2).one == ExtField(5, 3).one)
    with pytest.raises(FieldMismatch):
        PrimeField(5).one + PrimeField(7).one


@pytest.mark.parametrize("F", [PrimeField(7), QuadExtField(7), ExtField(7, 3)], ids=["GF(7)", "GF(7^2)", "GF(7^3)"])
def test_every_finite_field_raises_the_same_errors(F):
    """Zero has no inverse, however it is asked for, and an element of an
    unrelated field is refused both ways round by every operator."""
    for invert in (F.zero.inverse, lambda: F.zero ** -1, lambda: F.one / F.zero, lambda: 1 / F.zero):
        with pytest.raises(ZeroDivisionError):
            invert()
    foreign = PrimeField(11).one
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatch):
            op(F.one, foreign)
        with pytest.raises(FieldMismatch):
            op(foreign, F.one)


def test_int_equals_only_the_canonical_residue():
    for F in (PrimeField(5), QuadExtField(5), ExtField(5, 3)):
        x = F.coerce(3)
        assert x == 3 and 3 == x
        assert x != 8 and x != -2
        assert {3: "v"}[x] == "v"
        assert {x: "v"}[3] == "v"
    assert ExtField(5, 3).x != 0 and QuadExtField(5).sqrt_nonresidue != 0
    # a base-field constant of an extension equals the prime-field element, both ways round
    three = PrimeField(5).coerce(3)
    for F in (QuadExtField(5), ExtField(5, 3)):
        assert three == F.coerce(3) and F.coerce(3) == three


_HASH_FIELDS = [PrimeField(5), PrimeField(7), QuadExtField(5), QuadExtField(7), ExtField(5, 2), ExtField(5, 3)]


@st.composite
def ints_and_elements(draw):
    """An int, or an element that is a base-field constant half of the time."""
    kind = draw(st.integers(-1, len(_HASH_FIELDS) - 1))
    if kind < 0:
        return draw(st.integers(-12, 12))
    F = _HASH_FIELDS[kind]
    if draw(st.booleans()):
        return F.coerce(draw(st.integers(0, F.p - 1)))
    coeffs = draw(st.lists(st.integers(0, F.p - 1), min_size=F.degree, max_size=F.degree))
    return F._from_coeffs(coeffs)


@given(ints_and_elements(), ints_and_elements())
def test_equal_values_hash_alike(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_expand_to_base_roundtrip():
    F = ExtField(5, 3)
    rng = SplitMix64(21)
    vec = [F.random_element(rng) for _ in range(4)]
    M = expand_to_base(F, vec)
    assert M.shape == (3, 4)
    assert reconstruct_from_base(F, M) == vec
    # custom basis: any invertible change of basis round-trips too
    basis = [F.element((1, 1, 0)), F.element((0, 1, 0)), F.element((2, 0, 1))]
    M2 = expand_to_base(F, vec, basis)
    assert reconstruct_from_base(F, M2, basis) == vec
    with pytest.raises(SingularBasis):
        expand_to_base(F, vec, [F.one, F.one, F.element((0, 1, 0))])


def test_reconstruct_from_base_rejects_a_matrix_over_another_field():
    F = ExtField(5, 3)
    M = expand_to_base(ExtField(7, 3), [ExtField(7, 3).element((1, 2, 3))])
    with pytest.raises(FieldMismatch):
        reconstruct_from_base(F, M)


def test_expand_rank_counts_independence():
    # x and x^p are GF(p)-independent unless x is in GF(p)
    F = ExtField(5, 3)
    x = F.element((0, 1, 0))
    M = expand_to_base(F, [x, F.frobenius(x)])
    assert M.rank() == 2
    M1 = expand_to_base(F, [F.one, F.element((2, 0, 0))])
    assert M1.rank() == 1


def test_serialization():
    for F in (PrimeField(23), QuadExtField(PrimeField(5), 2), ExtField(23, 8)):
        back = field_from_json(F.to_json())
        assert back == F
    F = ExtField(7, 2)
    x = F.element((3, 4))
    assert F.element_from_json(F.element_to_json(x)) == x
