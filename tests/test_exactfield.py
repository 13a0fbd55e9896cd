"""Tower construction, arithmetic, and the Galois action."""

from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankfold import (DegreeCollapse, DimensionMismatch, FieldMismatch, QQ, SplitMix64, TowerHeightZero, exactfield,
                      mq_field)
from rankfold import rng as splitmix
from rankfold.exactfield import (
    MQElement,
    MultiquadraticField,
    crt_extend,
    is_rational_square,
    rational_lift,
    rational_reconstruction,
)
from rankfold.gf import is_prime, sqrt_mod
from rankfold.linalg import ExactMatrix
from rankfold.serial import field_from_json


def test_empty_tower_is_q():
    K = mq_field(())
    assert K.m == 0 and K.dim == 1
    assert K.scalar(Fraction(3, 2)).coords == (Fraction(3, 2),)


def test_basis_order_q_sqrt2_sqrt3():
    L = mq_field((2, 3))
    assert L.dim == 4
    assert [L.basis_label(j) for j in range(4)] == ["1", "r1", "r2", "r1*r2"]
    # basis monomial products: sqrt2 * sqrt3 = sqrt6 sits at index 3
    assert (L.alpha(1) * L.alpha(2)).coords == (0, 0, 0, 1)


def test_degree_collapse_detected():
    with pytest.raises(DegreeCollapse) as info:
        mq_field((2, 8))  # 8 = (2*sqrt2)^2 already lies in Q(sqrt2)
    assert info.value.index == 2
    with pytest.raises(DegreeCollapse):
        mq_field((4,))
    with pytest.raises(DegreeCollapse):
        mq_field((2, 3, 6))  # sqrt6 = sqrt2*sqrt3
    with pytest.raises(ValueError):
        mq_field((0,))


def test_rational_square_predicate():
    assert is_rational_square(Fraction(4, 9))
    assert is_rational_square(Fraction(0))
    assert not is_rational_square(Fraction(2))
    assert not is_rational_square(Fraction(-4))
    assert not is_rational_square(Fraction(9, 8))


def test_add_sub_neg():
    L = mq_field((2, 3))
    x = L.element([1, 1, 0, 0])
    y = L.element([0, 0, 1, 1])
    assert (x + y).coords == (1, 1, 1, 1)
    assert (x + (-x)).coords == (0, 0, 0, 0)
    assert (x - x) == L.zero
    one_plus = L.element([1, 1, 0, 0])
    one_minus = L.element([1, -1, 0, 0])
    assert one_plus + one_minus == 2


def test_mul_known_values():
    K = mq_field((2,))
    x = K.element([1, 1])  # 1 + sqrt2
    assert (x * x).coords == (3, 2)
    L = mq_field((2, 3))
    assert (L.alpha(1) * L.alpha(1)) == 2
    assert (L.alpha(2) * L.alpha(2)) == 3
    y = L.element([2, 0, 0, Fraction(1, 2)])
    assert y * L.one == y


def test_inverse_known_value():
    # (1 + sqrt2 + sqrt3)^-1, frozen from solving the 4x4 rational system
    # given by the regular representation.
    L = mq_field((2, 3))
    x = L.element([1, 1, 1, 0])
    inv = x.inverse()
    assert inv.coords == (Fraction(1, 2), Fraction(1, 4), 0, Fraction(-1, 4))
    assert x * inv == L.one
    assert (L.alpha(1).inverse()).coords == (0, Fraction(1, 2), 0, 0)
    with pytest.raises(ZeroDivisionError):
        L.zero.inverse()


def test_field_axioms_random():
    L = mq_field((2, 3, 5))
    rng = SplitMix64(101)
    for _ in range(60):
        x = L.random_element(rng, 9)
        y = L.random_element(rng, 9)
        z = L.random_element(rng, 9)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        if x:
            assert x * x.inverse() == L.one
            assert (x / x) == L.one


def test_pow():
    K = mq_field((2,))
    x = K.element([1, 1])
    assert x ** 0 == K.one
    assert x ** 3 == x * x * x
    assert x ** -2 == (x * x).inverse()


def test_mul_by_alpha_matches_general_mul():
    L = mq_field((2, 3, 5))
    rng = SplitMix64(7)
    for _ in range(1000):
        x = L.random_element(rng, 9)
        i = rng.randint(1, 3)
        assert x.mul_by_alpha(i) == x * L.alpha(i)


def test_galois_action():
    L = mq_field((2, 3))
    r2 = L.alpha(1)
    assert r2.galois([1]) == -r2
    assert r2.galois([2]) == r2
    x = L.element([1, 2, 3, 4])
    assert x.galois([1]).coords == (1, -2, 3, -4)
    assert x.galois([1, 2]).coords == (1, -2, -3, 4)
    assert x.galois([1]).galois([1]) == x
    # automorphism property on random samples
    rng = SplitMix64(3)
    for _ in range(50):
        a = L.random_element(rng, 9)
        b = L.random_element(rng, 9)
        assert (a * b).galois([1]) == a.galois([1]) * b.galois([1])


def test_fixed_field_of_full_group_is_q():
    L = mq_field((2, 3, 5))
    rng = SplitMix64(15)
    for _ in range(30):
        x = L.random_element(rng, 9)
        # Averaging over the whole group projects onto Q.
        acc = L.zero
        for mask in range(8):
            acc = acc + x.galois([i + 1 for i in range(3) if mask >> i & 1])
        avg = acc.scale(Fraction(1, 8))
        assert avg.is_rational()


def test_split_join_roundtrip():
    L = mq_field((2, 3))
    K = mq_field((2,))
    x = L.element([1, 2, 3, 4])
    x0, x1 = x.split()
    assert x0.field == K and x0.coords == (1, 2)
    assert x1.coords == (3, 4)
    assert MQElement.join(L, x0, x1) == x
    assert x0.embed(L) + x1.embed(L) * L.alpha(2) == x
    with pytest.raises(TowerHeightZero):
        mq_field(()).one.split()
    with pytest.raises(FieldMismatch):
        MQElement.join(L, x0, L.one)
    # the matrix join and split: the tower as the fold algebra of its subtower
    rng = SplitMix64(16)
    for h in (1, 2, 3):
        T = mq_field((2, 3, 5)[:h])
        sub = T.subfield(h - 1)
        U, V = (ExactMatrix(sub, [[sub.random_element(rng, 9) for _ in range(3)] for _ in range(2)]) for _ in "UV")
        W = T.join(U, V)
        assert W.field == T and W.shape == (2, 3)
        assert W == U.map_entries(lambda e: e.embed(T), T) + V.map_entries(lambda e: e.embed(T) * T.alpha(h), T)
        assert T.split(W) == (U, V)
        with pytest.raises(FieldMismatch):
            T.join(W, W)
        with pytest.raises(FieldMismatch):
            T.join(U, ExactMatrix(QQ, [[1, 2, 3], [4, 5, 6]]))
        with pytest.raises(DimensionMismatch):
            T.join(U, ExactMatrix(sub, [[sub.one] * 3]))
        with pytest.raises(FieldMismatch):
            T.split(U)
        # matrices without rows keep their width
        empty = ExactMatrix(sub, (), cols=3)
        assert T.join(empty, empty).shape == (0, 3)
        assert [M.shape for M in T.split(ExactMatrix(T, (), cols=3))] == [(0, 3), (0, 3)]
    Q = mq_field(())
    M = ExactMatrix(Q, [[1, 2], [3, 4]])
    with pytest.raises(TowerHeightZero):
        Q.join(M, M)
    with pytest.raises(TowerHeightZero):
        Q.split(M)


def test_blocks_over_roundtrip():
    L = mq_field((2, 3, 5))
    x = L.element(list(range(8)))
    for h in range(4):
        blocks = x.blocks_over(h)
        assert len(blocks) == 8 >> h
        assert MQElement.from_blocks(L, blocks) == x


def test_mixed_field_operations_rejected():
    K = mq_field((2,))
    L = mq_field((2, 3))
    with pytest.raises(FieldMismatch):
        K.one + L.one
    assert not (K.one == L.one)
    assert K.one == K.one.embed(L).split()[0]


def test_scalar_coercion():
    L = mq_field((2, 3))
    x = L.alpha(1)
    assert x + 1 == L.element([1, 1, 0, 0])
    assert 2 * x == L.element([0, 2, 0, 0])
    assert x / 2 == L.element([0, Fraction(1, 2), 0, 0])
    assert Fraction(1, 3) + x == L.element([Fraction(1, 3), 1, 0, 0])


def test_rational_elements_hash_like_their_value():
    L = mq_field((2, 3))
    for c in (3, 0, -7, Fraction(5, 4)):
        assert L.scalar(c) == c and hash(L.scalar(c)) == hash(c)
    assert {3: "v"}[L.scalar(3)] == "v"
    assert {Fraction(5, 4): "v"}[L.scalar(Fraction(5, 4))] == "v"
    x = L.element([1, 2, 0, 3])
    assert hash(x) == hash(L.element([1, 2, 0, 3])) and x in {x: 1}


def test_scale_matches_scalar_mul():
    L = mq_field((2, 3))
    rng = SplitMix64(9)
    for _ in range(40):
        x = L.random_element(rng, 9)
        assert x.scale(Fraction(5, 7)) == x * Fraction(5, 7)


def test_subfield_prefix():
    L = mq_field((2, 3, 5))
    assert L.subfield(0) == mq_field(())
    assert L.subfield(2) == mq_field((2, 3))
    assert L.subfield(3) is L


def test_serialization_roundtrip():
    L = mq_field((2, 3, 5))
    back = field_from_json(L.to_json())
    assert back == L
    x = L.element([Fraction(1, 3), 2, 0, -1, 0, 0, Fraction(7, 2), 0])
    assert back.element_from_json(L.element_to_json(x)) == x
    assert field_from_json(QQ.to_json()) == QQ


def test_rng_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]
    c = SplitMix64(43)
    assert a.next_u64() != c.next_u64()


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), count=st.integers(0, 60), lo=st.integers(-2 ** 70, 2 ** 70),
       span=st.one_of(st.integers(1, 2 ** 64), st.sampled_from([1, 2, 10, 2 ** 63 + 1, 3 * 2 ** 62, 2 ** 64])))
def test_randints_draws_what_randint_draws(seed, count, lo, span):
    # spans just past 2^63 reject about half of all draws
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert b.randints(count, lo, lo + span - 1) == [a.randint(lo, lo + span - 1) for _ in range(count)]
    assert b.next_u64() == a.next_u64()
    with pytest.raises(ValueError):
        b.randints(1, lo, lo - 1)


def test_randints_keeps_every_accepted_draw_of_a_pass(monkeypatch):
    # span 2^63 + 1 rejects about half of all draws; a pass keeps every draw
    # below the limit, so a long count takes a few dozen passes, not one per rejection
    lo, hi = 5, 5 + 2 ** 63
    ref = SplitMix64(7)
    want = [ref.randint(lo, hi) for _ in range(20000)]
    passes, mix = [], splitmix._mix
    monkeypatch.setattr(splitmix, "_mix", lambda z: passes.append(z) or mix(z))
    assert SplitMix64(7).randints(20000, lo, hi) == want
    assert len(passes) <= 40


# -- sign embeddings mod p ------------------------------------------------------------


def residues(x, p):
    return [c.numerator * pow(c.denominator, -1, p) % p for c in x.coords]


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
    for n in range((1 << 28) - 400, 1 << 28):
        assert is_prime(n) == trial(n)
    # Carmichael numbers, and strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5, 7
    for n in (561, 41041, 2047, 1373653, 3215031751):
        assert not is_prime(n)
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)  # psi_13, the end of the deterministic range


def test_embedding_primes_split_the_tower():
    gens = (-1, Fraction(3, 5), 7)
    L = mq_field(gens)
    primes = [L.sign_embedding(i).p for i in range(4)]
    assert primes == sorted(primes, reverse=True) and len(set(primes)) == 4
    for i, p in enumerate(primes):
        emb = L.sign_embedding(i)
        assert is_prime(p) and p < 1 << 28
        for a, r in zip(L.gens, emb.roots):
            assert (r * r - a.numerator * pow(a.denominator, -1, p)) % p == 0 and r % p
    # kept on the instance: an equal field built apart has its own embeddings, at the same primes
    assert L.sign_embedding(0) is L.sign_embedding(0)
    other = MultiquadraticField(gens)
    assert other.sign_embedding(0) is not L.sign_embedding(0) and other.sign_embedding(0).p == primes[0]


def test_rotated_towers_share_one_prime_search(monkeypatch):
    L = mq_field((2, 3, 5, 7))
    primes = [L.sign_embedding(i).p for i in range(4)]
    calls = []
    monkeypatch.setattr(exactfield, "is_prime", lambda n: calls.append(n) or is_prime(n))
    rotated = mq_field((7, 2, 3, 5))
    assert [rotated.sign_embedding(i).p for i in range(4)] == primes
    assert calls == []
    # the embeddings stay per field: their roots follow the generator order
    for i in range(4):
        roots = L.sign_embedding(i).roots
        assert rotated.sign_embedding(i).roots == roots[3:] + roots[:3]
        assert rotated.sign_embedding(i) is not L.sign_embedding(i)


@pytest.mark.parametrize("gens", [(2, 3, 5, 7), (-1, Fraction(3, 5), 7), ()])
def test_sign_embedding_is_a_ring_isomorphism_mod_p(gens):
    L = mq_field(gens)
    rng = SplitMix64(91)
    for i in range(2):
        emb = L.sign_embedding(i)
        p = emb.p
        for _ in range(10):
            x = L.element([Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(L.dim)])
            z = L.element([Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(L.dim)])
            fx, fz = emb.forward(residues(x, p)), emb.forward(residues(z, p))
            assert (emb.forward(residues(x * z, p)) == fx * fz % p).all()
            assert (emb.forward(residues(x + z, p)) == (fx + fz) % p).all()
            assert emb.inverse(fx).tolist() == residues(x, p)
        # sign pattern t sends sqrt(a_k) to -r_k exactly when bit k of t is set
        for k in range(L.m):
            t = np.arange(L.dim)
            want = np.where(t >> k & 1, p - emb.roots[k], emb.roots[k])
            assert (emb.forward(residues(L.alpha(k + 1), p)) == want).all()


def test_sqrt_mod_of_every_residue():
    for p in (3, 13, 17, 41, 97, 257, 65537):  # 257 and 65537: p - 1 = 2^s
        squares = {x * x % p for x in range(p)}
        assert all(sqrt_mod(a, p) ** 2 % p == a for a in squares)


def test_crt_and_rational_reconstruction():
    p, q = 268435399, 268435367
    rng = SplitMix64(93)
    for _ in range(50):
        x = Fraction(rng.randint(-(1 << 26), 1 << 26), rng.randint(1, 1 << 26))
        u = [x.numerator * pow(x.denominator, -1, r) % r for r in (p, q)]
        both = crt_extend([u[0]], p, [u[1]], q)[0]
        assert both % p == u[0] and both % q == u[1]
        assert rational_reconstruction(both, p * q) == x
    # beyond sqrt(modulus / 2) there is no reconstruction, or a different one
    tall = Fraction(1 << 40, 3)
    u = tall.numerator * pow(3, -1, p * q) % (p * q)
    assert rational_reconstruction(u, p * q) != tall
    assert rational_reconstruction(0, p) == 0
    assert rational_reconstruction(p - 1, p) == -1


def lift_by_reconstruction(residues, confirm):
    """rational_lift with every value through rational_reconstruction."""
    lift = acc = None
    modulus = 1
    for new, p in residues:
        if confirm and lift is not None and all((q.numerator - r * q.denominator) % p == 0 for q, r in zip(lift, new)):
            return lift
        acc = list(new) if acc is None else crt_extend(acc, modulus, new, p)
        modulus *= p
        lift = [rational_reconstruction(u, modulus) for u in acc]
        if None in lift:
            lift = None
        elif not confirm:
            return lift
    return None


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("confirm", [False, True])
def test_rational_lift_returns_in_range_integers_as_ints(count, confirm):
    # the values around the reconstruction bound of `count` primes (M - 1
    # is -1), and fractions, each alone and all together, in streams of one
    # to four primes: count + 1 primes lift +-(bound + 1) too, and one more
    # confirms
    primes = (268435399, 268435367, 268435331, 268435313)
    bound = isqrt(prod(primes[:count]) // 2)
    values = [0, bound, -bound, bound + 1, -bound - 1, -1, Fraction(3, 7), Fraction(-5, 11), Fraction(bound // 7, 9)]

    def residues(xs, k):
        for p in primes[:k]:
            yield [Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in xs], p

    for xs in [[x] for x in values] + [values]:
        for k in range(1, len(primes) + 1):
            lift = rational_lift(residues(xs, k), confirm)
            assert lift == lift_by_reconstruction(residues(xs, k), confirm)
            assert all(type(q) is (int if Fraction(q).denominator == 1 else Fraction) for q in lift or ())
    if confirm:
        assert rational_lift(residues(values, 4), True) == values
