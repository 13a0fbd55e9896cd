"""Doubled matrix codes: assembly, duality, decoding, fold statistics."""

import time
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankfold import DecodingFailure, SplitMix64, mq_field, plotkin
from rankfold.errors import ParameterMismatch
from rankfold.gabidulin import GabidulinCode, GabidulinMatrixCode
from rankfold.gf import ExtField, PrimeField, QuadExtField, _PolyQuotient
from rankfold.linalg import ExactMatrix, MatrixCode, flatten, random_rank_matrix
from rankfold.modmat import batch_rank_mod, batch_rank_quad, sample_rank_exact
from rankfold.plotkin import (
    FoldStats,
    PlotkinCode,
    fold_probability_experiment,
    gabidulin_plotkin,
    non_mrd_witness,
    plotkin_dual_check,
    plotkin_encode,
    plotkin_fold,
)
from rankfold.reedmuller import RMCode
from rankfold.rng import derive_seed

GF5 = PrimeField(5)
GF23 = PrimeField(23)


def eye(field, n):
    return ExactMatrix.identity(field, n)


def zeros(field, n):
    return ExactMatrix.zeros(field, n, n)


def rand_mat(field, rng, rows, cols):
    return ExactMatrix(
        field, [[field.random_element(rng) for _ in range(cols)] for _ in range(rows)]
    )


# -- encoders --------------------------------------------------------------------


def test_encode_frozen_examples():
    I, Z = eye(GF5, 2), zeros(GF5, 2)
    assert plotkin_encode(2, I, Z, Z, Z) == ExactMatrix.block([[I, Z], [Z, I]])
    assert plotkin_encode(2, Z, Z, I, Z) == ExactMatrix.block([[I, Z], [Z, I.scale(-1)]])
    assert plotkin_encode(2, Z, Z, Z, Z).is_zero()


def test_encode_block_recovery():
    """The assembly is injective: blocks come back from the quadrants."""
    rng = SplitMix64(1)
    a = GF5.element(2)
    inv2 = GF5.element(2).inverse()
    for _ in range(10):
        A0, A1, B0, B1 = (rand_mat(GF5, rng, 2, 3) for _ in range(4))
        Y = plotkin_encode(a, A0, A1, B0, B1)
        tl, tr, bl, br = Y.split_blocks(2, 3)
        assert (tl + br).scale(inv2) == A0
        assert (tl - br).scale(inv2) == B0
        assert (tr.scale(a.inverse()) + bl).scale(inv2) == A1
        assert (bl - tr.scale(a.inverse())).scale(inv2) == B1


# -- dimension and duality --------------------------------------------------------


def test_dim_formula_and_spanning_rank():
    code = gabidulin_plotkin(5, 4, 3, 2)
    assert code.dim == 2 * (4 * 3 + 4 * 2) == 40
    gens = code.basis_codewords()
    assert len(gens) == 40
    flat = ExactMatrix(
        GF5,
        [[B.entries[i][j] for i in range(8) for j in range(8)] for B in gens],
    )
    assert flat.rank() == 40


def test_dim_degenerate_cases():
    F54 = ExtField(5, 4)
    zero_c = GabidulinMatrixCode(GabidulinCode(F54, 0))
    assert PlotkinCode(zero_c, zero_c, 1).dim == 0


def test_duality_random_instances():
    rng = SplitMix64(2)
    for q in (5, 7):
        field = PrimeField(q)
        for trial in range(10):
            c_gens = [rand_mat(field, rng, 2, 2) for _ in range(rng.randint(1, 3))]
            d_gens = [rand_mat(field, rng, 2, 2) for _ in range(rng.randint(1, 3))]
            a = field.element(rng.randint(1, q - 1))
            assert plotkin_dual_check(c_gens, d_gens, a, field, 2, 2)


def test_duality_extreme_codes():
    full = [
        ExactMatrix(GF5, [[1 if (i, j) == (r, c) else 0 for j in range(2)] for i in range(2)])
        for r in range(2)
        for c in range(2)
    ]
    assert plotkin_dual_check(full, full, 2, GF5, 2, 2)
    assert plotkin_dual_check([], [], 2, GF5, 2, 2)


# -- folding -----------------------------------------------------------------------


def test_fold_kills_a_blocks():
    rng = SplitMix64(3)
    a = GF5.element(4)  # square: 4 = 2^2
    sqrt_a = GF5.sqrt(a)
    Z = zeros(GF5, 3)
    for sign in (+1, -1):
        for _ in range(5):
            A0, A1 = rand_mat(GF5, rng, 3, 3), rand_mat(GF5, rng, 3, 3)
            Y = plotkin_encode(a, A0, A1, Z, Z)
            assert plotkin_fold(Y, a, lambda U, V: U + V.scale(sign * sqrt_a)).is_zero()


def test_fold_b_blocks_identities():
    a = GF23.element(9)
    sqrt_a = GF23.sqrt(a)
    assert sqrt_a == GF23.element(3)
    I, Z = eye(GF23, 3), zeros(GF23, 3)
    Y0 = plotkin_encode(a, Z, Z, I, Z)
    two_over_sqrt = GF23.element(2) / sqrt_a
    assert plotkin_fold(Y0, a, lambda U, V: U + V.scale(sqrt_a)) == I.scale(two_over_sqrt)
    assert plotkin_fold(Y0, a, lambda U, V: U + V.scale(-sqrt_a)) == I.scale(-two_over_sqrt)
    # the B1 block folds sign-independently to 2I
    Y1 = plotkin_encode(a, Z, Z, Z, I)
    assert plotkin_fold(Y1, a, lambda U, V: U + V.scale(sqrt_a)) == I.scale(2)
    assert plotkin_fold(Y1, a, lambda U, V: U + V.scale(-sqrt_a)) == I.scale(2)


def test_fold_never_gains_rank():
    rng = SplitMix64(4)
    a = GF5.element(4)
    sqrt_a = GF5.sqrt(a)
    for _ in range(500):
        t = rng.randint(0, 4)
        E = random_rank_matrix(GF5, rng, 4, 4, t)
        folded = plotkin_fold(E, a, lambda U, V: U + V.scale(sqrt_a))
        assert folded.rank() <= t


def block_fold(Y, x):
    """(x^-1 I | I) Y (I ; -x^-1 I) as an explicit block product over the
    field of x, into which Y's entries are mapped first."""
    I = eye(x.field, Y.rows // 2)
    left = ExactMatrix.block([[I.scale(x.inverse()), I]])
    right = ExactMatrix.block([[I], [I.scale(-x.inverse())]])
    return left @ Y @ right


def test_fold_is_the_block_product_over_gf5_squared():
    """GF(5) x GF(5), x -> (r, -r): each component is the block product
    with x = r and with x = -r."""
    rng = SplitMix64(31)
    a = GF5.element(4)
    r = GF5.sqrt(a)
    for _ in range(10):
        Y = rand_mat(GF5, rng, 6, 6)
        plus, minus = plotkin_fold(Y, a, plotkin._SplitAlgebra(r).join)
        assert plus == block_fold(Y, r) and minus == block_fold(Y, -r)


def test_fold_is_the_block_product_over_gf25():
    rng = SplitMix64(32)
    a = GF5.element(2)  # a non-square: the fold lands in GF(5)[s]/(s^2 - 2)
    ext = QuadExtField(GF5, 2)
    for _ in range(10):
        Y = rand_mat(GF5, rng, 6, 6)
        want = block_fold(Y.map_entries(ext.coerce, ext), ext.sqrt_nonresidue)
        assert plotkin_fold(Y, a, ext.join) == want


def test_rm_fold_is_the_block_product_over_the_tower():
    """RMCode.fold on Q(sqrt 2, sqrt 3) and on its descendant one fold
    down: the block product with x = sqrt(a) of the last direction, over
    the base extended by x."""
    rng = SplitMix64(33)
    code = RMCode(mq_field((2, 3)), 1)
    for c in (code, code.subcode()):
        up = mq_field(c.field.gens[: c.base_height] + (c.field.gens[-1],))
        x = up.alpha(up.m)
        for _ in range(3):
            Y = ExactMatrix(c.base_field, [[c.base_field.random_element(rng, 9) for _ in range(c.size)]
                                           for _ in range(c.size)])
            assert c.fold(Y) == block_fold(Y.map_entries(lambda e: e.embed(up), up), x)


# -- decoding: square twist ---------------------------------------------------------


def test_decode_error_free():
    rng = SplitMix64(5)
    code = gabidulin_plotkin(5, 4, 3, 2)
    C = code.random_codeword(rng)
    C_hat, E_hat = code.decode(C)
    assert C_hat == C and E_hat.is_zero()


def test_decode_roundtrip_small():
    rng = SplitMix64(6)
    code = gabidulin_plotkin(5, 4, 3, 2)
    recovered = 0
    for _ in range(20):
        C = code.random_codeword(rng)
        E = random_rank_matrix(GF5, rng, 8, 8, 1)
        try:
            C_hat, E_hat = code.decode(C + E)
        except DecodingFailure:
            continue
        assert C_hat == C and E_hat == E
        recovered += 1
    # fold-drop failures are ~0.7% per trial here; most must round-trip
    assert recovered >= 17


def test_decode_roundtrip_reference_params():
    rng = SplitMix64(7)
    code = gabidulin_plotkin(23, 8, 6, 4)
    assert code.radius == 2 and code.dim == 160
    for _ in range(3):
        C = code.random_codeword(rng)
        E = random_rank_matrix(GF23, rng, 16, 16, 2)
        C_hat, E_hat = code.decode(C + E)
        assert C_hat == C and E_hat == E


def test_decode_never_silently_wrong():
    """An error built to make the first fold collapse forces an explicit
    failure: the erasure stage sees an empty support while the true
    bottom-half error has rank 1, which no codeword can absorb."""
    rng = SplitMix64(8)
    code = gabidulin_plotkin(5, 4, 3, 2)
    b = GF5.sqrt(code.a).inverse()
    M = random_rank_matrix(GF5, rng, 4, 4, 1)
    Z = zeros(GF5, 4)
    E = ExactMatrix.block([[M, Z], [M.scale(-b), Z]])
    assert E.rank() == 1 <= code.radius
    assert plotkin_fold(E, code.a, lambda U, V: U + V.scale(GF5.sqrt(code.a))).is_zero()
    C = code.random_codeword(rng)
    with pytest.raises(DecodingFailure):
        code.decode(C + E)


def test_decode_rejects_wrong_shape():
    code = gabidulin_plotkin(5, 4, 3, 2)
    with pytest.raises(Exception):
        code.decode(zeros(GF5, 4))


# -- decoding: non-square twist ------------------------------------------------------


def test_decode_roundtrip_nonsquare():
    rng = SplitMix64(9)
    F58 = ExtField(5, 8)
    C = GabidulinMatrixCode(GabidulinCode(F58, 6))
    D = GabidulinMatrixCode(GabidulinCode(F58, 2))
    code = PlotkinCode(C, D, 2, radius=1)  # 2 is not a square mod 5
    assert not GF5.is_square(code.a)
    for _ in range(3):
        W = code.random_codeword(rng)
        E = random_rank_matrix(GF5, rng, 16, 16, 1)
        C_hat, E_hat = code.decode(W + E)
        assert C_hat == W and E_hat == E


def test_gabidulin_plotkin_nonsquare_roundtrip():
    # a = 5 is not a square mod 23: the fold runs over GF(23^2), where D's
    # extension decoder needs 2t <= m - k1, so the radius halves to 1
    rng = SplitMix64(22)
    code = gabidulin_plotkin(23, 8, 6, 4, a=5)
    assert code.radius == 1
    for _ in range(4):
        C = code.random_codeword(rng)
        E = random_rank_matrix(GF23, rng, 16, 16, 1)
        C_hat, E_hat = code.decode(C + E)
        assert C_hat == C and E_hat == E


def test_decode_nonsquare_error_free():
    rng = SplitMix64(10)
    F58 = ExtField(5, 8)
    code = PlotkinCode(
        GabidulinMatrixCode(GabidulinCode(F58, 6)),
        GabidulinMatrixCode(GabidulinCode(F58, 2)),
        2,
        radius=1,
    )
    W = code.random_codeword(rng)
    C_hat, E_hat = code.decode(W)
    assert C_hat == W and E_hat.is_zero()


# -- construction constraints ----------------------------------------------------------


def test_gabidulin_plotkin_parameter_guard():
    with pytest.raises(ParameterMismatch):
        gabidulin_plotkin(5, 8, 6, 2)  # 2*6 - 2 = 10 != 8
    with pytest.raises(ParameterMismatch):
        gabidulin_plotkin(5, 4, 3, 2, a=0)


def test_degenerate_zero_radius():
    # t = 0 forces k1 = k2 = m, where the doubled code fills the ambient
    # space; decoding is the trivial membership test that accepts anything
    rng = SplitMix64(11)
    code = gabidulin_plotkin(5, 3, 3, 3)
    assert code.radius == 0 and code.dim == 36 == code.rows * code.cols
    C = code.random_codeword(rng)
    C_hat, E_hat = code.decode(C)
    assert C_hat == C and E_hat.is_zero()
    E = random_rank_matrix(GF5, rng, 6, 6, 1)
    C_hat, E_hat = code.decode(C + E)
    assert C_hat == C + E and E_hat.is_zero()


def test_non_mrd_witness():
    code = gabidulin_plotkin(23, 8, 6, 4)
    w, mrd = non_mrd_witness(code)
    assert mrd == 2 * 8 - (6 + 4) + 1 == 7
    assert w.rank() == 2 * (8 - 6 + 1) == 6
    assert w.rank() < mrd
    # and the witness is a codeword: decoding it with no noise returns it
    C_hat, E_hat = code.decode(w)
    assert C_hat == w and E_hat.is_zero()


# -- fold statistics ---------------------------------------------------------------------


def test_fold_stats_zero_rank_never_drops():
    st = fold_probability_experiment(5, 4, 0, 1, 300, 3)
    assert st.drops == 0 and st.rate == 0.0
    assert st.ci95()[0] == 0.0


def test_fold_stats_rejects_negative_trials():
    with pytest.raises(ParameterMismatch):
        fold_probability_experiment(5, 4, 1, 1, -5, 3)


# Clopper-Pearson bounds from scipy.stats.beta.ppf (scipy 1.17.1), as
# (drops, trials, low, high).
SCIPY_CI95 = [
    (0, 1, 0.0, 0.975),
    (1, 1, 0.025, 1.0),
    (3, 10, 0.06673951117773447, 0.6524528500599973),
    (10, 10, 0.6915028921812392, 1.0),
    (0, 100000, 0.0, 3.68881141579242e-05),
    (1, 100000, 2.531780477933314e-07, 5.571516034774275e-05),
    (7, 100000, 2.8144078805036797e-05, 0.00014422140092234864),
    (500, 1000, 0.46854917297179194, 0.531450827028208),
    (25000, 50000, 0.49560749396550624, 0.5043925060344938),
    (99999, 100000, 0.9999442848396523, 0.9999997468219523),
]


def test_fold_stats_ci95_matches_recorded_values():
    start = time.perf_counter()
    for k, n, lo, hi in SCIPY_CI95:
        got = FoldStats(q=5, m=4, t=1, a=1, square=True, trials=n, drops=k).ci95()
        assert got == pytest.approx((lo, hi), rel=1e-8, abs=0)
    assert time.perf_counter() - start < 1.0


def test_fold_stats_deterministic():
    a = fold_probability_experiment(5, 4, 1, 1, 5000, 42)
    b = fold_probability_experiment(5, 4, 1, 1, 5000, 42)
    assert a == b
    c = fold_probability_experiment(5, 4, 1, 1, 5000, 43)
    assert (a.q, a.m, a.t) == (c.q, c.m, c.t)


def test_fold_stats_consistent_with_bound():
    st = fold_probability_experiment(5, 4, 1, 1, 20000, 12)
    lo, hi = st.ci95()
    assert lo <= st.rate <= hi
    assert hi <= 10 * st.paper_bound
    assert st.to_json()["ci95"] == [lo, hi]
    assert st.to_json()["paper_bound"] == 5.0 ** (1 - 4 - 1)


def test_fold_stats_nonsquare_bound():
    st = fold_probability_experiment(5, 4, 1, 2, 20000, 13)
    assert not st.square
    assert st.paper_bound == 5.0 ** (2 * 1 - 2 * 4 - 2)
    assert st.ci95()[1] <= 100 * st.paper_bound


# Seeded tallies at small q, where many folds and factors have a singular
# leading block and the rank kernels eliminate them in full.
@pytest.mark.parametrize("q, m, t, a, drops", [
    (3, 4, 3, 1, 5616), (3, 4, 3, 2, 473),
    (3, 3, 2, 1, 5147), (3, 3, 2, 2, 335),
    (5, 4, 3, 1, 1856), (5, 4, 3, 2, 70),
])
def test_fold_experiment_tallies_are_pinned(q, m, t, a, drops):
    assert fold_probability_experiment(q, m, t, a, 20000, 3).drops == drops


def test_fold_experiment_refuses_characteristic_2():
    # x^2 - 1 = (x - 1)^2 over GF(2): the fold is not the doubling fold
    with pytest.raises(ParameterMismatch, match="odd characteristic"):
        fold_probability_experiment(2, 4, 1, 1, 100, 0)


@pytest.mark.parametrize("a", [265, PrimeField(2147483647).smallest_nonresidue()])
def test_fold_experiment_folds_exactly_at_2_31(monkeypatch, a):
    """At q = 2^31 - 1 a square-twist fold of the factors sums products near
    2^62.  The rank kernels receive exactly the folds of the sampled factors
    in Python ints, and the drops are those ExactMatrix.rank finds among the
    folds of the errors E = X Z."""
    q, m, t = 2147483647, 4, 3
    F = PrimeField(q)
    square = F.is_square(F.coerce(a))
    assert square == (a == 265)
    seen = {}

    def spy(name, fn):
        def call(*args):
            seen[name] = args, fn(*args)
            return seen[name][1]
        return call

    for name in ("sample_rank_factors", "batch_rank_mod", "batch_rank_quad"):
        monkeypatch.setattr(plotkin, name, spy(name, getattr(plotkin, name)))
    stats = fold_probability_experiment(q, m, t, a, 256, 5)
    X, Z = (A.tolist() for A in seen["sample_rank_factors"][1])
    Zt = [[list(col) for col in zip(*z)] for z in Z]
    if square:
        b = int(F.sqrt(F.coerce(a)).inverse().val)
        P = [[[(x[r][c] + b * x[m + r][c]) % q for c in range(t)] for r in range(m)] for x in X]
        Qt = [[[(b * z[r][c] + z[m + r][c]) % q for c in range(t)] for r in range(m)] for z in Zt]
        (mats, p), _ = seen["batch_rank_mod"]
        assert p == q and mats.tolist() == P + Qt
        K = F
    else:
        (got_u, got_v, p, nr), _ = seen["batch_rank_quad"]
        assert (p, nr) == (q, a)
        assert got_u.tolist() == [x[:m] for x in X] + [z[m:] for z in Zt]
        assert got_v.tolist() == [x[m:] for x in X] + [z[:m] for z in Zt]
        K = QuadExtField(q, a)
        b = K.sqrt_nonresidue
    drops = 0
    for x, z in zip(X, Z):
        E = [[sum(x[r][k] * z[k][c] for k in range(t)) % q for c in range(2 * m)] for r in range(2 * m)]
        # (I | b I) E (b I ; I), entry by entry over K
        fold = [[b * E[r][c] + E[r][m + c] + b * b * E[m + r][c] + b * E[m + r][m + c]
                 for c in range(m)] for r in range(m)]
        drops += ExactMatrix(K, [[K.coerce(v) for v in row] for row in fold]).rank() < t
    assert stats.drops == drops


def _drops_from_errors(q, m, t, a, trials, seed):
    """The route through the errors: draw chunk 0's E = X Z in full, fold it
    blockwise and rank the m x m folds with the batched kernels."""
    E = sample_rank_exact(np.random.default_rng(derive_seed(seed, 0)), q, trials, 2 * m, 2 * m, t)
    E00, E01, E10, E11 = E[:, :m, :m], E[:, :m, m:], E[:, m:, :m], E[:, m:, m:]
    F = PrimeField(q)
    if F.is_square(F.coerce(a)):
        b = int(F.sqrt(F.coerce(a)).inverse().val)
        ranks = batch_rank_mod((b * E00 + E01 + b * b * E10 + b * E11) % q, q)
    else:
        ranks = batch_rank_quad((E01 + a * E10) % q, (E00 + E11) % q, q, a)
    return int((ranks < t).sum())


@pytest.mark.parametrize("q, m, t", [(3, 3, 2), (3, 4, 2), (3, 4, 3), (5, 3, 2), (5, 4, 3)])
@pytest.mark.parametrize("square", [True, False])
def test_fold_experiment_matches_the_route_through_the_errors(q, m, t, square):
    """Settings where folds drop rank often under both twists (a rank-1
    fold over GF(q^2) never drops, so t >= 2)."""
    a = 1 if square else PrimeField(q).smallest_nonresidue()
    trials = 1500
    for seed in (4, 5):
        want = _drops_from_errors(q, m, t, a, trials, seed)
        assert fold_probability_experiment(q, m, t, a, trials, seed).drops == want
    assert want > 0


def test_fold_stats_matches_exact_recount():
    """Recompute one small batch with exact arithmetic."""
    rng = SplitMix64(21)
    a = GF5.element(4)
    sqrt_a = GF5.sqrt(a)
    drops = 0
    trials = 400
    for _ in range(trials):
        E = random_rank_matrix(GF5, rng, 8, 8, 1)
        if plotkin_fold(E, a, lambda U, V: U + V.scale(sqrt_a)).rank() < 1:
            drops += 1
    st = FoldStats(q=5, m=4, t=1, a=4, square=True, trials=trials, drops=drops)
    assert 0 <= st.rate < 0.05
    lo, hi = st.ci95()
    assert 0 <= lo <= st.rate <= hi <= 1


# -- soundness over arbitrary received words ---------------------------------------------


@lru_cache(maxsize=None)
def code_and_basis(q, a, nested=False):
    """gabidulin_plotkin(q, 6, 4, 2, a), or with `nested` the doubled code
    PlotkinCode(P, P, a) of P = gabidulin_plotkin(q, 4, 3, 2) at P's radius."""
    if nested:
        inner = gabidulin_plotkin(q, 4, 3, 2)
        code = PlotkinCode(inner, inner, a, radius=inner.radius)
    else:
        code = gabidulin_plotkin(q, 6, 4, 2, a=a)
    return code, code.basis_codewords(), code.dim


@pytest.mark.parametrize("q, a, nested", [pytest.param(q, a, False, id=f"{q}-{a}")
                                          for q, a in [(3, 1), (3, 2), (5, 4), (5, 2)]]
                         + [pytest.param(3, 1, True, id="3-1-nested")])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_decode_is_sound_on_arbitrary_words(q, a, nested, data):
    """Whatever the received word, decode either raises DecodingFailure or
    returns (C, E) with C + E = Y, rank E within the radius and C in the
    code.  Words are arbitrary matrices or codewords plus a product of
    factors of rank up to radius + 1."""
    code, basis, dim = code_and_basis(q, a, nested)
    field = code.field
    cells = st.integers(0, q - 1)
    if data.draw(st.booleans(), label="near the code"):
        rng = SplitMix64(data.draw(st.integers(0, 2 ** 64 - 1), label="seed"))
        t = data.draw(st.integers(0, code.radius + 1), label="rank")
        X = ExactMatrix(field, data.draw(st.lists(st.lists(cells, min_size=t, max_size=t),
                                                  min_size=code.rows, max_size=code.rows)))
        Z = ExactMatrix(field, data.draw(st.lists(st.lists(cells, min_size=code.cols, max_size=code.cols),
                                                  min_size=t, max_size=t)))
        Y = code.random_codeword(rng) + (X @ Z if t else zeros(field, code.rows))
    else:
        Y = ExactMatrix(field, data.draw(st.lists(st.lists(cells, min_size=code.cols, max_size=code.cols),
                                                  min_size=code.rows, max_size=code.rows)))
    try:
        C, E = code.decode(Y)
    except DecodingFailure:
        return
    assert C + E == Y
    assert E.rank() <= code.radius
    assert ExactMatrix(field, flatten(basis + [C])).rank() == dim


# -- the MatrixCode contract: erasure decoders and nested codes -------------------------


@lru_cache(maxsize=None)
def erasure_code(q, kind):
    """A 4x4 Gabidulin matrix code, or the 8x8 doubled code
    gabidulin_plotkin(q, 4, 3, 2), with its basis codewords."""
    if kind == "gabidulin":
        code = GabidulinMatrixCode(GabidulinCode(ExtField(q, 4), 2))
    else:
        code = gabidulin_plotkin(q, 4, 3, 2)
    return code, code.basis_codewords()


@pytest.mark.parametrize("ext", [False, True], ids=["base", "ext"])
@pytest.mark.parametrize("kind", ["gabidulin", "doubled"])
@pytest.mark.parametrize("q", [3, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_erasure_decoders_are_sound(q, kind, ext, data):
    """decode_erasures on GF(q) words and decode_erasures_ext on GF(q^2)
    words either raise DecodingFailure or return a codeword C (each GF(q)
    part in the span of basis_codewords()) such that the rows of Y - C lie
    in the support's row space.  Words are arbitrary, or a codeword plus an
    error whose rows the support spans; supports carry up to two arbitrary
    rows more.  On GF(q) words a Gabidulin code's vector path agrees with
    the generic matrix solve, MatrixCode.decode_erasures: the same codeword,
    or both raise."""
    code, basis = erasure_code(q, kind)
    base = code.base
    field = QuadExtField(base) if ext else base
    cell = st.integers(0, q - 1)
    entry = st.tuples(cell, cell).map(lambda uv: field.element(*uv)) if ext else cell.map(base.element)

    def rows_of(n, width, label):
        return data.draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=n, max_size=n), label=label)

    r = data.draw(st.integers(0, 3), label="error rank")
    error_rows = rows_of(r, code.cols, "error rows")
    support = ExactMatrix(field, error_rows + rows_of(data.draw(st.integers(0, 2)), code.cols, "extra rows"))
    if data.draw(st.booleans(), label="near the code"):
        rng = SplitMix64(data.draw(st.integers(0, 2 ** 64 - 1), label="seed"))
        C0 = code.random_codeword(rng).map_entries(field.coerce, field)
        if ext:
            C0 = C0 + code.random_codeword(rng).map_entries(field.coerce, field).scale(field.sqrt_nonresidue)
        X = ExactMatrix(field, rows_of(code.rows, r, "error columns"))
        Y = C0 + (X @ ExactMatrix(field, error_rows) if r else ExactMatrix.zeros(field, code.rows, code.cols))
    else:
        Y = ExactMatrix(field, rows_of(code.rows, code.cols, "word"))

    def attempt(decode):
        try:
            return decode(Y, support)
        except DecodingFailure:
            return None

    C = attempt(code.decode_erasures_ext if ext else code.decode_erasures)
    if kind == "gabidulin" and not ext:
        assert C == attempt(lambda Y, S: MatrixCode.decode_erasures(code, Y, S))
    if C is None:
        return
    assert C.field == field and C.shape == Y.shape
    for part in field.split(C) if ext else (C,):
        assert ExactMatrix(base, flatten(basis + [part])).rank() == code.dim
    if support.rows:
        assert ExactMatrix.block([[support], [Y - C]]).rank() == support.rank()
    else:
        assert C == Y


@pytest.mark.parametrize("a", [1, 5])
def test_plotkin_decode_refuses_a_negative_radius(a):
    code = gabidulin_plotkin(23, 6, 4, 2, a)
    with pytest.raises(ParameterMismatch):
        code.decode(code.random_codeword(SplitMix64(31)), -1)


@pytest.mark.parametrize("twist, eliminations", [(1, 7), (5, 7)])
def test_decode_eliminates_each_residual_once(twist, eliminations, monkeypatch):
    """The benchmark's codes (plotkin-square and plotkin-twisted) run seven
    eliminations per decode.  Square: the two D components' interpolation
    kernels and residual checks, the two erasure systems and the final
    check.  Twisted: the same two kernels and checks over GF(q), the
    residual over GF(q^2), one erasure system and the final check.  The
    erasure supports reuse the residual checks' eliminations."""
    if twist == 1:
        code, t = gabidulin_plotkin(23, 8, 6, 4), 2
    else:
        F = ExtField(23, 6)
        code, t = PlotkinCode(GabidulinMatrixCode(GabidulinCode(F, 5)), GabidulinMatrixCode(GabidulinCode(F, 2)),
                              twist, radius=1), 1
    rng = SplitMix64(33)
    calls = []
    rref_array = _PolyQuotient.rref_array
    for _ in range(3):
        C = code.random_codeword(rng)
        E = random_rank_matrix(code.field, rng, code.rows, code.cols, t)
        code.decode(C + E)  # warm: the Moore blocks are reduced once per code
        monkeypatch.setattr(_PolyQuotient, "rref_array", lambda self, A: calls.append(A.shape) or rref_array(self, A))
        assert code.decode(C + E) == (C, E)
        monkeypatch.undo()
        assert len(calls) == eliminations
        calls.clear()


def test_decode_ext_refuses_a_negative_radius():
    D = gabidulin_plotkin(23, 6, 4, 2).D
    ext = QuadExtField(GF23, 5)
    W = D.random_codeword(SplitMix64(32)).map_entries(ext.coerce, ext)
    assert D.decode_ext(W, 0) == (W, ExactMatrix.zeros(ext, D.rows, D.cols))
    with pytest.raises(ParameterMismatch):
        D.decode_ext(W, -1)


@pytest.mark.parametrize("inner, a, t, trials, decoded", [
    ((7, 4, 3, 2), 1, 1, 30, 30),
    ((3, 4, 3, 2), 1, 1, 30, 29),
    ((23, 6, 4, 2), 1, 2, 10, 10),
    ((23, 6, 4, 2), 5, 1, 6, 6),
    ((5, 6, 4, 2), 2, 1, 6, 6),
    ((7, 4, 3, 2, 3), 1, 1, 6, 0),
])
def test_nested_code_round_trips(inner, a, t, trials, decoded):
    """PlotkinCode(P, P, a) for a doubled code P, on seeded codewords plus
    rank-t errors.  Within the stated condition (t <= P.radius for a
    square a, 2t <= P.radius otherwise) every trial decodes to the planted
    pair, except one clean failure at q = 3, where a fold drops rank.  The
    last case is outside it: P twisted by the non-square 3 has radius 0,
    and every trial fails cleanly.  No trial is decoded wrongly."""
    P = gabidulin_plotkin(*inner)
    code = PlotkinCode(P, P, a, radius=t)
    counts = {"decoded": 0, "failed": 0, "wrong": 0}
    for i in range(trials):
        rng = SplitMix64(derive_seed(1, i))
        C = code.random_codeword(rng)
        E = random_rank_matrix(code.field, rng, code.rows, code.cols, t)
        try:
            C_hat, E_hat = code.decode(C + E)
        except DecodingFailure:
            counts["failed"] += 1
            continue
        counts["decoded" if C_hat == C and E_hat == E else "wrong"] += 1
    assert counts == {"decoded": decoded, "failed": trials - decoded, "wrong": 0}
