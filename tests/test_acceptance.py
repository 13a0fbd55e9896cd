"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines on
passing runs too).  Criteria with a runtime budget assert the elapsed time
as part of the pass condition.
"""

import time
from math import comb

import numpy as np
import pytest

from rankfold import DecodingFailure, SplitMix64, exactfield, mq_field, reedmuller
from rankfold.gabidulin import GabidulinCode, GabidulinMatrixCode
from rankfold.gf import PrimeField, ExtField, reconstruct_from_base
from rankfold.linalg import ExactMatrix, random_rank_matrix
from rankfold.plotkin import (
    fold_probability_experiment,
    gabidulin_plotkin,
    non_mrd_witness,
    plotkin_dual_check,
    plotkin_encode,
)
from rankfold.reedmuller import RMCode, ThetaPolynomial

PRIMES = (2, 3, 5, 7, 11, 13)


def tower(m):
    return mq_field(PRIMES[:m])


def _report(num, label, ok, detail):
    print(f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


def _int_rank_exact(field, rng, t, rows, cols):
    while True:
        R = ExactMatrix(field, [[rng.randint(0, 9) for _ in range(cols)] for _ in range(rows)])
        if R.rank() == t:
            return R


def _min_rank_rm_codeword(code):
    L = code.field
    F = ThetaPolynomial(L, {0: L.one})
    for i in range(code.r):
        F = F.compose(ThetaPolynomial(L, {0: L.one, 1 << i: L.one}))
    return code.theta_matrix(F)


def test_criterion_01_generator_parity_orthogonality():
    started = time.perf_counter()
    checked = 0
    for m in range(6):
        field = tower(m)
        for r in range(m + 1):
            code = RMCode(field, r)
            G = code.generator_matrix()
            H = code.parity_check_matrix()
            assert code.dim == sum(comb(m, i) for i in range(r + 1))
            assert G.rows == code.dim and H.rows == code.size - code.dim
            if G.rows and H.rows:
                assert (G @ H.transpose()).is_zero()
            checked += 1
    elapsed = time.perf_counter() - started
    _report(1, "structure", elapsed < 60.0, f"{checked} (r,m) pairs in {elapsed:.1f}s")


def test_criterion_02_fast_syndrome_matches_naive():
    rng = SplitMix64(202)
    vectors = 0
    for m in range(5):
        field = tower(m)
        for r in range(m + 1):
            code = RMCode(field, r)
            for _ in range(100):
                y = [field.random_element(rng, 9) for _ in range(code.size)]
                assert code.fast_syndrome(y) == code.naive_syndrome(y)
                vectors += 1
    _report(2, "fast syndrome", True, f"{vectors} vectors, all bit-exact")


def test_criterion_03_folding_decoder_roundtrip():
    started = time.perf_counter()
    points = [(3, 0, 3), (3, 1, 1), (4, 1, 3), (4, 2, 1)]
    recovered = 0
    for m, r, t in points:
        code = RMCode(tower(m), r)
        assert code.t == t
        rng = SplitMix64(303 + 10 * m + r)
        for _ in range(100):
            C = code.encode(code.random_message(rng, 9))
            E = code.sample_error(rng)
            report = code.decode(C + E)
            assert report.success
            # soundness: a Success report must stay within the radius
            assert ((C + E) - report.codeword).rank() <= t
            assert report.codeword == C
            recovered += 1
    elapsed = time.perf_counter() - started
    ok = recovered == 400 and elapsed <= 600.0
    _report(3, "error decode", ok, f"{recovered}/400 exact in {elapsed:.1f}s")


def test_criterion_04_erasure_decoder_exact_and_sound():
    points = [(3, 0), (3, 1), (4, 1), (4, 2)]
    recovered = ambiguous = 0
    for m, r in points:
        code = RMCode(tower(m), r)
        L = code.field
        t = 2 ** (m - 1 - r) - 1
        rng = SplitMix64(404 + 10 * m + r)
        for _ in range(100):
            c = code.vector_from_matrix(code.encode(code.random_message(rng, 9)))
            R = _int_rank_exact(code.base_field, rng, t, t, code.size)
            xs = [L.random_element(rng, 9) for _ in range(t)]
            y = list(c)
            for x, row in zip(xs, R.rows_list()):
                y = [yi + x * rj.embed(L) for yi, rj in zip(y, row)]
            assert code.erasure_decode(y, R) == c
            recovered += 1
        # support of full minimum-distance dimension hides a codeword: the
        # solve must refuse rather than pick an answer
        W = _min_rank_rm_codeword(code)
        R = W.row_space_basis()
        assert R.rows == code.min_rank
        for _ in range(10):
            c = code.vector_from_matrix(code.encode(code.random_message(rng, 9)))
            with pytest.raises(DecodingFailure):
                code.erasure_decode(c, R)
            ambiguous += 1
    ok = recovered == 400 and ambiguous == 40
    _report(4, "erasure decode", ok, f"{recovered}/400 exact, {ambiguous}/40 refused")


def test_criterion_05_gabidulin_roundtrip_and_distance():
    F = ExtField(23, 8)
    rng = SplitMix64(505)
    recovered = 0
    for k in (4, 6):
        code = GabidulinCode(F, k)
        for _ in range(100):
            c = code.encode(code.random_message(rng))
            E = random_rank_matrix(F.base, rng, F.m, code.n, code.radius)
            e = reconstruct_from_base(F, E)
            c_hat, _ = code.decode_errors([a + b for a, b in zip(c, e)])
            assert c_hat == c
            recovered += 1

    F3 = ExtField(5, 3)
    small = GabidulinCode(F3, 2)
    view = GabidulinMatrixCode(small)
    d = small.d
    low_rank = 0
    for _ in range(10_000):
        msg = small.random_message(rng)
        if not any(msg):
            continue
        if view.to_matrix(small.encode(msg)).rank() < d:
            low_rank += 1
    witness = view.to_matrix(small.minimum_rank_codeword())
    ok = recovered == 200 and low_rank == 0 and witness.rank() == d
    _report(5, "gabidulin", ok, f"{recovered}/200 roundtrips, {low_rank} below-distance samples, witness rank {witness.rank()}=={d}")


def test_criterion_06_doubling_duality_and_dimension():
    rng = SplitMix64(606)
    instances = 0
    for q in (5, 7):
        field = PrimeField(q)
        for _ in range(10):
            c_gens = [
                ExactMatrix(field, [[rng.randint(0, q - 1) for _ in range(2)] for _ in range(2)])
                for _ in range(rng.randint(1, 3))
            ]
            d_gens = [
                ExactMatrix(field, [[rng.randint(0, q - 1) for _ in range(2)] for _ in range(2)])
                for _ in range(rng.randint(1, 3))
            ]
            a = field.element(rng.randint(1, q - 1))
            assert plotkin_dual_check(c_gens, d_gens, a, field, 2, 2)

            def flat_rank(mats):
                if not mats:
                    return 0
                return ExactMatrix(
                    field,
                    [[M.entries[i][j] for i in range(2) for j in range(2)] for M in mats],
                ).rank()

            zero = ExactMatrix.zeros(field, 2, 2)
            doubled = []
            for G in c_gens:
                doubled.append(plotkin_encode(a, G, zero, zero, zero))
                doubled.append(plotkin_encode(a, zero, G, zero, zero))
            for H in d_gens:
                doubled.append(plotkin_encode(a, zero, zero, H, zero))
                doubled.append(plotkin_encode(a, zero, zero, zero, H))
            stacked = ExactMatrix(
                field,
                [[M.entries[i][j] for i in range(4) for j in range(4)] for M in doubled],
            )
            assert stacked.rank() == 2 * (flat_rank(c_gens) + flat_rank(d_gens))
            instances += 1
    _report(6, "duality", instances == 20, f"{instances}/20 instances, subspace equality exact")


def test_criterion_07_doubled_gabidulin_roundtrip():
    rng = SplitMix64(707)
    big = gabidulin_plotkin(23, 8, 6, 4)
    assert big.radius == 2
    big_hits = 0
    for _ in range(100):
        C = big.random_codeword(rng)
        E = random_rank_matrix(PrimeField(23), rng, 16, 16, 2)
        try:
            C_hat, _ = big.decode(C + E)
        except DecodingFailure:
            continue
        if C_hat == C:
            big_hits += 1

    small = gabidulin_plotkin(5, 4, 3, 2)
    assert small.radius == 1
    small_hits = 0
    for _ in range(1000):
        C = small.random_codeword(rng)
        E = random_rank_matrix(PrimeField(5), rng, 8, 8, 1)
        try:
            C_hat, _ = small.decode(C + E)
        except DecodingFailure:
            continue
        if C_hat == C:
            small_hits += 1
    ok = big_hits >= 99 and small_hits >= 950
    _report(7, "doubled decode", ok, f"q=23: {big_hits}/100, q=5: {small_hits}/1000")


def test_criterion_08_fold_drop_reference_runs():
    started = time.perf_counter()
    ten_k = fold_probability_experiment(23, 16, 4, 1, 10_000, seed=808)
    hundred_k = fold_probability_experiment(23, 16, 4, 1, 100_000, seed=809)
    elapsed = time.perf_counter() - started
    ok = ten_k.drops <= 2 and hundred_k.drops <= 3 and elapsed <= 300.0
    _report(8, "fold reference", ok, f"{ten_k.drops} drops/10k, {hundred_k.drops} drops/100k in {elapsed:.1f}s")


def test_criterion_09_fold_drop_rate_bound():
    results = []
    ok = True
    for q, m, t in [(5, 4, 1), (5, 4, 2), (7, 5, 2)]:
        stats = fold_probability_experiment(q, m, t, 1, 100_000, seed=909)
        hi = stats.ci95()[1]
        results.append(f"({q},{m},{t}): hi={hi:.2e} vs {10 * stats.paper_bound:.2e}")
        ok = ok and hi <= 10 * stats.paper_bound
    _report(9, "drop rate bound", ok, "; ".join(results))


def test_criterion_10_syndrome_speedup_trend(monkeypatch):
    # Work is counted, not timed: the tower coordinate products formed by
    # the element product kernel, by the matrix product (one per term of its
    # integer matmul and one per entry of the multiplication matrices it
    # builds), and by the fast syndrome's integer body, one coordinate
    # product per nonzero entry of the array its butterfly transforms, so
    # the trend is the same on every run and machine.
    products = [0]
    kernel, butterfly = exactfield._mul_into, reedmuller._hadamard_rows
    matrix_product = exactfield.MultiquadraticField.product

    def counted_kernel(out, xs, ys, W):
        products[0] += len(xs) * len(ys)
        kernel(out, xs, ys, W)

    def counted_product(field, A, X):
        products[0] += (A.size * X.shape[1] + X.size) * field.dim
        return matrix_product(field, A, X)

    def counted_butterfly(Z):
        products[0] += int(np.count_nonzero(Z))
        return butterfly(Z)

    monkeypatch.setattr(exactfield, "_mul_into", counted_kernel)
    monkeypatch.setattr(exactfield.MultiquadraticField, "product", counted_product)
    monkeypatch.setattr(reedmuller, "_hadamard_rows", counted_butterfly)
    rng = SplitMix64(1010)
    ratios = []
    for m in (3, 4, 5):
        field = tower(m)
        code = RMCode(field, 1)
        code.parity_check_matrix()  # built once per field, outside the count
        ys = [[field.random_element(rng, 9) for _ in range(code.size)] for _ in range(5)]
        products[0] = 0
        slow = [code.naive_syndrome(y) for y in ys]
        naive = products[0]
        products[0] = 0
        fast = [code.fast_syndrome(y) for y in ys]
        assert fast == slow
        ratios.append(naive / products[0])
    ok = ratios[0] < ratios[1] < ratios[2]
    _report(10, "speedup trend", ok, "product-count ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_11_rank_below_singleton_witness():
    code = gabidulin_plotkin(23, 8, 6, 4)
    W, singleton = non_mrd_witness(code)
    rank = W.rank()
    # non_mrd_witness returns a true codeword; make a decode pass agree
    C_hat, E_hat = code.decode(W)
    ok = rank == 6 and singleton == 7 and C_hat == W and E_hat.is_zero()
    _report(11, "below singleton", ok, f"codeword rank {rank} < {singleton}")
