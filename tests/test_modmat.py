"""Batched modular rank kernels against the exact matrix layer."""

import numpy as np
import pytest

from rankfold import SplitMix64
from rankfold.gf import QuadExtField
from rankfold.linalg import random_rank_matrix
from rankfold.modmat import batch_rank_quad


def planted_rank2(p, count, seed):
    """(U, V, non-residue, exact ranks) for `count` rank-2 4x4 matrices
    over GF(p^2)."""
    field = QuadExtField(p)
    rng = SplitMix64(seed)
    mats = [random_rank_matrix(field, rng, 4, 4, 2) for _ in range(count)]
    U = np.array([[[e.u for e in row] for row in M.entries] for M in mats], dtype=np.int64)
    V = np.array([[[e.v for e in row] for row in M.entries] for M in mats], dtype=np.int64)
    return U, V, field.n, [M.rank() for M in mats]


def test_batch_rank_quad_planted_rank2_below_limit():
    # the largest prime below 2^21: products of three residues fit in int64
    U, V, nr, exact = planted_rank2(2097143, 20, 31)
    assert exact == [2] * 20
    assert batch_rank_quad(U, V, 2097143, nr).tolist() == exact


def test_batch_rank_quad_rejects_overflowing_prime():
    # p = 4194301 passes the inverse-table limit, but nr * v * v overflows
    # int64: every planted rank came out wrong before the guard
    U, V, nr, exact = planted_rank2(4194301, 20, 32)
    assert exact == [2] * 20
    with pytest.raises(ValueError):
        batch_rank_quad(U, V, 4194301, nr)
