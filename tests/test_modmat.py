"""Modular kernels against the exact matrix layer: the batched rank and
solve kernels, and the finite-field elimination kernel against the
generic one."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankfold import NoSolution, NotUnique, SplitMix64, modmat
from rankfold.gf import ExtField, PrimeField, QuadExtField, is_prime
from rankfold.linalg import ExactMatrix, gauss_jordan, random_rank_matrix
from rankfold.modmat import batch_matmul_mod, batch_rank_mod, batch_rank_quad, sample_rank_exact, sample_rank_factors


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
    # the largest prime below 2^21, the bound of an earlier GF(p^2) kernel
    U, V, nr, exact = planted_rank2(2097143, 20, 31)
    assert exact == [2] * 20
    assert batch_rank_quad(U, V, 2097143, nr).tolist() == exact


@pytest.mark.parametrize("p", [4194301, 2147483647])
def test_batch_rank_quad_planted_rank2_up_to_the_int64_bound(p):
    # 2^31 - 1 is the largest prime with 2 (p-1)^2 < 2^63
    assert modmat.poly_fits_int64(p, 2)
    U, V, nr, exact = planted_rank2(p, 80, 32)
    assert exact == [2] * 80
    assert batch_rank_quad(U, V, p, nr).tolist() == exact


def test_batch_rank_quad_rejects_overflowing_prime():
    # 2147483659 is the smallest prime with 2 (p-1)^2 >= 2^63
    p = 2147483659
    assert is_prime(p) and not modmat.poly_fits_int64(p, 2)
    nr = PrimeField(p).smallest_nonresidue()
    with pytest.raises(ValueError):
        batch_rank_quad(np.full((1, 2, 2), p - 1), np.full((1, 2, 2), p - 2), p, nr)


@pytest.mark.parametrize("p", [2, 3, 23, 268435399, 2147483647, 3037000493])
def test_inverse_mod_one_by_one_and_batched(p):
    # up to 64 residues take pow each, more take the batched Fermat power
    rng = np.random.default_rng(p)
    for size in (1, 5, 64, 65, 300):
        x = rng.integers(1, p, size=(1, size)) if p > 2 else np.ones((1, size), dtype=np.int64)
        inv = modmat.inverse_mod(x, p)
        assert inv.shape == x.shape
        assert (x * inv % p == 1).all()


def rank_oracle(p, nr, A):
    """ExactMatrix.rank of each member of a component-major batch: over
    GF(p) for one component, over GF(p)(sqrt(nr)) for two."""
    if len(A) == 1:
        F = PrimeField(p)
        return [ExactMatrix(F, [[F.element(int(v)) for v in row] for row in M]).rank() for M in A[0]]
    F = QuadExtField(p, nr)
    return [ExactMatrix(F, [[F.element(int(u), int(v)) for u, v in zip(ru, rv)] for ru, rv in zip(*M)]).rank()
            for M in zip(A[0], A[1])]


def planted_product(X, Z, nr):
    """X Z over GF(p) for one component, over GF(p)(sqrt(nr)) for two,
    unreduced: (x0 + x1 s)(z0 + z1 s) with s^2 = nr."""
    if nr is None:
        return (X[0] @ Z[0])[None]
    return np.array((X[0] @ Z[0] + nr * (X[1] @ Z[1]), X[0] @ Z[1] + X[1] @ Z[0]))


@st.composite
def rank_batches(draw):
    """(p, non-residue or None, (components, B, R, C) batch): each member
    has a planted rank of its own (zero members included) and some rows
    zeroed, so that in one column members pivot on different rows and
    some have no pivot."""
    quad = draw(st.booleans())
    # small primes, where random members often lose rank, and the largest
    # prime of each kernel's int64 bound
    p = draw(st.sampled_from([3, 7, 23, 2147483647] if quad else [2, 3, 7, 23, 3037000493]))
    nr = PrimeField(p).smallest_nonresidue() if quad else None
    # more than 64 members take the batched pivot inverses
    batch, rows, cols = draw(st.integers(1, 80)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = np.zeros((2 if quad else 1, batch, rows, cols), dtype=object)
    for b in range(batch):
        r = draw(st.integers(0, min(rows, cols)))
        # Python ints: the planted products overflow int64 at the large primes
        X = rng.integers(0, p, size=(len(A), rows, r)).astype(object)
        Z = rng.integers(0, p, size=(len(A), r, cols)).astype(object)
        A[:, b] = planted_product(X, Z, nr)
        A[:, b, rng.random(rows) < 0.3] = 0
    return p, nr, (A % p).astype(np.int64)


@settings(max_examples=200, deadline=None)
@given(rank_batches())
def test_batch_ranks_match_exact_rank(case):
    p, nr, A = case
    ranks = batch_rank_mod(A[0], p) if nr is None else batch_rank_quad(A[0], A[1], p, nr)
    assert ranks.tolist() == rank_oracle(p, nr, A)


@st.composite
def echelon_batches(draw):
    """(p, non-residue or None, (components, B, R, C) batch, the batch with
    each entry moved by a multiple of p from -2p to 2p, planted ranks).
    Each member is a row echelon form of its rank whose rows are shuffled,
    so that in one column members pivot on different rows, and whose
    non-pivot columns are often zero, so that zero columns fall between
    pivots.  Entries may all be drawn from p-4..p-1, the edge of the int64
    bound at the largest primes."""
    quad = draw(st.booleans())
    p = draw(st.sampled_from([3, 23, 2147483647] if quad else [3, 7, 3037000493]))
    nr = PrimeField(p).smallest_nonresidue() if quad else None
    batch, rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    lo = max(p - 4, 1) if draw(st.booleans()) else 0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = np.zeros((2 if quad else 1, batch, rows, cols), dtype=np.int64)
    planted = []
    for b in range(batch):
        r = draw(st.integers(0, min(rows, cols)))
        pivots = np.sort(rng.choice(cols, size=r, replace=False))
        M = rng.integers(lo, p, size=(len(A), rows, cols))
        M[:, r:] = 0
        for i, j in enumerate(pivots):
            M[:, i, :j] = 0
            M[0, i, j] = rng.integers(max(lo, 1), p)
        gaps = np.setdiff1d(np.arange(cols), pivots)
        M[:, :, gaps[rng.random(gaps.size) < 0.5]] = 0
        A[:, b] = M[:, rng.permutation(rows)]
        planted.append(r)
    return p, nr, A, A + p * rng.integers(-2, 3, size=A.shape), planted


@settings(max_examples=150, deadline=None)
@given(echelon_batches())
def test_fraction_free_kernel_matches_exact_rank(case):
    p, nr, A, shifted, planted = case
    field = PrimeField(p) if nr is None else QuadExtField(p, nr)
    ranks = modmat.batch_rank_ff(list(shifted), field.mul_tensor, p)
    assert ranks.tolist() == rank_oracle(p, nr, A) == planted


# -- the leading-block certificate of batch_rank_mod and batch_rank_quad ------
# A tall or wide member whose leading k x k block has rank k = min(R, C) has
# rank k; only the others reach full elimination.  The member kinds below
# make the block singular in different ways.

# (p, non-residue or None): a small prime, where blocks are often singular,
# and the largest prime of each kernel's int64 bound
CERT_FIELDS = [(3, None), (3037000493, None), (3, 2), (2147483647, PrimeField(2147483647).smallest_nonresidue())]
CERT_KINDS = ("random", "zero row", "dependent", "low rank")


def tall_member(rng, p, nr, n, k, kind):
    """One n x k member (n > k), components first, whose leading block is
    its first k rows: uniform; with a zero first row; with row k-1 a
    multiple of row 0; or of a planted rank below k.  All but the uniform
    kind have a singular block, and the middle two mostly full rank."""
    c = 1 if nr is None else 2
    if kind == "low rank":
        r = int(rng.integers(0, k)) if k else 0
        X = rng.integers(0, p, size=(c, n, r)).astype(object)
        return planted_product(X, rng.integers(0, p, size=(c, r, k)).astype(object), nr) % p
    M = rng.integers(0, p, size=(c, n, k)).astype(object)
    if kind == "dependent" and k > 1:
        M[:, k - 1] = int(rng.integers(0, p)) * M[:, 0]
    elif kind != "random":
        M[:, 0] = 0
    return M % p


def certificate_batch(rng, p, nr, n, k, kinds, wide):
    """A (components, B, n, k) batch of tall_members, or its (.., k, n) transpose."""
    A = np.zeros((1 if nr is None else 2, len(kinds), n, k), dtype=np.int64)
    for b, kind in enumerate(kinds):
        A[:, b] = tall_member(rng, p, nr, n, k, kind)
    return A.transpose(0, 1, 3, 2) if wide else A


def spy_on_core(monkeypatch):
    """Copies of the batches that reach modmat.batch_rank_ff, components
    first, in call order."""
    calls, core = [], modmat.batch_rank_ff

    def spy(parts, *rest):
        calls.append(np.array(parts))
        return core(parts, *rest)

    monkeypatch.setattr(modmat, "batch_rank_ff", spy)
    return calls


def batch_rank(p, nr, A):
    return batch_rank_mod(A[0], p) if nr is None else batch_rank_quad(A[0], A[1], p, nr)


def assert_certified(monkeypatch, p, nr, A):
    """Exact ranks, from one elimination of the leading blocks and one full
    elimination of just the members whose block is singular, a wide batch
    transposed.  Returns (those members, the exact ranks)."""
    k = min(A.shape[2:])
    blocks = A[:, :, :k, :k]
    singular = [b for b, r in enumerate(rank_oracle(p, nr, blocks)) if r < k]
    exact = rank_oracle(p, nr, A)
    calls = spy_on_core(monkeypatch)
    assert batch_rank(p, nr, A).tolist() == exact
    tall = A if A.shape[2] >= A.shape[3] else A.transpose(0, 1, 3, 2)
    assert np.array_equal(calls[0], tall[:, :, :k])
    if singular:
        assert len(calls) == 2 and np.array_equal(calls[1], tall[:, singular])
    else:
        assert len(calls) == 1
    return singular, exact


@pytest.mark.parametrize("p, nr", CERT_FIELDS)
@pytest.mark.parametrize("n, k", [(2, 1), (5, 3), (7, 4)])
@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
def test_leading_block_certificate_matches_exact_rank(monkeypatch, p, nr, n, k, wide):
    rng = np.random.default_rng([p, n, k, wide])
    A = certificate_batch(rng, p, nr, n, k, CERT_KINDS * 6, wide)
    singular, exact = assert_certified(monkeypatch, p, nr, A)
    # full-rank members with a singular block, and members below rank k
    assert any(exact[b] == k for b in singular) and min(exact) < k


@pytest.mark.parametrize("p, nr", CERT_FIELDS)
def test_square_batches_are_eliminated_in_full_once(monkeypatch, p, nr):
    A = certificate_batch(np.random.default_rng(p), p, nr, 4, 4, CERT_KINDS * 6, False)
    calls = spy_on_core(monkeypatch)
    assert batch_rank(p, nr, A).tolist() == rank_oracle(p, nr, A)
    assert len(calls) == 1 and np.array_equal(calls[0], A)


@pytest.mark.parametrize("p, nr", CERT_FIELDS)
@pytest.mark.parametrize("shape", [(0, 3, 5), (0, 5, 3), (0, 0, 0), (4, 0, 3), (4, 3, 0), (2, 0, 0)])
def test_empty_batches_and_empty_members_have_rank_zero(p, nr, shape):
    A = np.zeros((1 if nr is None else 2, *shape), dtype=np.int64)
    ranks = batch_rank(p, nr, A)
    assert ranks.dtype == np.int64 and ranks.tolist() == [0] * shape[0]


def test_leading_block_certificate_keeps_the_overflow_bounds():
    # the smallest primes beyond each kernel's bound
    with pytest.raises(ValueError):
        batch_rank_mod(np.ones((1, 3, 2), dtype=np.int64), 3037000507)
    with pytest.raises(ValueError):
        batch_rank_quad(np.ones((1, 2, 3), dtype=np.int64), np.ones((1, 2, 3), dtype=np.int64), 2147483659, 2)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CERT_FIELDS + [(7, None), (23, None), (7, 3)]), st.integers(0, 4), st.integers(1, 3),
       st.booleans(), st.lists(st.sampled_from(CERT_KINDS), max_size=12), st.integers(0, 2 ** 32 - 1))
def test_leading_block_certificate_properties(field, k, extra, wide, kinds, seed):
    p, nr = field
    A = certificate_batch(np.random.default_rng(seed), p, nr, k + extra, k, kinds, wide)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_certified(monkeypatch, p, nr, A)


# -- rref_poly: the finite-field elimination kernel behind ExactMatrix.rref ----
# gauss_jordan, the generic elimination that Q and towers use, is the oracle.

KERNEL_FIELDS = [PrimeField(2), PrimeField(23), QuadExtField(23, 5), ExtField(2, 5), ExtField(3, 4), ExtField(23, 8)]
FIELD_IDS = [repr(F) for F in KERNEL_FIELDS]


def assert_matches_oracle(M):
    """M holds an array, which rref reduces by the kernel, and its (R,
    pivots) equal gauss_jordan's; rref and rank agree."""
    assert M.array is not None
    R, pivots, rank = M.rref()
    assert (R.entries, pivots) == gauss_jordan(M.field, M.entries)
    assert rank == len(pivots) == M.rank()


def unit_triangular(F, rng, n, lower):
    return ExactMatrix(F, [[F.one if i == j else F.random_element(rng) if (i > j) == lower else F.zero
                            for j in range(n)] for i in range(n)])


def planted(F, rng, rows, cols, rank):
    """rows x cols of rank exactly `rank`, built without elimination:
    L D U with L, U unit triangular and D holding `rank` leading ones."""
    D = ExactMatrix(F, [[F.one if i == j < rank else F.zero for j in range(cols)] for i in range(rows)])
    return unit_triangular(F, rng, rows, True) @ D @ unit_triangular(F, rng, cols, False)


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=FIELD_IDS)
def test_rref_poly_fixed_shapes_match_generic_elimination(F):
    rng = SplitMix64(41)
    z, o = F.zero, F.one
    x = F.random_element(rng) or o
    cases = [
        ExactMatrix(F, ()),  # no rows
        ExactMatrix(F, ((), ())),  # no columns
        ExactMatrix.zeros(F, 3, 4),
        ExactMatrix.identity(F, 4),
        ExactMatrix(F, [[z, x, o, x]]),  # 1 x n
        ExactMatrix(F, [[z], [z], [x], [o]]),  # n x 1
        ExactMatrix(F, [[z, x, z, o], [z, x * x, z, x], [z, z, z, z]]),  # zero columns, dependent rows
    ]
    for rows, cols, rank in ((5, 7, 2), (7, 5, 3), (6, 6, 5), (8, 9, 8), (4, 4, 1)):
        cases.append(planted(F, rng, rows, cols, rank))
    for M in cases:
        assert_matches_oracle(M)


@st.composite
def kernel_inputs(draw):
    F = draw(st.sampled_from(KERNEL_FIELDS))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    rank = draw(st.integers(0, min(rows, cols)))
    coeffs = st.lists(st.integers(0, F.p - 1), min_size=F.degree, max_size=F.degree)
    element = coeffs.map(F._from_coeffs)
    X = [[draw(element) for _ in range(rank)] for _ in range(rows)]
    Z = [[draw(element) for _ in range(cols)] for _ in range(rank)]
    M = ExactMatrix(F, X) @ ExactMatrix(F, Z) if rows and rank else ExactMatrix.zeros(F, rows, cols)
    # zero some rows and columns on top of the planted rank deficiency
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    entries = [[F.zero if i in zero_rows or j in zero_cols else e for j, e in enumerate(row)]
               for i, row in enumerate(M.entries)]
    return ExactMatrix(F, entries, _raw=True) if rows else ExactMatrix(F, ())


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_rref_poly_matches_generic_elimination(M):
    assert_matches_oracle(M)


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=FIELD_IDS)
def test_solve_and_kernel_through_rref_poly(F):
    rng = SplitMix64(43)
    # full column rank: solve recovers x
    A = planted(F, rng, 6, 4, 4)
    x = [F.random_element(rng) for _ in range(4)]
    b = A @ ExactMatrix.column(F, x)
    assert A.solve(b) == x
    # a kernel: its basis annihilates A, and NotUnique carries its first vector
    B = planted(F, rng, 4, 6, 3)
    kern = B.kernel_basis()
    assert len(kern) == 3
    for v in kern:
        assert (B @ ExactMatrix.column(F, v)).is_zero()
    with pytest.raises(NotUnique) as info:
        B.solve(B @ ExactMatrix.column(F, x + [F.one, F.zero]))
    assert info.value.witness == kern[0]
    # an inconsistent right-hand side: B has rank 3 < 4 rows
    outside = next(e for e in ExactMatrix.identity(F, 4).entries if B.hstack(ExactMatrix.column(F, e)).rank() == 4)
    with pytest.raises(NoSolution):
        B.solve(list(outside))


def test_rref_poly_within_int64_bound_at_the_largest_prime():
    # 3037000493 is the largest prime with (p-1)^2 < 2^63: the kernel runs,
    # and entries near p-1 push its sums to the edge of int64
    p = 3037000493
    F = PrimeField(p)
    assert modmat.poly_fits_int64(p, 1)
    rng = SplitMix64(47)
    big = [[F.element(p - 1 - rng.randint(0, 3)) for _ in range(5)] for _ in range(4)]
    for M in (ExactMatrix(F, big), planted(F, rng, 5, 6, 4)):
        assert_matches_oracle(M)


def test_rref_beyond_int64_bound_uses_generic_elimination(monkeypatch):
    # 3037000507 is the smallest prime with (p-1)^2 >= 2^63
    p = 3037000507
    F = PrimeField(p)
    assert not modmat.poly_fits_int64(p, 1)
    rng = SplitMix64(53)
    M = ExactMatrix(F, [[F.element(p - 1 - rng.randint(0, 3)) for _ in range(5)] for _ in range(4)])
    with pytest.raises(ValueError):
        modmat.rref_poly(np.array([[[p - 1]]]), F.mul_tensor, p, F._inverse_coeffs)

    def forbidden(*args):
        raise AssertionError("rref_poly called beyond its bound")

    monkeypatch.setattr(modmat, "rref_poly", forbidden)
    assert M.array is None
    R, pivots, rank = M.rref()
    assert (R.entries, pivots) == gauss_jordan(F, M.entries) and rank == 4


@pytest.mark.parametrize("F", KERNEL_FIELDS, ids=FIELD_IDS)
def test_mul_tensor_is_the_field_product(F):
    rng = SplitMix64(59)
    T = F.mul_tensor
    assert T.shape == (F.degree,) * 3
    for _ in range(20):
        a, c = F.random_element(rng), F.random_element(rng)
        # multiplication by c is the matrix sum_i c_i T[i]
        mult = np.tensordot(np.array(F._coeffs(c)), T, 1) % F.p
        assert F._from_coeffs((np.array(F._coeffs(a)) @ mult % F.p).tolist()) == a * c


# -- batch_solve_mod: the batched solve behind the embedded erasure decode ----
# ExactMatrix.solve over PrimeField is the oracle.


def solve_oracle(p, A):
    """Per system: its solution, NotUnique when its column rank is short,
    else NoSolution when it is inconsistent."""
    F = PrimeField(p)
    out = []
    for system in A:
        cols = system.shape[1] - 1
        M = ExactMatrix(F, [[F.element(int(v)) for v in row[:cols]] for row in system])
        b = [F.element(int(v)) for v in system[:, cols]]
        if cols and M.rank() < cols:
            out.append(NotUnique)
        elif not cols:
            out.append([] if not any(b) else NoSolution)
        else:
            try:
                out.append([v.val for v in M.solve(b)])
            except NoSolution:
                out.append(NoSolution)
    return out


def assert_solve_matches_oracle(p, A):
    expected = solve_oracle(p, A)
    if NotUnique in expected:
        with pytest.raises(NotUnique):
            modmat.batch_solve_mod(A, p)
    elif NoSolution in expected:
        with pytest.raises(NoSolution):
            modmat.batch_solve_mod(A, p)
    else:
        assert modmat.batch_solve_mod(A, p).tolist() == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_batch_solve_mod_matches_exact_solve(batch, rows, unknowns, seed):
    # over GF(7) random systems are often deficient or inconsistent
    A = np.random.default_rng(seed).integers(0, 7, size=(batch, rows, unknowns + 1))
    assert_solve_matches_oracle(7, A)


def planted_systems(p, count, rows, cols, seed, near_top=False):
    """(count, rows, cols + 1) consistent systems, of full column rank when
    planted; with near_top, all entries and unknowns are drawn from p-4..p-1."""
    F = PrimeField(p)
    rng = SplitMix64(seed)

    def draw():
        return F.element(p - 1 - rng.randint(0, 3)) if near_top else F.random_element(rng)

    out = []
    for _ in range(count):
        M = ExactMatrix(F, [[draw() for _ in range(cols)] for _ in range(rows)]) if near_top \
            else planted(F, rng, rows, cols, cols)
        b = M @ ExactMatrix.column(F, [draw() for _ in range(cols)])
        out.append([[e.val for e in row] + [v.val] for row, (v,) in zip(M.entries, b.entries)])
    A = np.array(out, dtype=np.int64)
    if rows > cols:
        A[0, 0] = 0  # a zero top row forces a row swap
    return A


@pytest.mark.parametrize("p", [23, 268435399])
def test_batch_solve_mod_planted_full_rank(p):
    A = planted_systems(p, 32, 7, 5, 61)
    assert_solve_matches_oracle(p, A)
    # one deficient system, or one inconsistent system, spoils the batch
    deficient = A.copy()
    deficient[3, :, 1] = deficient[3, :, 0]
    with pytest.raises(NotUnique):
        modmat.batch_solve_mod(deficient, p)
    inconsistent = A.copy()
    inconsistent[5, :, -1] = (inconsistent[5, :, -1] + np.arange(7)) % p
    assert_solve_matches_oracle(p, inconsistent)
    with pytest.raises(NotUnique):
        modmat.batch_solve_mod(A[:, :4], p)  # 5 unknowns in 4 equations


def test_batch_solve_mod_within_int64_bound_at_the_largest_prime():
    # at the largest prime with (p-1)^2 < 2^63 the row updates reach the
    # edge of int64 on entries near p-1; one prime further the kernel refuses
    p = 3037000493
    assert modmat.poly_fits_int64(p, 1)
    A = planted_systems(p, 8, 6, 4, 67, near_top=True)
    assert all(isinstance(x, list) for x in solve_oracle(p, A))
    assert_solve_matches_oracle(p, A)
    p = 3037000507
    assert not modmat.poly_fits_int64(p, 1)
    with pytest.raises(ValueError):
        modmat.batch_solve_mod(np.array([[[p - 1, p - 2]]]), p)


@pytest.mark.parametrize("p, rows, cols, t", [(3, 4, 4, 3), (5, 6, 8, 2), (23, 32, 32, 4)])
def test_sample_rank_exact_is_the_product_of_the_factors(p, rows, cols, t):
    X, Z = sample_rank_factors(np.random.default_rng(17), p, 300, rows, cols, t)
    assert X.shape == (300, rows, t) and Z.shape == (300, t, cols)
    assert (batch_rank_mod(X, p) == t).all() and (batch_rank_mod(Z, p) == t).all()
    E = sample_rank_exact(np.random.default_rng(17), p, 300, rows, cols, t)
    assert np.array_equal(batch_matmul_mod(X, Z, p), E)


@pytest.mark.parametrize("t", [-1, 4])
def test_rank_samplers_refuse_an_impossible_rank(t):
    for sampler in (sample_rank_exact, sample_rank_factors):
        with pytest.raises(ValueError, match="impossible"):
            sampler(np.random.default_rng(1), 5, 2, 3, 3, t)


def test_sample_rank_factors_are_pinned():
    """SHA-256 of the factors drawn from seed 17 at (23, 300, 32, 32, 4), as
    little-endian int64: the draws, and every decision to draw again, are a
    fixed function of the seed whatever rank kernel certifies them."""
    X, Z = sample_rank_factors(np.random.default_rng(17), 23, 300, 32, 32, 4)
    digest = hashlib.sha256(X.astype("<i8").tobytes() + Z.astype("<i8").tobytes()).hexdigest()
    assert digest == "6aaa560aaa4c37d6931a5edffe9a2ca5886ac07392e4bad57ef0583b77999f74"
