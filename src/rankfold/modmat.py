"""Vectorized modular linear algebra on numpy int64 arrays.

The Monte Carlo experiments need ranks of large batches of small matrices
over GF(p) and GF(p^2); doing that through the exact generic matrix type
would dominate the runtime.  Here matrices are plain int64 arrays with
entries reduced mod p and Gaussian elimination runs across a whole batch
at once.

Every field here is GF(p)[x]/(f) for an f of degree m: GF(p) itself
(m = 1), GF(p^2) = GF(p)[x]/(x^2 - nonresidue), and the fields of gf.  An
entry is its length-m coefficient vector, and the field's multiplication
tensor T[i, j] = x^(i+j) mod f turns the product by an element c into the
m x m matrix sum_i c_i T[i].  rref_poly eliminates one matrix this way
and is the kernel behind ExactMatrix.rref over the fields of gf;
batch_rref_mod brings a batch over GF(p) to reduced echelon form in
lockstep, for batch_solve_mod and the Reed-Muller decoder.

batch_rank_ff, the kernel behind batch_rank_mod and batch_rank_quad,
ranks a batch by fraction-free (Bareiss) elimination in lockstep: no
pivot inverses and no row swaps.  The rank kernels rank a wide batch as
its transpose, so that the kernel loops over min(R, C) columns, and a
tall one by a leading-block certificate: with k = min(R, C), one
elimination ranks the leading k x k blocks, and a block of rank k proves
that its matrix has rank exactly k, over any field, because
rank(block) <= rank <= k.  Only the blocks are reduced mod p up front,
and only the members whose block is singular, about 1/q of a uniform
batch over GF(q), are reduced and eliminated in full.  The fold
experiment ranks only such batches (at m = 16, t = 4: 32 x 4 and 4 x 32
factors, 16 x 4 folds).  Every reduction there is x -= x // p * p.

Overflow discipline: one rule, m (p-1)^2 < 2^63 (poly_fits_int64).  The
kernels never form more than a sum of m products of two residues, whether
they build a multiplication matrix from T, update a row or raise a pivot
to the power p - 2, and they reduce mod p before the next product;
batch_rank_ff's row update subtracts two such sums, each in
[0, m (p-1)^2], and reduces the difference.  Beyond the bound they raise
ValueError: over GF(p) from p = 3037000507 on, over GF(p^2) from
p = 2147483659 on; rref_poly then runs on an object array of Python
ints, exact for any p, as gf's fields hold it there.  Batched matrix
products sum inner-dimension many products and check that bound
explicitly.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolution, NotUnique

# GF(p) as a quotient of degree m = 1: its multiplication tensor is [[[1]]].
_PRIME_TENSOR = np.ones((1, 1, 1), dtype=np.int64)


def poly_fits_int64(p: int, m: int) -> bool:
    """Whether rref_poly and the batched kernels can run over GF(p)[x]/(f) with deg f = m."""
    return m * (p - 1) ** 2 < 2 ** 63


def rref_poly(A: np.ndarray, T: np.ndarray, p: int, inverse) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of one matrix over GF(p)[x]/(f).

    A is (R, C, m): entry (r, c) is the coefficient vector of a residue
    mod f, as int64, which needs poly_fits_int64(p, m) (ValueError
    otherwise), or as Python ints in an object array, for any p.  T is
    the (m, m, m) multiplication tensor of f, and `inverse` maps the
    coefficient list of a nonzero entry to that of its inverse.  The
    pivot of each column is its first nonzero entry at or below the
    current row; the pivot row is scaled to a leading one and the column
    is cleared in every other row at once.  Returns (R, pivot columns), R
    in A's dtype; the input is not modified.
    """
    A = np.asarray(A)
    rows, cols, m = A.shape
    if A.dtype != object:
        if not poly_fits_int64(p, m):
            raise ValueError(f"p = {p}, m = {m}: m (p-1)^2 overflows int64")
        A = A.astype(np.int64, copy=False)
    A = A % p
    T = np.asarray(T, dtype=A.dtype).reshape(m, m * m)
    one = [1] + [0] * (m - 1)
    pivots = []
    for c in range(cols):
        pr = len(pivots)
        if pr == rows:
            break
        nonzero = A[pr:, c].any(axis=1)
        r = pr + int(nonzero.argmax())
        if not nonzero[r - pr]:
            if not A[pr:, c:].any():
                break  # the rows left are zero: no more pivots
            continue
        if r != pr:
            A[[pr, r]] = A[[r, pr]]
        # Sparse inputs often have a pivot of one, or nothing else in its column.
        lead = A[pr, c].tolist()
        if lead != one:
            # row vector times the matrix of multiplication by the inverse
            scale = np.asarray(inverse(lead), dtype=A.dtype) @ T % p
            A[pr, c:] = A[pr, c:] @ scale.reshape(m, m) % p
        factors = A[:, c].copy()
        factors[pr] = 0
        if factors.any():
            mult = (factors @ T % p).reshape(rows, m, m)
            A[:, c:] = (A[:, c:] - np.einsum("cj,rjk->rck", A[pr, c:], mult)) % p
        pivots.append(c)
    return A, tuple(pivots)


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place.  numpy divides by a scalar with libdivide for //
    but not for %, so this form takes half the time of x %= p or less
    (a fifth on negative x)."""
    x -= x // p * p
    return x


def batch_rank_ff(parts, T: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a batch over GF(p)[x]/(f) with multiplication tensor T,
    by fraction-free elimination in lockstep.

    parts are the m int64 coefficient components of the batch, each
    (B, R, C), any integers mod p; they are not modified.  Column by
    column, every member takes its first nonzero row as the pivot row and
    replaces every row by pivot * row - a_rc * pivot row: the pivot row
    becomes zero, the column is dropped, and the rank of the rows left is
    one less.  A member with no pivot in the column keeps its rows.  The
    loop runs over the C columns, so _batch_rank passes R >= C.  Raises
    ValueError unless poly_fits_int64(p, m).
    """
    m, (B, R, C) = len(parts), parts[0].shape
    if not poly_fits_int64(p, m):
        raise ValueError(f"p = {p}, m = {m}: m (p-1)^2 overflows int64")
    # columns first, (m, C, B, R): the columns left are a contiguous view
    W = _reduce(np.stack([x.transpose(2, 0, 1) for x in parts]), p)
    # one matmul takes coefficient vectors c to the multiplication matrices
    # sum_i c_i T[i]: (j k, ...) for the pivots, (i k, ...) for pivot rows
    by_lead, by_entry = T.reshape(m, m * m).T, T.transpose(0, 2, 1).reshape(m * m, m)
    rank = np.zeros(B, dtype=np.int64)
    members = np.arange(B)
    for _ in range(C):
        col, W = W[:, 0], W[:, 1:]
        nonzero = col.any(axis=0)
        piv = nonzero.argmax(axis=1)
        found = nonzero[members, piv]
        rank += found
        if not W.shape[1]:
            break
        lead = col[:, members, piv]
        lead[0] += ~found  # no pivot: the column is zero, and each row stays itself times one
        times_lead = _reduce(by_lead @ lead, p).reshape(m, m, B)
        prow = W[:, :, members, piv]
        times_prow = _reduce(by_entry @ prow.reshape(m, -1), p).reshape(m, m, *prow.shape[1:])
        out = np.empty_like(W)
        for k in range(m):
            acc = np.multiply(W[0], times_lead[0, k, :, None], out=out[k])
            for j in range(1, m):
                acc += W[j] * times_lead[j, k, :, None]
            for i in range(m):
                acc -= col[i] * times_prow[i, k, :, :, None]
        W = _reduce(out, p)
    return rank


def inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of the nonzero residues x.  Up to 64 are taken one
    by one with pow; more at once as x^(p-2), by square and multiply in
    numpy.  Each step of that power is a few numpy calls, which for
    primes near 2^28 cost more than 64 pows."""
    if x.size <= 64:
        return np.array([pow(v, -1, p) for v in x.ravel().tolist()], dtype=np.int64).reshape(x.shape)
    out = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def batch_rref_mod(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(reduced echelon forms, ranks) of a (B, R, C) batch over GF(p).
    Column by column, every member with a nonzero entry at or below its
    own rank pivots on the first one, scales the pivot row to a leading
    one and clears the column in every other row.  Needs (p-1)^2 < 2^63,
    that is p <= 3037000500, and raises ValueError beyond it."""
    if not poly_fits_int64(p, 1):
        raise ValueError(f"p = {p}: (p-1)^2 overflows int64")
    A = _reduce(np.array(mats, dtype=np.int64), p)
    B, R, C = A.shape
    rank = np.zeros(B, dtype=np.int64)
    rows = np.arange(R)
    for c in range(C):
        live = rows >= rank[:, None]
        cand = (A[..., c] != 0) & live
        sel = np.flatnonzero(cand.any(axis=1))
        if not sel.size:
            if not (A[..., c:].any(axis=2) & live).any():
                break  # the rows left are zero: no more pivots
            continue
        piv, cur = cand[sel].argmax(axis=1), rank[sel]
        A[sel, cur, c:], A[sel, piv, c:] = A[sel, piv, c:], A[sel, cur, c:]
        prow = _reduce(A[sel, cur, c:] * inverse_mod(A[sel, cur, c], p)[:, None], p)
        A[sel, cur, c:] = prow
        factors = A[sel, :, c]
        factors[np.arange(sel.size), cur] = 0
        # A view when every member pivots, so that A is updated in place
        bulk = sel if sel.size < B else slice(None)
        X = A[bulk, :, c:]
        X -= factors[:, :, None] * prow[:, None, :]
        A[bulk, :, c:] = _reduce(X, p)  # a no-op for a view
        rank[sel] += 1
    return A, rank


def _batch_rank(parts, T: np.ndarray, p: int) -> np.ndarray:
    """Exact ranks of the batch of batch_rank_ff given by its components.
    A wide batch is ranked as its transpose.  A square batch is eliminated
    in full, a tall one by the leading-block certificate (module
    docstring): only the members whose leading k x k block, k = min(R, C),
    is singular are eliminated in full."""
    R, k = parts[0].shape[1:]
    if R < k:
        parts, R, k = [x.transpose(0, 2, 1) for x in parts], k, R
    if R == k:
        return batch_rank_ff(parts, T, p)
    rank = batch_rank_ff([x[:, :k] for x in parts], T, p)
    short = np.flatnonzero(rank < k)
    if short.size:
        rank[short] = batch_rank_ff([x[short] for x in parts], T, p)
    return rank


def batch_rank_mod(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a (T, n, m) batch over GF(p), by the leading-block
    certificate of _batch_rank.  Needs (p-1)^2 < 2^63, that is
    p <= 3037000500."""
    return _batch_rank([np.asarray(mats, dtype=np.int64)], _PRIME_TENSOR, p)


def batch_rank_quad(U: np.ndarray, V: np.ndarray, p: int, nonresidue: int) -> np.ndarray:
    """Ranks of a batch of matrices over GF(p^2) = GF(p)(sqrt(nonresidue)),
    entries given as the pair (U, V) meaning U + V*sqrt(nonresidue), by
    the leading-block certificate of _batch_rank.  Needs 2 (p-1)^2 < 2^63,
    that is p <= 2^31."""
    # x^2 = nr: the tensor of GF(p)[x]/(x^2 - nr)
    T = np.array([[[1, 0], [0, 1]], [[0, 1], [nonresidue % p, 0]]], dtype=np.int64)
    return _batch_rank([np.asarray(U, dtype=np.int64), np.asarray(V, dtype=np.int64)], T, p)


def batch_solve_mod(A: np.ndarray, p: int) -> np.ndarray:
    """Solutions of a (B, R, C+1) batch of linear systems over GF(p).

    System b has coefficient matrix A[b, :, :C] and right-hand side
    A[b, :, C].  All B systems are brought to reduced echelon form by
    batch_rref_mod, so a system with a unique solution ends as the identity
    over its solution.  Returns the (B, C) solutions.  Raises NotUnique
    (witness None) when some system has column rank below C, and
    NoSolution when every system has full column rank but some system is
    inconsistent.  Needs (p-1)^2 < 2^63, that is p <= 3037000500
    (poly_fits_int64(p, 1)), and raises ValueError beyond it.
    """
    A = batch_rref_mod(A, p)[0]
    B, R, C = A.shape[0], A.shape[1], A.shape[2] - 1
    if C > R:
        raise NotUnique(None, f"{C} unknowns in {R} equations")
    # Given pivots for unknowns 0..c-1, unknown c has one exactly when
    # entry (c, c) of the reduced form is one.
    short = (A[:, range(C), range(C)] != 1).any(axis=0)
    if short.any():
        raise NotUnique(None, f"no pivot for unknown {int(short.argmax())} mod {p}")
    if A[:, C:, C].any():
        raise NoSolution(f"inconsistent system mod {p}")
    return A[:, :C, C]


def batch_matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Batched (T,n,k) @ (T,k,m) mod p, with an explicit int64 overflow guard."""
    A = np.asarray(A, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    k = A.shape[-1]
    if k * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError("inner dimension times p^2 would overflow int64")
    out = np.matmul(A, B)
    out %= p  # in place: the product may be the largest array of a run
    return out


def sample_rank_factors(rng: np.random.Generator, p: int, count: int,
                        rows: int, cols: int, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Factors (X, Z) of `count` uniform rank-t matrices X Z over GF(p): X
    uniform over full-column-rank rows x t and Z over full-row-rank t x cols
    matrices (resampled until full rank), so the column and row spaces of
    X Z are uniform t-dimensional subspaces.  Needs poly_fits_int64(p, 1).
    plotkin's fold experiment ranks P = X0 + b X1 and Q = b Z0 + Z1, the
    factors of the fold P Q of X Z, within the rank kernels' own bounds."""
    if not 0 <= t <= min(rows, cols):
        raise ValueError(f"rank {t} impossible for {rows}x{cols}")
    X = rng.integers(0, p, size=(count, rows, t))
    Z = rng.integers(0, p, size=(count, t, cols))
    while True:
        bad = np.nonzero((batch_rank_mod(X, p) < t) | (batch_rank_mod(Z, p) < t))[0]
        if bad.size == 0:
            return X, Z
        X[bad] = rng.integers(0, p, size=(bad.size, rows, t))
        Z[bad] = rng.integers(0, p, size=(bad.size, t, cols))


def sample_rank_exact(rng: np.random.Generator, p: int, count: int,
                      rows: int, cols: int, t: int) -> np.ndarray:
    """`count` uniform rank-t matrices over GF(p): the products of sample_rank_factors."""
    if t == 0:
        return np.zeros((count, rows, cols), dtype=np.int64)
    return batch_matmul_mod(*sample_rank_factors(rng, p, count, rows, cols, t), p)
