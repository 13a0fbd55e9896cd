"""Vectorized modular linear algebra on numpy int64 arrays.

The Monte Carlo experiments need ranks of large batches of small matrices
over GF(p) and GF(p^2); doing that through the exact generic matrix type
would dominate the runtime.  Here matrices are plain int64 arrays with
entries reduced mod p and Gaussian elimination runs across a whole batch
at once.

rref_poly is the exact single-matrix kernel behind ExactMatrix.rref over
the finite fields of gf.  Each of them is GF(p)[x]/(f) for an f of degree
m, an entry is its length-m coefficient vector, and the field's
multiplication tensor T[i, j] = x^(i+j) mod f turns the product by an
element c into the m x m matrix sum_i c_i T[i].

Overflow discipline: elimination over GF(p) forms products of two
reduced entries, so any p below 2^31 is safe in int64.  Elimination over
GF(p^2) forms products of three (the non-residue times two entries), so
batch_rank_quad requires p < 2^21 and raises ValueError otherwise.  Batch
elimination also builds a length-p inverse table, so it insists on
p <= 2^22.  Batched matrix products sum inner-dimension many products
and check the bound explicitly.  rref_poly sums m products of two
residues, both when it builds a multiplication matrix from T and when it
updates a row, so it needs m (p-1)^2 < 2^63 (poly_fits_int64) and raises
ValueError otherwise; for m = 1 that is p <= 3037000500.  batch_solve_mod,
the batched solve behind the tower's modular erasure decode, eliminates
fraction-free with no inverse table: each update is a difference of two
products of residues, so it has the same bound, (p-1)^2 < 2^63.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolution, NotUnique

# Inverse tables are cheap for experiment-sized p and are cached per prime.
_TABLE_LIMIT = 1 << 22
# (2^21)^3 = 2^63: below this, nonresidue * u * v stays inside int64.
_QUAD_LIMIT = 1 << 21
_INV_TABLES: dict = {}


def inverse_table(p: int) -> np.ndarray:
    """Table inv[v] with v * inv[v] = 1 mod p for 1 <= v < p."""
    if p > _TABLE_LIMIT:
        raise ValueError(f"p = {p} too large for a table of inverses")
    tab = _INV_TABLES.get(p)
    if tab is None:
        # inv[v] = v^(p-2) for all v at once, by square and multiply.
        v = np.arange(p, dtype=np.int64)
        tab = np.ones(p, dtype=np.int64)
        e = p - 2
        base = v.copy()
        while e:
            if e & 1:
                tab = tab * base % p
            base = base * base % p
            e >>= 1
        _INV_TABLES[p] = tab
    return tab


def batch_rank_mod(mats: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a (T, n, m) batch over GF(p), eliminated in lockstep."""
    A = np.asarray(mats, dtype=np.int64) % p
    T, n, m = A.shape
    inv = inverse_table(p)
    rank = np.zeros(T, dtype=np.int64)
    rowidx = np.arange(n)
    for col in range(m):
        colvals = A[:, :, col]
        cand = (colvals != 0) & (rowidx[None, :] >= rank[:, None])
        has = cand.any(axis=1)
        sel = np.nonzero(has)[0]
        if sel.size == 0:
            continue
        piv = cand[sel].argmax(axis=1)
        cur = rank[sel]
        # Swap the pivot row up, normalize it, then clear the column below.
        tmp = A[sel, cur, :].copy()
        A[sel, cur, :] = A[sel, piv, :]
        A[sel, piv, :] = tmp
        pv = inv[A[sel, cur, col]]
        A[sel, cur, :] = A[sel, cur, :] * pv[:, None] % p
        below = rowidx[None, :] > cur[:, None]
        factors = np.where(below, A[sel, :, col], 0)
        A[sel] = (A[sel] - factors[:, :, None] * A[sel, cur, None, :]) % p
        rank[sel] += 1
    return rank


def batch_rank_quad(U: np.ndarray, V: np.ndarray, p: int, nonresidue: int) -> np.ndarray:
    """Ranks of a batch of matrices over GF(p^2) = GF(p)(sqrt(nonresidue)),
    entries given as the pair (U, V) meaning U + V*sqrt(nonresidue).
    Needs p < 2^21, so that products of three residues fit in int64."""
    if p >= _QUAD_LIMIT:
        raise ValueError(f"p = {p} too large: GF(p^2) elimination needs p < 2^21")
    U = np.asarray(U, dtype=np.int64) % p
    V = np.asarray(V, dtype=np.int64) % p
    T, n, m = U.shape
    inv = inverse_table(p)
    nr = nonresidue % p
    rank = np.zeros(T, dtype=np.int64)
    rowidx = np.arange(n)
    for col in range(m):
        nz = (U[:, :, col] != 0) | (V[:, :, col] != 0)
        cand = nz & (rowidx[None, :] >= rank[:, None])
        has = cand.any(axis=1)
        sel = np.nonzero(has)[0]
        if sel.size == 0:
            continue
        piv = cand[sel].argmax(axis=1)
        cur = rank[sel]
        for X in (U, V):
            tmp = X[sel, cur, :].copy()
            X[sel, cur, :] = X[sel, piv, :]
            X[sel, piv, :] = tmp
        # Pivot inverse: (u - v s) / (u^2 - n v^2) with s^2 = n.
        pu = U[sel, cur, col]
        pv = V[sel, cur, col]
        norm = (pu * pu - nr * pv * pv) % p
        ninv = inv[norm]
        iu = pu * ninv % p
        iv = (-pv) * ninv % p
        ru, rv = U[sel, cur, :], V[sel, cur, :]
        nu = (ru * iu[:, None] + nr * rv * iv[:, None]) % p
        nv = (ru * iv[:, None] + rv * iu[:, None]) % p
        U[sel, cur, :] = nu
        V[sel, cur, :] = nv
        below = rowidx[None, :] > cur[:, None]
        fu = np.where(below, U[sel, :, col], 0)
        fv = np.where(below, V[sel, :, col], 0)
        pru = U[sel, cur, None, :]
        prv = V[sel, cur, None, :]
        U[sel] = (U[sel] - fu[:, :, None] * pru - nr * fv[:, :, None] * prv) % p
        V[sel] = (V[sel] - fu[:, :, None] * prv - fv[:, :, None] * pru) % p
        rank[sel] += 1
    return rank


def poly_fits_int64(p: int, m: int) -> bool:
    """Whether rref_poly can run over GF(p)[x]/(f) with deg f = m."""
    return m * (p - 1) ** 2 < 2 ** 63


def rref_poly(A: np.ndarray, T: np.ndarray, p: int, inverse) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form of one matrix over GF(p)[x]/(f).

    A is (R, C, m): entry (r, c) is the coefficient vector of a residue
    mod f.  T is the (m, m, m) multiplication tensor of f, and
    `inverse` maps the coefficient list of a nonzero entry to that of its
    inverse.  The pivot of each column is its first nonzero entry at or
    below the current row; the pivot row is scaled to a leading one and
    the column is cleared in every other row at once.  Returns (R, pivot
    columns); the input is not modified.
    """
    A = np.asarray(A, dtype=np.int64) % p
    rows, cols, m = A.shape
    if not poly_fits_int64(p, m):
        raise ValueError(f"p = {p}, m = {m}: m (p-1)^2 overflows int64")
    T = np.asarray(T, dtype=np.int64).reshape(m, m * m)
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
            scale = np.asarray(inverse(lead), dtype=np.int64) @ T % p
            A[pr, c:] = A[pr, c:] @ scale.reshape(m, m) % p
        factors = A[:, c].copy()
        factors[pr] = 0
        if factors.any():
            mult = (factors @ T % p).reshape(rows, m, m)
            A[:, c:] = (A[:, c:] - np.einsum("cj,rjk->rck", A[pr, c:], mult)) % p
        pivots.append(c)
    return A, tuple(pivots)


def batch_solve_mod(A: np.ndarray, p: int) -> np.ndarray:
    """Solutions of a (B, R, C+1) batch of linear systems over GF(p).

    System b has coefficient matrix A[b, :, :C] and right-hand side
    A[b, :, C].  All B systems are eliminated in lockstep, fraction-free:
    column c pivots on its first nonzero entry at or below row c, and every
    other row becomes pivot * row - entry * (pivot row).  That keeps each
    step to products of two residues and leaves one diagonal entry per
    unknown, divided out at the end by one batched Fermat inverse.  Returns
    the (B, C) solutions.  Raises NotUnique (witness None) when some system
    has column rank below C, and NoSolution when every system has full
    column rank but some system is inconsistent.

    Overflow bound: a row update is a difference of two products of
    residues, so the kernel needs (p-1)^2 < 2^63, that is p <= 3037000500
    (poly_fits_int64(p, 1)), and raises ValueError beyond it.
    """
    if not poly_fits_int64(p, 1):
        raise ValueError(f"p = {p}: (p-1)^2 overflows int64")
    A = np.asarray(A, dtype=np.int64) % p
    B, R, C = A.shape[0], A.shape[1], A.shape[2] - 1
    if C > R:
        raise NotUnique(None, f"{C} unknowns in {R} equations")
    batch = np.arange(B)
    for c in range(C):
        nonzero = A[:, c:, c] != 0
        if not nonzero.any(axis=1).all():
            raise NotUnique(None, f"no pivot for unknown {c} mod {p}")
        piv = c + nonzero.argmax(axis=1)
        swap = A[batch, piv].copy()
        A[batch, piv] = A[batch, c]
        A[batch, c] = swap
        factors = A[:, :, c].copy()
        factors[:, c] = 0
        A = (A * swap[:, c, None, None] - factors[:, :, None] * swap[:, None, :]) % p
    if A[:, C:, C].any():
        raise NoSolution(f"inconsistent system mod {p}")
    diag = A[:, range(C), range(C)]
    inv = np.ones_like(diag)
    e = p - 2
    while e:  # diag^(p-2), by square and multiply
        if e & 1:
            inv = inv * diag % p
        diag = diag * diag % p
        e >>= 1
    return A[:, :C, C] * inv % p


def batch_matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """Batched (T,n,k) @ (T,k,m) mod p, with an explicit int64 overflow guard."""
    A = np.asarray(A, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    k = A.shape[-1]
    if k * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError("inner dimension times p^2 would overflow int64")
    return np.matmul(A, B) % p


def sample_rank_exact(rng: np.random.Generator, p: int, count: int,
                      rows: int, cols: int, t: int) -> np.ndarray:
    """Batch of `count` uniform rank-t matrices over GF(p), built as X Z
    with X uniform over full-column-rank rows x t and Z uniform over
    full-row-rank t x cols matrices (resampled until full rank), so the
    column and row spaces are uniform t-dimensional subspaces."""
    if t == 0:
        return np.zeros((count, rows, cols), dtype=np.int64)
    X = rng.integers(0, p, size=(count, rows, t)).astype(np.int64)
    Z = rng.integers(0, p, size=(count, t, cols)).astype(np.int64)
    while True:
        bad = np.nonzero((batch_rank_mod(X, p) < t) | (batch_rank_mod(Z, p) < t))[0]
        if bad.size == 0:
            break
        X[bad] = rng.integers(0, p, size=(bad.size, rows, t))
        Z[bad] = rng.integers(0, p, size=(bad.size, t, cols))
    return batch_matmul_mod(X, Z, p)
