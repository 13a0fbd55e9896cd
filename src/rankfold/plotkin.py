"""Doubling construction for rank-metric codes over GF(q), q odd.

Two m x n matrix codes C and D and a nonzero scalar a combine into a
2m x 2n code whose words are

    [[A0 + B0, a(A1 - B1)],
     [A1 + B1, A0 - B0]]       A0, A1 in C,  B0, B1 in D.

Multiplying by (s/sqrt(a) I | I) on the left and (I ; -s/sqrt(a) I) on
the right kills the A-blocks and maps a codeword to (2s/sqrt(a)) B0 +
2 B1, turning one decoding problem in the doubled space into error
decoding in D followed by erasure decoding in C.  doubling_decode runs
that sequence once for every caller, over the quadratic algebra
K[x]/(x^2 - a): GF(q) x GF(q) (the two sign choices) when a is a square,
GF(q^2) otherwise, and a multiquadratic tower for the Reed-Muller codes.
The folded error keeps the original rank for all but a q^(t-m-1)
fraction of rank-t errors (q^(2t-2m-2) over the extension), which the
Monte Carlo harness at the bottom measures.
"""

from __future__ import annotations

import dataclasses
from math import exp, lgamma, log, log1p

import numpy as np

from .errors import DecodingFailure, DimensionMismatch, ParameterMismatch
from .gabidulin import GabidulinCode, GabidulinMatrixCode
from .gf import ExtField, PrimeField, QuadExtField
from .linalg import ExactMatrix
from .modmat import batch_rank_mod, batch_rank_quad, sample_rank_exact
from .rng import derive_seed


def _check_block(M: ExactMatrix, rows: int, cols: int, name: str):
    if M.shape != (rows, cols):
        raise DimensionMismatch(f"{name} must be {rows}x{cols}, got {M.shape}")


def plotkin_encode(a, A0: ExactMatrix, A1: ExactMatrix, B0: ExactMatrix, B1: ExactMatrix) -> ExactMatrix:
    """Assemble the 2m x 2n block codeword from component words."""
    rows, cols = A0.shape
    for name, M in (("A1", A1), ("B0", B0), ("B1", B1)):
        _check_block(M, rows, cols, name)
    return ExactMatrix.block(
        [
            [A0 + B0, (A1 - B1).scale(a)],
            [A1 + B1, A0 - B0],
        ]
    )


def plotkin_encode_char2(a, A0: ExactMatrix, A1: ExactMatrix, B0: ExactMatrix, B1: ExactMatrix) -> ExactMatrix:
    """Characteristic-2 variant of the assembly (encoder only; the
    decoders in this module require odd q)."""
    if A0.field.p != 2:
        raise DimensionMismatch("this assembly is for characteristic 2")
    rows, cols = A0.shape
    for name, M in (("A1", A1), ("B0", B0), ("B1", B1)):
        _check_block(M, rows, cols, name)
    return ExactMatrix.block(
        [
            [A0 + B0, (A1 + B1).scale(a) + B0],
            [A1 + B1, A0 + A1 + B0],
        ]
    )


def plotkin_fold(Y: ExactMatrix, a, sign: int, sqrt_a, field) -> ExactMatrix:
    """(s b I | I) Y (I ; -s b I) with b = 1/sqrt(a), over the given field.

    On a codeword this equals (2s/sqrt(a)) B0 + 2 B1; on an error it is a
    two-sided linear combination, so the result never gains rank.
    """
    rows, cols = Y.shape
    if rows % 2 or cols % 2:
        raise DimensionMismatch("foldable matrices have even dimensions")
    if Y.field != field:
        Y = Y.map_entries(field.coerce, field)
    b = field.coerce(sqrt_a).inverse()
    if sign < 0:
        b = -b
    tl, tr, bl, br = Y.split_blocks(rows // 2, cols // 2)
    inv_a = field.coerce(a).inverse()
    return (tl - br).scale(b) + bl - tr.scale(inv_a)


def doubling_decode(Y: ExactMatrix, a, algebra, decode_errors, decode_erasures) -> ExactMatrix:
    """Decoder for a doubled code, shared by PlotkinCode and RMCode.

    Y is a codeword [[A0 + B0, a(A1 - B1)], [A1 + B1, A0 - B0]] over K
    plus an error, and `algebra` is K[x]/(x^2 - a) in some representation:
    algebra.fold(Y) is (x^-1 I | I) Y (I ; -x^-1 I), which cancels the
    A-blocks and leaves 2 B1 + (2x/a) B0 plus the folded error;
    algebra.join(U, V) is U + xV and algebra.split undoes it.
    decode_errors(W) returns the D-codeword nearest W and the row space of
    their difference; decode_erasures(Z, support) returns the C-codeword
    of Z whose difference from Z has its rows in `support`.

    The steps: fold, decode D, peel B0 and B1 off Y, fold the bottom half
    on the right only (A1 - (x/a) A0 plus error rows inside the folded
    error's row space), erasure-decode C, and unpeel A0 and A1.
    """
    K = Y.field
    half = K.coerce(2).inverse()
    inv_a = K.coerce(a).inverse()
    W_hat, support = decode_errors(algebra.fold(Y))
    U, V = algebra.split(W_hat)
    B1, B0 = U.scale(half), V.scale(half * a)
    _, _, bl, br = Y.split_blocks(Y.rows // 2, Y.cols // 2)
    U, V = algebra.split(decode_erasures(algebra.join(bl - B1, (br + B0).scale(-inv_a)), support))
    return plotkin_encode(a, V.scale(-a), U, B0, B1)


class _SplitAlgebra:
    """K[x]/(x^2 - a) for a = r^2 in K: the product K x K, x -> (r, -r).
    A matrix over it is the pair of its images (U + rV, U - rV)."""

    def __init__(self, a, r):
        self.a = a
        self.r = r
        self.half = r.field.coerce(2).inverse()

    def fold(self, Y):
        return tuple(plotkin_fold(Y, self.a, sign, self.r, self.r.field) for sign in (+1, -1))

    def join(self, U, V):
        rV = V.scale(self.r)
        return U + rV, U - rV

    def split(self, W):
        P, M = W
        return (P + M).scale(self.half), (P - M).scale(self.half / self.r)


class _ExtAlgebra:
    """K[x]/(x^2 - a) for a non-square a: GF(q^2) with s = sqrt(a) = x,
    entries u + v s."""

    def __init__(self, a):
        self.a = a
        self.ext = QuadExtField(a.field, int(a.val))
        self.join = self.ext.join_matrix
        self.split = self.ext.split_matrix

    def fold(self, Y):
        return plotkin_fold(Y, self.a, +1, self.ext.sqrt_nonresidue, self.ext)


def plotkin_dim(code: "PlotkinCode") -> int:
    return 2 * (code.C.dim + code.D.dim)


def _flatten(mats, field) -> ExactMatrix:
    rows = [
        [M.entries[i][j] for i in range(M.rows) for j in range(M.cols)]
        for M in mats
    ]
    return ExactMatrix(field, rows)


def _dual_basis(gens, field, rows, cols) -> list[ExactMatrix]:
    """All matrices with zero trace pairing Tr(M G^T) against every
    generator; the pairing is the entrywise dot product on vectorizations."""
    if not gens:
        out = []
        for i in range(rows):
            for j in range(cols):
                M = [[field.zero] * cols for _ in range(rows)]
                M[i][j] = field.one
                out.append(ExactMatrix(field, M))
        return out
    flat = _flatten(gens, field)
    out = []
    for vec in flat.kernel_basis():
        out.append(ExactMatrix(field, [list(vec[i * cols : (i + 1) * cols]) for i in range(rows)]))
    return out


def _doubled_span(c_gens, d_gens, a, field, rows, cols) -> list[ExactMatrix]:
    zero = ExactMatrix.zeros(field, rows, cols)
    out = []
    for G in c_gens:
        out.append(plotkin_encode(a, G, zero, zero, zero))
        out.append(plotkin_encode(a, zero, G, zero, zero))
    for H in d_gens:
        out.append(plotkin_encode(a, zero, zero, H, zero))
        out.append(plotkin_encode(a, zero, zero, zero, H))
    return out


def plotkin_dual_check(c_gens, d_gens, a, field, rows, cols) -> bool:
    """Whether the dual of the doubled code built from (C, D, a) equals the
    doubled code built from (C dual, D dual, 1/a), as exact subspaces of
    the 2m x 2n ambient under the trace pairing."""
    a = field.coerce(a)
    lhs_dual = _dual_basis(_doubled_span(c_gens, d_gens, a, field, rows, cols), field, 2 * rows, 2 * cols)
    rhs = _doubled_span(
        _dual_basis(c_gens, field, rows, cols),
        _dual_basis(d_gens, field, rows, cols),
        a.inverse(),
        field,
        rows,
        cols,
    )
    L = _flatten(lhs_dual, field) if lhs_dual else ExactMatrix(field, ())
    R = _flatten(rhs, field) if rhs else ExactMatrix(field, ())
    if L.rows == 0 or R.rows == 0:
        return L.rows == R.rows
    rl, rr = L.rank(), R.rank()
    return rl == rr and L.vstack(R).rank() == rl


class PlotkinCode:
    """Doubled code with a working decoder.

    C and D are matrix-code handles over the same prime field and shape;
    D must decode errors and C erasures (plus their quadratic-extension
    counterparts when a is not a square).  `radius` is the error rank the
    pair of component decoders supports.
    """

    def __init__(self, C, D, a, radius: int = 0):
        if (C.rows, C.cols) != (D.rows, D.cols):
            raise DimensionMismatch("component codes must share their shape")
        if C.base != D.base:
            raise DimensionMismatch("component codes must share their field")
        self.C = C
        self.D = D
        self.field = C.base
        if self.field.p == 2:
            raise ParameterMismatch("decoding needs odd characteristic")
        self.a = self.field.coerce(a)
        if not self.a:
            raise ParameterMismatch("the twist scalar must be nonzero")
        self.rows = 2 * C.rows
        self.cols = 2 * C.cols
        self.dim = 2 * (C.dim + D.dim)
        self.radius = radius

    def encode(self, A0, A1, B0, B1) -> ExactMatrix:
        for name, M in (("A0", A0), ("A1", A1)):
            _check_block(M, self.C.rows, self.C.cols, name)
        for name, M in (("B0", B0), ("B1", B1)):
            _check_block(M, self.D.rows, self.D.cols, name)
        return plotkin_encode(self.a, A0, A1, B0, B1)

    def random_codeword(self, rng) -> ExactMatrix:
        return self.encode(
            self.C.random_codeword(rng),
            self.C.random_codeword(rng),
            self.D.random_codeword(rng),
            self.D.random_codeword(rng),
        )

    def basis_codewords(self) -> list[ExactMatrix]:
        zero = ExactMatrix.zeros(self.field, self.C.rows, self.C.cols)
        out = []
        for G in self.C.basis_codewords():
            out.append(self.encode(G, zero, zero, zero))
            out.append(self.encode(zero, G, zero, zero))
        for H in self.D.basis_codewords():
            out.append(self.encode(zero, zero, H, zero))
            out.append(self.encode(zero, zero, zero, H))
        return out

    def decode(self, Y: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
        """Recover (codeword, error) from Y = codeword + an error of rank at
        most the radius t.

        Runs doubling_decode: a square a folds into GF(q) x GF(q), so D and
        C decode each factor; a non-square a folds into GF(q^2), where D and
        C decode through their extension decoders.  Either way the answer
        is verified against Y before being returned, so a wrong silent
        answer is impossible; anything else raises DecodingFailure.
        """
        if Y.shape != (self.rows, self.cols):
            raise DimensionMismatch(f"expected a {self.rows}x{self.cols} matrix")
        t = self.radius
        if self.field.is_square(self.a):
            algebra = _SplitAlgebra(self.a, self.field.sqrt(self.a))

            def decode_errors(W):
                pairs = [self.D.decode(Wi, t) for Wi in W]
                return tuple(c for c, _ in pairs), tuple(e.row_space_basis() for _, e in pairs)

            def decode_erasures(Z, support):
                return tuple(map(self.C.decode_erasures, Z, support))
        else:
            algebra = _ExtAlgebra(self.a)

            def decode_errors(W):
                W_hat = self.D.decode_ext(W, t)
                return W_hat, (W - W_hat).row_space_basis()

            decode_erasures = self.C.decode_erasures_ext
        C_hat = doubling_decode(Y, self.a, algebra, decode_errors, decode_erasures)
        E_hat = Y - C_hat
        if E_hat.rank() > t:
            raise DecodingFailure("residual rank exceeds the decoding radius")
        return C_hat, E_hat

    def __repr__(self):
        return (
            f"PlotkinCode(q={self.field.p}, shape={self.rows}x{self.cols}, "
            f"dim={self.dim}, radius={self.radius})"
        )


def gabidulin_plotkin(q: int, m: int, k1: int, k2: int, a=1) -> PlotkinCode:
    """Doubled code from two Gabidulin components with matched radii.

    With m = 2*k1 - k2, the D component corrects t = (m - k2)/2 = m - k1
    errors and the C component the same number of erasures, so the result
    decodes rank-t errors in the 2m x 2m ambient.  A non-square a folds
    over GF(q^2), where D's extension decoder needs 2t <= m - k1, so the
    radius halves.
    """
    if m != 2 * k1 - k2:
        raise ParameterMismatch(f"need m = 2*k1 - k2, got m={m}, k1={k1}, k2={k2}")
    field = ExtField(q, m)
    C = GabidulinMatrixCode(GabidulinCode(field, k1))
    D = GabidulinMatrixCode(GabidulinCode(field, k2))
    radius = m - k1 if field.base.is_square(a) else (m - k1) // 2
    return PlotkinCode(C, D, a, radius=radius)


def non_mrd_witness(code: PlotkinCode) -> tuple[ExactMatrix, int]:
    """Codeword showing the doubled code misses the Singleton rank bound.

    Taking A0 of minimal rank in C with every other block zero gives the
    block-diagonal word diag(A0, A0), of rank 2*Rk(A0); for the Gabidulin
    instantiation that is 2(m - k1 + 1), strictly below the MRD distance
    2m - k1 - k2 + 1 whenever m - k2 > 2.  Returns (codeword, MRD bound).
    """
    A0 = code.C.to_matrix(code.C.code.minimum_rank_codeword())
    zero = ExactMatrix.zeros(code.field, code.C.rows, code.C.cols)
    witness = code.encode(A0, zero, zero, zero)
    mrd = code.rows - code.dim // code.rows + 1
    return witness, mrd


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b), by the continued fraction of
    Numerical Recipes (section 6.4) evaluated with Lentz's method."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)  # the fraction converges fast on this side
    tiny = 1e-300
    c, d = 1.0, 1.0 / max(1.0 - (a + b) * x / (a + 1.0), tiny)
    h = d
    for m in range(1, 100000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h * exp(lgamma(a + b) - lgamma(a) - lgamma(b) + a * log(x) + b * log1p(-x)) / a


def _beta_quantile(q: float, a: float, b: float) -> float:
    """The x with I_x(a, b) = q, by bisection down to adjacent floats."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _betainc(a, b, mid) < q:
            lo = mid
        else:
            hi = mid


def fold_drop_bound(q: int, m: int, t: int, square: bool) -> float:
    """The paper's bound on the share of rank-t 2m x 2m errors over GF(q)
    whose fold drops rank: q^(t-m-1) for a square twist, and its square
    q^(2t-2m-2) for a non-square twist, which folds over GF(q^2)."""
    if square:
        return float(q) ** (t - m - 1)
    return float(q) ** (2 * t - 2 * m - 2)


@dataclasses.dataclass
class FoldStats:
    """Monte Carlo tally of rank-dropping folds."""

    q: int
    m: int
    t: int
    a: int
    square: bool
    trials: int
    drops: int

    @property
    def rate(self) -> float:
        return self.drops / self.trials if self.trials else 0.0

    def ci95(self) -> tuple[float, float]:
        """Exact (Clopper-Pearson) 95% interval for the drop probability:
        the 2.5% quantile of Beta(k, n-k+1) and the 97.5% quantile of
        Beta(k+1, n-k)."""
        k, n = self.drops, self.trials
        lo = 0.0 if k == 0 else _beta_quantile(0.025, k, n - k + 1)
        hi = 1.0 if k == n else _beta_quantile(0.975, k + 1, n - k)
        return lo, hi

    @property
    def paper_bound(self) -> float:
        return fold_drop_bound(self.q, self.m, self.t, self.square)

    def to_json(self) -> dict:
        lo, hi = self.ci95()
        return {
            "q": self.q,
            "m": self.m,
            "t": self.t,
            "a": self.a,
            "square": self.square,
            "trials": self.trials,
            "drops": self.drops,
            "rate": self.rate,
            "ci95": [lo, hi],
            "paper_bound": self.paper_bound,
        }


_FOLD_CHUNK = 4096


def fold_probability_experiment(q: int, m: int, t: int, a: int, trials: int, seed: int) -> FoldStats:
    """Sample uniform rank-t 2m x 2m errors over GF(q) and count how often
    the fold (I | b I) E (b' I ; I) drops rank.

    Square a: b = b' = 1/sqrt(a) in GF(q), fold over GF(q).  Non-square a:
    b = b' = sqrt(a) in GF(q^2), fold tracked as a (u, v) component pair.
    Chunked but chunk-deterministic: chunk i draws from a generator seeded
    with (seed, i), so the tally is a pure function of (params, seed).
    """
    if not 0 <= t < m:
        raise ParameterMismatch("need 0 <= t < m")
    if trials < 0:
        raise ParameterMismatch("need trials >= 0")
    field = PrimeField(q)
    a_el = field.coerce(a)
    if not a_el:
        raise ParameterMismatch("the twist scalar must be nonzero")
    square = field.is_square(a_el)
    if square:
        b = int(field.sqrt(a_el).inverse().val)
    drops = 0
    done = 0
    chunk_index = 0
    while done < trials:
        count = min(_FOLD_CHUNK, trials - done)
        rng = np.random.default_rng(derive_seed(seed, chunk_index))
        E = sample_rank_exact(rng, q, count, 2 * m, 2 * m, t)
        E00, E01 = E[:, :m, :m], E[:, :m, m:]
        E10, E11 = E[:, m:, :m], E[:, m:, m:]
        if t == 0:
            ranks = np.zeros(count, dtype=np.int64)
        elif square:
            folded = (b * E00 + E01 + (b * b % q) * E10 + b * E11) % q
            ranks = batch_rank_mod(folded, q)
        else:
            U = (E01 + (a % q) * E10) % q
            V = (E00 + E11) % q
            ranks = batch_rank_quad(U, V, q, a % q)
        drops += int(np.count_nonzero(ranks < t))
        done += count
        chunk_index += 1
    return FoldStats(q=q, m=m, t=t, a=int(a_el.val), square=square, trials=trials, drops=drops)
