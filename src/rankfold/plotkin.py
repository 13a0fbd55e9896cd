"""Doubling construction for rank-metric codes over GF(q), q odd.

Two m x n matrix codes C and D and a nonzero scalar a combine into a
2m x 2n code whose words are

    [[A0 + B0, a(A1 - B1)],
     [A1 + B1, A0 - B0]]       A0, A1 in C,  B0, B1 in D.

The fold is written once, as plotkin_fold(Y, a, join).  Over the
quadratic algebra K[x]/(x^2 - a) it multiplies by (x^-1 I | I) on the
left and (I ; -x^-1 I) on the right, which kills the A-blocks and maps a
codeword to 2 B1 + (2x/a) B0.  With Y's blocks over K its value is
join(bl - tr/a, (tl - br)/a): the arithmetic stays in K, and only
join(U, V) = U + xV enters the algebra, in the caller's representation:
GF(q) x GF(q) (the two square roots of a) when a is a square, GF(q^2)
otherwise, and a multiquadratic tower for the Reed-Muller codes.
doubling_decode then decodes D on the fold and C by erasures, for every
caller.  PlotkinCode takes any two linalg.MatrixCodes as C and D and is
one itself, so a doubled code can be doubled again.  The folded error
keeps the original rank for all but a q^(t-m-1) fraction of rank-t
errors (q^(2t-2m-2) over the extension), which the Monte Carlo harness
at the bottom measures.
"""

from __future__ import annotations

import dataclasses
from math import exp, lgamma, log, log1p

import numpy as np

from .errors import DecodingFailure, DimensionMismatch, ParameterMismatch
from .gabidulin import GabidulinCode, GabidulinMatrixCode
from .gf import ExtField, PrimeField, QuadExtField
from .linalg import ExactMatrix, MatrixCode, check_radius, dual_basis, flatten
# sample_rank_exact stays bound here for tools that patch the module's names.
from .modmat import batch_rank_mod, batch_rank_quad, sample_rank_exact, sample_rank_factors  # noqa: F401
from .rng import derive_seed


def _check_shapes(shape: tuple[int, int], **blocks: ExactMatrix):
    for name, M in blocks.items():
        if M.shape != shape:
            raise DimensionMismatch(f"{name} must be {shape[0]}x{shape[1]}, got {M.shape}")


def plotkin_encode(a, A0: ExactMatrix, A1: ExactMatrix, B0: ExactMatrix, B1: ExactMatrix) -> ExactMatrix:
    """Assemble the 2m x 2n block codeword from component words."""
    _check_shapes(A0.shape, A1=A1, B0=B0, B1=B1)
    return ExactMatrix.block(
        [
            [A0 + B0, (A1 - B1).scale(a)],
            [A1 + B1, A0 - B0],
        ]
    )


def plotkin_fold(Y: ExactMatrix, a, join):
    """The fold (x^-1 I | I) Y (I ; -x^-1 I) over K[x]/(x^2 - a), where
    join(U, V) = U + xV is the caller's representation of that algebra.

    With Y = [[tl, tr], [bl, br]] over K this is
    join(bl - tr/a, (tl - br)/a).  On a codeword it equals
    2 B1 + (2x/a) B0; on an error it is a two-sided linear combination, so
    the result never gains rank.
    """
    rows, cols = Y.shape
    if rows % 2 or cols % 2:
        raise DimensionMismatch("foldable matrices have even dimensions")
    inv_a = Y.field.coerce(a).inverse()
    tl, tr, bl, br = Y.split_blocks(rows // 2, cols // 2)
    return join(bl - tr.scale(inv_a), (tl - br).scale(inv_a))


def doubling_decode(Y: ExactMatrix, W, a, algebra, decode_errors, decode_erasures) -> ExactMatrix:
    """Decoder for a doubled code, shared by PlotkinCode and RMCode.

    Y is a codeword [[A0 + B0, a(A1 - B1)], [A1 + B1, A0 - B0]] over K
    plus an error, and `algebra` is K[x]/(x^2 - a) in some representation:
    algebra.join(U, V) is U + xV and algebra.split undoes it.  W is the
    fold of Y, plotkin_fold(Y, a, algebra.join), which cancels the
    A-blocks and leaves 2 B1 + (2x/a) B0 plus the folded error.
    decode_errors(W) returns the D-codeword nearest W and the row space of
    their difference; decode_erasures(Z, support) returns the C-codeword
    of Z whose difference from Z has its rows in `support`.

    The steps: decode D, peel B0 and B1 off Y, fold the bottom half on
    the right only (A1 - (x/a) A0 plus error rows inside the folded
    error's row space), erasure-decode C, and unpeel A0 and A1.
    """
    K = Y.field
    half = K.coerce(2).inverse()
    inv_a = K.coerce(a).inverse()
    W_hat, support = decode_errors(W)
    U, V = algebra.split(W_hat)
    B1, B0 = U.scale(half), V.scale(half * a)
    _, _, bl, br = Y.split_blocks(Y.rows // 2, Y.cols // 2)
    U, V = algebra.split(decode_erasures(algebra.join(bl - B1, (br + B0).scale(-inv_a)), support))
    return plotkin_encode(a, V.scale(-a), U, B0, B1)


class _SplitAlgebra:
    """K[x]/(x^2 - a) for a = r^2 in K: the product K x K, x -> (r, -r).
    A matrix over it is the pair of its images (U + rV, U - rV)."""

    def __init__(self, r):
        self.r = r
        self.half = r.field.coerce(2).inverse()
        self._half_over_r = self.half / r

    def join(self, U, V):
        rV = V.scale(self.r)
        return U + rV, U - rV

    def split(self, W):
        P, M = W
        return (P + M).scale(self.half), (P - M).scale(self._half_over_r)


def _doubled_span(c_gens, d_gens, a, field, rows, cols) -> list[ExactMatrix]:
    """The doubled code's words with one component generator in one slot
    and zeros elsewhere: each C generator as A0 and as A1, then each D
    generator as B0 and as B1."""
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
    the 2m x 2n ambient under the trace pairing Tr(M G^T), which is the
    dot product of the matrices flattened row by row."""
    a = field.coerce(a)

    def dual(gens):
        return [ExactMatrix(field, [v[i * cols:(i + 1) * cols] for i in range(rows)])
                for v in dual_basis(field, flatten(gens), rows * cols)]

    def rank(vectors):
        return ExactMatrix(field, vectors).rank() if vectors else 0

    lhs = dual_basis(field, flatten(_doubled_span(c_gens, d_gens, a, field, rows, cols)), 4 * rows * cols)
    rhs = flatten(_doubled_span(dual(c_gens), dual(d_gens), a.inverse(), field, rows, cols))
    return rank(lhs) == rank(rhs) == rank(lhs + rhs)


class PlotkinCode(MatrixCode):
    """Doubled code with a working decoder; a MatrixCode built from two.

    C and D are linalg.MatrixCodes over the same prime field and of the
    same shape, so a PlotkinCode can be C or D of another.  `radius` is
    the default error rank t of decode.  Rank-t errors whose fold keeps
    their rank decode when t < d(C) and
      - for a square a: t <= D's error radius;
      - for a non-square a: 2t <= D's error radius, and d(C) means the
        least rank of a nonzero word of C's span over GF(q^2).
    D then decodes the fold and C the erasures of the fold's row space.
    """

    def __init__(self, C, D, a, radius: int = 0):
        if (C.rows, C.cols) != (D.rows, D.cols):
            raise DimensionMismatch("component codes must share their shape")
        if C.base != D.base:
            raise DimensionMismatch("component codes must share their field")
        self.C = C
        self.D = D
        self.field = self.base = C.base
        if self.field.p == 2:
            raise ParameterMismatch("decoding needs odd characteristic")
        self.a = self.field.coerce(a)
        if not self.a:
            raise ParameterMismatch("the twist scalar must be nonzero")
        # K[x]/(x^2 - a), which decode folds into: GF(q) x GF(q) for a square a, else GF(q^2)
        if self.field.is_square(self.a):
            self._algebra = _SplitAlgebra(self.field.sqrt(self.a))
        else:
            self._algebra = QuadExtField(self.field, self.a.val)
        self.rows = 2 * C.rows
        self.cols = 2 * C.cols
        self.dim = 2 * (C.dim + D.dim)
        self.radius = radius

    def encode(self, A0, A1, B0, B1) -> ExactMatrix:
        _check_shapes((self.C.rows, self.C.cols), A0=A0)  # plotkin_encode checks the rest against A0
        return plotkin_encode(self.a, A0, A1, B0, B1)

    def random_codeword(self, rng) -> ExactMatrix:
        return self.encode(
            self.C.random_codeword(rng),
            self.C.random_codeword(rng),
            self.D.random_codeword(rng),
            self.D.random_codeword(rng),
        )

    def basis_codewords(self) -> list[ExactMatrix]:
        return _doubled_span(self.C.basis_codewords(), self.D.basis_codewords(), self.a,
                             self.field, self.C.rows, self.C.cols)

    def decode(self, Y: ExactMatrix, t: int | None = None) -> tuple[ExactMatrix, ExactMatrix]:
        """Recover (codeword, error) from Y = codeword + an error of rank at
        most t, by default the radius.

        Runs doubling_decode: a square a folds into GF(q) x GF(q), so D and
        C decode each factor; a non-square a folds into GF(q^2), where D and
        C decode through their extension decoders.  Either way the answer
        is verified against Y before being returned, so a wrong silent
        answer is impossible; anything else raises DecodingFailure, and
        t < 0 raises ParameterMismatch.
        """
        if Y.shape != (self.rows, self.cols):
            raise DimensionMismatch(f"expected a {self.rows}x{self.cols} matrix")
        t = check_radius(self.radius if t is None else t)
        algebra = self._algebra
        # The errors' row spaces reuse the eliminations of D's residual checks.
        if isinstance(algebra, _SplitAlgebra):
            def decode_errors(W):
                pairs = [self.D.decode(Wi, t) for Wi in W]
                return tuple(c for c, _ in pairs), tuple(e.row_space_basis() for _, e in pairs)

            def decode_erasures(Z, support):
                return tuple(map(self.C.decode_erasures, Z, support))
        else:
            def decode_errors(W):
                W_hat, E = self.D.decode_ext(W, t)
                return W_hat, E.row_space_basis()

            decode_erasures = self.C.decode_erasures_ext
        W = plotkin_fold(Y, self.a, algebra.join)
        C_hat = doubling_decode(Y, W, self.a, algebra, decode_errors, decode_erasures)
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
    the fold (I | b I) E (b I ; I) drops rank.

    Square a: b = 1/sqrt(a) in GF(q), fold over GF(q).  Non-square a:
    b = sqrt(a) in GF(q^2), fold tracked as a (u, v) component pair.
    Chunked but chunk-deterministic: chunk i draws from a generator seeded
    with (seed, i), so the tally is a pure function of (params, seed).

    E is never formed: with E = X Z, X = [X0; X1] and Z = [Z0 | Z1], the
    fold is P Q with P = X0 + b X1 and Q = b Z0 + Z1, of rank t < m exactly
    when P and Q both have rank t; over GF(q^2) they are the pairs (X0, X1)
    and (Z1, Z0).  Only the rank kernels bound q, raising ValueError beyond
    poly_fits_int64(q, 1) for a square twist and poly_fits_int64(q, 2) else.
    Raises ParameterMismatch for q = 2, as PlotkinCode does.
    """
    if not 0 <= t < m:
        raise ParameterMismatch("need 0 <= t < m")
    if trials < 0:
        raise ParameterMismatch("need trials >= 0")
    field = PrimeField(q)
    if field.p == 2:  # x^2 - 1 = (x - 1)^2: no doubling fold
        raise ParameterMismatch("the fold needs odd characteristic")
    a_el = field.coerce(a)
    if not a_el:
        raise ParameterMismatch("the twist scalar must be nonzero")
    square = field.is_square(a_el)
    b = int(field.sqrt(a_el).inverse().val) if square else None
    drops = 0
    for chunk_index, done in enumerate(range(0, trials, _FOLD_CHUNK)):
        count = min(_FOLD_CHUNK, trials - done)
        rng = np.random.default_rng(derive_seed(seed, chunk_index))
        X, Z = sample_rank_factors(rng, q, count, 2 * m, 2 * m, t)
        Zt = Z.transpose(0, 2, 1)
        X0, X1, Z0t, Z1t = X[:, :m], X[:, m:], Zt[:, :m], Zt[:, m:]
        # P and Q^T stacked: one lockstep elimination ranks both.
        if square:
            ranks = batch_rank_mod(np.concatenate((X0 + b * X1, b * Z0t + Z1t)) % q, q)
        else:
            ranks = batch_rank_quad(np.concatenate((X0, Z1t)), np.concatenate((X1, Z0t)), q, a % q)
        drops += int(np.count_nonzero((ranks[:count] < t) | (ranks[count:] < t)))
    return FoldStats(q=q, m=m, t=t, a=int(a_el.val), square=square, trials=trials, drops=drops)
