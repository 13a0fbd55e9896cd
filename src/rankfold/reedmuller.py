"""Binary rank Reed-Muller codes over multiquadratic towers.

Take the tower L = Q(sqrt(a_1), ..., sqrt(a_m)) and the sign-flip
automorphisms theta_i : sqrt(a_i) -> -sqrt(a_i), which generate a group
isomorphic to (Z/2Z)^m.  Q-linear endomorphisms of L can be written as
"theta polynomials" sum_S f_S * theta_S with f_S in L, where S runs over
subsets of the generators; the order-r code collects the maps whose
support only uses subsets of size at most r.  Through the coordinate
expansion (column j = coordinates of the image of the j-th basis
monomial) each such map becomes an N x N rational matrix, N = 2^m, and
the code becomes a rank-metric code: order r gives dimension
sum_{i<=r} C(m, i) over L and minimum rank distance 2^(m-r).

Splitting every object along the last square root yields 2x2 block
structure for codewords,

    [[A0 + B0,  a_m (A1 - B1)],
     [A1 + B1,  A0 - B0]]

with A-blocks of order r and B-blocks of order r-1 one level down the
tower, and matching block recursions for generator and parity-check
matrices.  This is the doubled-code shape of plotkin.py, so the decoder
is plotkin.doubling_decode over the tower algebra base(sqrt(a_m)): the
fold hands the B-part to the order r-1 code one level down (recursively)
and the A-part comes back from erasure decoding in the order r code one
level down.  Folding never increases the error rank; decoding succeeds
whenever every iterated fold of the error keeps its rank, and every
failure of that assumption is caught after the fact by rank checks, so
the decoder never returns a wrong codeword silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from .errors import DecodingFailure, DimensionMismatch, LengthMismatch, RankfoldError
from .exactfield import MQElement, MultiquadraticField, mq_field
from .linalg import ExactMatrix, solve_erasures
from .plotkin import doubling_decode

# RMCode.sample_error draws this many candidates before giving up
_SAMPLE_ATTEMPTS = 200


def _mask_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


class ThetaPolynomial:
    """A Q-linear map on the tower, written in the sign-flip basis.

    Coefficients are indexed by bitmasks over the tower generators: bit
    (i-1) set means theta_i participates in the term.  Zero coefficients
    are dropped on construction.
    """

    def __init__(self, field: MultiquadraticField, coeffs: dict):
        self.field = field
        self.coeffs = {mask: field.coerce(c) for mask, c in coeffs.items() if field.coerce(c)}
        for mask in self.coeffs:
            if not 0 <= mask < field.dim:
                raise ValueError(f"exponent mask {mask} out of range")

    def theta_degree(self) -> int:
        """Largest number of sign flips in any term; -1 for the zero map."""
        return max((mask.bit_count() for mask in self.coeffs), default=-1)

    def __call__(self, x) -> MQElement:
        x = self.field.coerce(x)
        acc = self.field.zero
        for mask, c in self.coeffs.items():
            acc = acc + c * x.galois(_mask_indices(mask))
        return acc

    def compose(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        """Composition as maps; theta_S theta_T = theta_(S xor T) and the
        inner coefficient passes through the outer sign flips."""
        if other.field != self.field:
            raise DimensionMismatch("compose requires the same tower")
        out: dict[int, MQElement] = {}
        for s, f in self.coeffs.items():
            flips = _mask_indices(s)
            for t, g in other.coeffs.items():
                key = s ^ t
                term = f * g.galois(flips)
                out[key] = out[key] + term if key in out else term
        return ThetaPolynomial(self.field, out)

    def __add__(self, other: "ThetaPolynomial") -> "ThetaPolynomial":
        if other.field != self.field:
            raise DimensionMismatch("addition requires the same tower")
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            out[mask] = out[mask] + c if mask in out else c
        return ThetaPolynomial(self.field, out)

    def __eq__(self, other):
        return (
            isinstance(other, ThetaPolynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"ThetaPolynomial({len(self.coeffs)} terms, degree {self.theta_degree()})"


@dataclass
class DecodeReport:
    """Outcome of a decode call.

    On success, codeword + recovered_error equals the input and the
    recovered error rank is within the code's capacity; this is verified
    before the report is built.  The trace records, per recursion level,
    the order/type handled and the rank of the folded error actually
    observed there.
    """

    success: bool
    codeword: Optional[ExactMatrix]
    recovered_error: Optional[ExactMatrix]
    reason: Optional[str] = None
    trace: list = dc_field(default_factory=list)


_BLOCK_CACHE: dict = {}


def _gen_rows(field: MultiquadraticField, gens_idx: tuple, r: int):
    """Rows of the generator matrix for order r on the given tower
    directions; each recursion level appends the (last direction) * row
    copies with +alpha / -alpha scalings."""
    if r < 0:
        return []
    if not gens_idx:
        return [(field.one,)]
    key = ("G", field.gens, gens_idx, min(r, len(gens_idx)))
    rows = _BLOCK_CACHE.get(key)
    if rows is not None:
        return rows
    top, rest = gens_idx[-1], gens_idx[:-1]
    alpha = field.alpha(top)
    rows = [row + tuple(alpha * e for e in row) for row in _gen_rows(field, rest, r)]
    rows += [row + tuple(-(alpha * e) for e in row) for row in _gen_rows(field, rest, r - 1)]
    _BLOCK_CACHE[key] = rows
    return rows


def _check_rows(field: MultiquadraticField, gens_idx: tuple, r: int):
    """Rows of the parity-check matrix: the same block recursion as the
    generator matrix but with inverse square roots, so that the two
    products cancel pairwise."""
    r = max(r, -1)
    if not gens_idx:
        return [] if r >= 0 else [(field.one,)]
    key = ("H", field.gens, gens_idx, min(r, len(gens_idx)))
    rows = _BLOCK_CACHE.get(key)
    if rows is not None:
        return rows
    top, rest = gens_idx[-1], gens_idx[:-1]
    ainv = field.alpha(top).inverse()
    rows = [row + tuple(ainv * e for e in row) for row in _check_rows(field, rest, r)]
    rows += [row + tuple(-(ainv * e) for e in row) for row in _check_rows(field, rest, r - 1)]
    _BLOCK_CACHE[key] = rows
    return rows


class RMCode:
    """Rank Reed-Muller code of order r on a multiquadratic tower.

    `base_height` marks how many leading tower generators form the
    coefficient field of the matrix side; the public construction uses 0
    (matrices over Q).  The recursive decoder produces descendants whose
    base grows by the folded-out generator at each level, with the tower
    rotated so base generators always come first.
    """

    def __init__(self, field: MultiquadraticField, r: int, base_height: int = 0):
        if not 0 <= base_height <= field.m:
            raise ValueError("base height out of range")
        self.field = field
        self.base_height = base_height
        self.m = field.m - base_height
        if not -1 <= r <= self.m:
            raise ValueError(f"order must be between -1 and {self.m}, got {r}")
        self.r = r
        self.size = 1 << self.m
        self.base_field = field.subfield(base_height)
        self.dim = sum(comb(self.m, i) for i in range(r + 1)) if r >= 0 else 0
        self.min_rank = (1 << (self.m - r)) if 0 <= r <= self.m else None
        # Largest error rank the fold/erasure decoder is designed for.
        self.t = (1 << (self.m - r - 1)) - 1 if 0 <= r < self.m else (self.size if r < 0 else 0)
        self._code_gens = tuple(range(base_height + 1, field.m + 1))

    # -- structure ------------------------------------------------------------

    def exponents(self) -> list[int]:
        """Support masks of the code's theta polynomials, in the row order
        of the generator matrix (masks increase as integers)."""
        return [mask for mask in range(self.size) if mask.bit_count() <= self.r]

    def _descend(self, r: int) -> "RMCode":
        """Code one fold down: last group direction moves into the base,
        tower rotated so the base stays a prefix."""
        g = self.field.gens
        s = self.base_height
        rotated = mq_field(g[:s] + (g[-1],) + g[s:-1])
        return RMCode(rotated, r, s + 1)

    def subcode(self) -> "RMCode":
        return self._descend(self.r - 1)

    # -- representations ---------------------------------------------------------

    def matrix_from_vector(self, vec: Sequence) -> ExactMatrix:
        """Coordinate expansion: column j holds the base-field coordinates
        of vec[j] along the code-direction basis monomials."""
        cols = []
        for x in vec:
            x = self.field.coerce(x)
            cols.append(x.blocks_over(self.base_height))
        rows = tuple(tuple(col[i] for col in cols) for i in range(self.size))
        return ExactMatrix(self.base_field, rows, _raw=True)

    def vector_from_matrix(self, M: ExactMatrix) -> list:
        if M.rows != self.size:
            raise DimensionMismatch(f"need {self.size} rows, got {M.rows}")
        return [MQElement.from_blocks(self.field, M.col(j)) for j in range(M.cols)]

    def theta_matrix(self, F: ThetaPolynomial) -> ExactMatrix:
        """Matrix of the map F: evaluate at each code basis monomial and
        expand the results over the base field."""
        if F.field != self.field:
            raise DimensionMismatch("polynomial lives on a different tower")
        evals = [F(self.field.basis_element(j << self.base_height)) for j in range(self.size)]
        return self.matrix_from_vector(evals)

    def encode(self, message: Sequence) -> ExactMatrix:
        """Message coefficients (in exponent order) to the codeword matrix."""
        masks = self.exponents()
        if len(message) != len(masks):
            raise LengthMismatch(f"message length must be {len(masks)}, got {len(message)}")
        coeffs = {mask << self.base_height: self.field.coerce(c) for mask, c in zip(masks, message)}
        return self.theta_matrix(ThetaPolynomial(self.field, coeffs))

    def random_message(self, rng, bound: int = 9) -> list:
        return [self.field.random_element(rng, bound) for _ in range(self.dim)]

    # -- generator / parity-check -----------------------------------------------------

    def generator_matrix(self) -> ExactMatrix:
        rows = _gen_rows(self.field, self._code_gens, self.r)
        if not rows:
            return ExactMatrix(self.field, (), _raw=True)
        return ExactMatrix(self.field, tuple(rows), _raw=True)

    def parity_check_matrix(self) -> ExactMatrix:
        rows = _check_rows(self.field, self._code_gens, self.r)
        if not rows:
            return ExactMatrix(self.field, (), _raw=True)
        return ExactMatrix(self.field, tuple(rows), _raw=True)

    # -- syndromes --------------------------------------------------------------------

    def _coerce_vector(self, y: Sequence) -> list:
        out = []
        for v in y:
            if isinstance(v, MQElement) and v.field != self.field:
                v = v.embed(self.field)
            out.append(self.field.coerce(v))
        return out

    def naive_syndrome(self, y: Sequence) -> list:
        """Parity-check times vector, as a plain matrix product."""
        y = self._coerce_vector(y)
        if len(y) != self.size:
            raise LengthMismatch(f"need {self.size} entries, got {len(y)}")
        H = self.parity_check_matrix()
        zero = self.field.zero
        out = []
        for row in H.entries:
            acc = zero
            for h, v in zip(row, y):
                if h and v:
                    acc = acc + h * v
            out.append(acc)
        return out

    def fast_syndrome(self, y: Sequence) -> list:
        """Parity-check times vector through the two-half recursion.

        Each level needs the sub-syndromes of both halves at the current
        order and at order-1; memoizing on (segment, order) makes the
        lower-order results reuse the sub-results already computed for the
        higher order, so a segment is never recomputed.  All scalar work is
        multiplication by single square roots, which costs O(2^m) per
        element instead of a general tower product.
        """
        y = self._coerce_vector(y)
        if len(y) != self.size:
            raise LengthMismatch(f"need {self.size} entries, got {len(y)}")
        gens_idx = self._code_gens
        field = self.field
        memo: dict = {}

        def rec(lo: int, hi: int, r: int, level: int):
            r = max(r, -1)
            if r >= level:
                return ()
            if level == 0:
                return (y[lo],)
            key = (lo, hi, r)
            hit = memo.get(key)
            if hit is not None:
                return hit
            mid = (lo + hi) // 2
            idx = gens_idx[level - 1]
            inv_a = Fraction(1) / field.gens[idx - 1]
            u = rec(lo, mid, r, level - 1)
            v = rec(mid, hi, r, level - 1)
            u2 = rec(lo, mid, r - 1, level - 1)
            v2 = rec(mid, hi, r - 1, level - 1)
            va = [e.mul_by_alpha(idx).scale(inv_a) for e in v]
            v2a = [e.mul_by_alpha(idx).scale(inv_a) for e in v2]
            out = tuple(a + b for a, b in zip(u, va)) + tuple(a - b for a, b in zip(u2, v2a))
            memo[key] = out
            return out

        return list(rec(0, self.size, self.r, self.m))

    # -- folding ------------------------------------------------------------------------

    def fold(self, Y: ExactMatrix) -> ExactMatrix:
        """One folding step.

        Multiplies by ((1/alpha) I | I) on the left and (I ; -(1/alpha) I)
        on the right, where alpha is the square root of the last code
        direction: codeword A-blocks cancel, the result is
        (2/alpha) B0 + 2 B1 plus the folded error, half the size, over the
        base extended by alpha.  Rank never increases under folding.
        """
        self._check_received(Y)
        if self.m == 0:
            raise DimensionMismatch("cannot fold a height-zero code")
        inv_a = Fraction(1) / self.field.gens[-1]
        h = self.size // 2
        tl, tr, bl, br = Y.split_blocks(h, h)
        return _Tower(self).join(bl - tr.map_entries(lambda e: e.scale(inv_a)),
                                 (tl - br).map_entries(lambda e: e.scale(inv_a)))

    def folds_preserve_rank(self, E: ExactMatrix, rank: Optional[int] = None) -> bool:
        """True if every iterated fold of E down to the decoder's recursion
        depth keeps the rank of E."""
        if rank is None:
            rank = E.rank()
        code: RMCode = self
        M = E
        for _ in range(max(self.r + 1, 0)):
            M = code.fold(M)
            code = code.subcode()
            if M.rank() != rank:
                return False
        return True

    def sample_error(self, rng, bound: int = 50) -> ExactMatrix:
        """Random error of rank exactly t with fold-stable rank.

        Built as X Z with integer entries in [0, bound]; resampled until
        the rank is exactly t and every iterated fold the decoder will
        perform preserves it.
        """
        t = self.t if 0 <= self.r < self.m else 0
        if t == 0:
            return ExactMatrix.zeros(self.base_field, self.size, self.size)
        for _ in range(_SAMPLE_ATTEMPTS):
            X = ExactMatrix(
                self.base_field,
                [[rng.randint(0, bound) for _ in range(t)] for _ in range(self.size)],
            )
            Z = ExactMatrix(
                self.base_field,
                [[rng.randint(0, bound) for _ in range(self.size)] for _ in range(t)],
            )
            E = X @ Z
            if E.rank() != t:
                continue
            if self.folds_preserve_rank(E, t):
                return E
        raise RankfoldError(f"no rank-{t} error with stable folds in {_SAMPLE_ATTEMPTS} attempts")

    # -- decoding -------------------------------------------------------------------------

    def _check_received(self, Y: ExactMatrix):
        if Y.field != self.base_field:
            raise DimensionMismatch("received matrix is over the wrong field")
        if Y.shape != (self.size, self.size):
            raise DimensionMismatch(f"need a {self.size}x{self.size} matrix, got {Y.shape}")

    def erasure_decode(self, y: Sequence, support: ExactMatrix) -> list:
        """Recover the codeword from y = c + x . support.

        The unknown left factor x solves (H support^T) x^T = H y^T, with
        syndromes from fast_syndrome; by linearity its kernel consists of
        the left factors of codewords with row space inside the support, so
        the solve is unique exactly when no nonzero codeword hides in the
        erasure space.  Raises DecodingFailure when the system is
        inconsistent or ambiguous.
        """
        y = self._coerce_vector(y)
        if len(y) != self.size:
            raise LengthMismatch(f"need {self.size} entries, got {len(y)}")
        if support.rows and support.cols != self.size:
            raise DimensionMismatch("support width must match the code length")
        rows = [self._coerce_vector(row) for row in support.entries]
        return solve_erasures(self.field, self.fast_syndrome, y, rows)

    def decode(self, Y: ExactMatrix) -> DecodeReport:
        """Fold-and-recurse decoder.

        Succeeds (and says so only after verifying the residual rank) for
        any error of rank at most t whose iterated folds preserve rank;
        otherwise reports failure.  Order -1 is the zero code and order m
        is everything, both handled directly.
        """
        self._check_received(Y)
        trace: list = []
        try:
            C = self._decode_inner(Y, trace)
        except DecodingFailure as exc:
            return DecodeReport(False, None, None, str(exc), trace)
        E = Y - C
        residual = E.rank()
        if residual > self.t:
            return DecodeReport(
                False, None, None,
                f"verification failed: residual rank {residual} exceeds capacity {self.t}",
                trace,
            )
        return DecodeReport(True, C, E, None, trace)

    def _decode_inner(self, Y: ExactMatrix, trace: list) -> ExactMatrix:
        if self.r < 0:
            return ExactMatrix.zeros(self.base_field, self.size, self.size)
        if self.r >= self.m:
            return Y
        sub, ecode = self.subcode(), self._descend(self.r)

        def decode_errors(W):
            report = sub.decode(W)
            if not report.success:
                trace.extend(report.trace)
                raise DecodingFailure(f"inner decode at order {sub.r}: {report.reason}")
            support = report.recovered_error.row_space_basis()
            trace.append({"order": self.r, "height": self.m, "fold_rank": support.rows})
            trace.extend(report.trace)
            return report.codeword, support

        def decode_erasures(Z, support):
            return ecode.matrix_from_vector(ecode.erasure_decode(ecode.vector_from_matrix(Z), support))

        return doubling_decode(Y, self.field.gens[-1], _Tower(self), decode_errors, decode_erasures)

    def __repr__(self):
        return f"RMCode(order={self.r}, height={self.m}, tower={self.field!r})"


class _Tower:
    """The base extended by alpha = sqrt(a), the code's last direction,
    as base[x]/(x^2 - a): matrices over it have entries u + v alpha."""

    def __init__(self, code: RMCode):
        self.code = code
        gens = code.field.gens
        self.field = mq_field(gens[: code.base_height] + (gens[-1],))

    def fold(self, Y: ExactMatrix) -> ExactMatrix:
        return self.code.fold(Y)  # the public fold checks Y's field and shape

    def join(self, U: ExactMatrix, V: ExactMatrix) -> ExactMatrix:
        f = self.field
        rows = tuple(
            tuple(MQElement.join(f, u, v) for u, v in zip(ru, rv)) for ru, rv in zip(U.entries, V.entries)
        )
        return ExactMatrix(f, rows, _raw=True)

    def split(self, W: ExactMatrix) -> tuple[ExactMatrix, ExactMatrix]:
        parts = [[e.split() for e in row] for row in W.entries]
        base = self.code.base_field
        return tuple(ExactMatrix(base, tuple(tuple(p[i] for p in row) for row in parts), _raw=True) for i in (0, 1))
