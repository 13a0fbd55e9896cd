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

One signed-monomial rule gives the code's structure: theta_S sends the
basis monomial b_j of the code directions to (-1)^|S & j| b_j, so
sum_S f_S theta_S sends b_j to (H f)_j b_j, H the +-1 Walsh-Hadamard
matrix.  Row S of the generator matrix is ((-1)^|S & j| b_j)_j, |S| <= r,
and of the parity-check matrix ((-1)^|S & j| / b_j)_j, |S| > r.  Encoding
is one Hadamard butterfly (m 2^m tower additions) and n products by b_j;
the syndrome of y is the butterfly of y_j / b_j, read at |S| > r, run on
the integer coordinates of y (RMCode._syndrome_ints): in int64 while
n * max|entry| * max|scale| < 2^63, on Python ints past that bound.

Splitting every object along the last square root yields 2x2 block
structure for codewords,

    [[A0 + B0,  a_m (A1 - B1)],
     [A1 + B1,  A0 - B0]]

with A-blocks of order r and B-blocks of order r-1 one level down the
tower.  This is the doubled-code shape of plotkin.py, so the decoder
is plotkin.doubling_decode whose algebra is the tower base(sqrt(a_m)),
the subcode's base field, through its matrix join and split: the fold
hands the B-part to the order r-1 code one level down (recursively) and
the A-part comes back from erasure decoding in the order r code one
level down.  Folding never increases the error rank; decoding succeeds
whenever every iterated fold of the error keeps its rank, and every
failure of that assumption is caught after the fact by rank checks, so
the decoder never returns a wrong codeword silently.  Each level
eliminates its residual once: the verification's echelon rows are the
report's error_rows, and the level above takes them as its erasure
support.

The error sampler draws E = X Z with X of width t and keeps E only if E
and every fold the decoder performs have rank t.  Those ranks are at
most t and fall from fold to fold, so one rank mod p certifies them all:
the deepest fold in one sign embedding (below) having rank t mod p.  A
lower modular rank hands the draw to the exact ranks, so the sampler
accepts exactly the errors the exact test accepts.

Exact work over the tower is the slow part (a solve's entries grow to
hundreds of bits while its solution stays small), so the sampler, the
erasure step and decode work first in the sign embeddings modulo a few
primes (exactfield.SignEmbedding), on one engine.
A vector of n tower elements, or a matrix over a subtower read column by
column, is embedded from its integer coordinates as one (2^M, n) array
mod p, one row per sign pattern.  There the fold w = (alpha y - y') / a,
its partner w' = (alpha y + y') / a, the peel and the unpeel of every level
are elementwise, alpha's sign flip swaps rows, and a matrix over a base of
height s has, in each embedding of the base, the rank and row space of the
2^(M-s) rows above it.  An erasure step is one batched GF(p) solve for the
left factor x against the parity checks, embedded once per prime.  One
loop over the primes lifts results by CRT and rational reconstruction, and
every lift is certified exactly.  erasure_decode lifts x: the word it
leaves must have exact syndrome zero, and the syndrome matrix full column
rank mod p in every embedding, which makes x the exact system's only
solution.  decode, on a code over Q, runs the whole recursion mod p and
lifts the error once, at the top: a zero syndrome, rank at most t and
every modular fold rank equal to that rank make the answer the exact
decoder's report, field for field.  That certificate stays on integer
coordinates, on the Q arrays of linalg's storage rule: between the lift
and the elimination of E it runs no tower arithmetic
(RMCode._decode_certified).  Any doubt (a rank deficit or
inconsistency mod p, a prime dividing a denominator, no lift within the
prime budget, a failed certificate) leaves the decision to the exact path
(linalg.solve_erasures, the exact decoder, the exact ranks), so results
and failure reasons are those of the exact path.  Its matrices hold
integer arrays as well, over every tower of the recursion: the
coordinate expansion writes a vector's integer coordinates into one
(n, n', 2^s) array, the fold splits, scales and joins arrays, and each
level's residual is eliminated on its array's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb, lcm
from typing import Optional, Sequence

import numpy as np

from . import modmat
from .errors import (DecodingFailure, DimensionMismatch, LengthMismatch, NoSolution, NotUnique, ParameterMismatch,
                     RankfoldError)
from .exactfield import MQElement, MultiquadraticField, SignEmbedding, integer_coords, mq_field, rational_lift
from .linalg import ExactMatrix, _peel, solve_erasures
from .plotkin import doubling_decode, plotkin_fold

# RMCode.sample_error draws this many candidates before giving up
_SAMPLE_ATTEMPTS = 200
# The modular erasure solve and decode lift from at most this many primes
# (about 220 bits) before they leave the work to the exact path.
_PRIME_BUDGET = 8


def _mask_indices(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


class ThetaPolynomial:
    """A Q-linear map on the tower, written in the sign-flip basis.

    Coefficients are indexed by bitmasks over the tower generators: bit
    (i-1) set means theta_i participates in the term.  Zero coefficients
    are dropped on construction.
    """

    def __init__(self, field: MultiquadraticField, coeffs: dict):
        for mask in coeffs:
            if not 0 <= mask < field.dim:
                raise ValueError(f"exponent mask {mask} out of range")
        self.field = field
        self.coeffs = {mask: x for mask, c in coeffs.items() if (x := field.coerce(c))}

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
    before the report is built.  The verification's elimination also
    gives error_rows, the echelon basis of the recovered error's row
    space (rank x n, as row_space_basis returns it), which the level
    above uses as its erasure support; it is None on failure.  The trace
    records, per recursion level, the order/type handled and the rank of
    the folded error actually observed there.
    """

    success: bool
    codeword: Optional[ExactMatrix]
    recovered_error: Optional[ExactMatrix]
    reason: Optional[str] = None
    trace: list = dc_field(default_factory=list)
    error_rows: Optional[ExactMatrix] = None


def _monomials(field: MultiquadraticField, base_height: int, inverse: bool) -> list:
    """The basis monomials b_j of the tower directions above base_height
    (b_j has the exponent mask j << base_height), or their inverses, in
    order of j; kept in field.tables."""
    key = ("1/b" if inverse else "b", base_height)
    if key not in field.tables:
        b = [field.basis_element(j << base_height) for j in range(field.dim >> base_height)]
        field.tables[key] = [x.inverse() for x in b] if inverse else b
    return field.tables[key]


def _hadamard(x: list) -> list:
    """x <- H x in place, H the +-1 Walsh-Hadamard matrix of order
    len(x) = 2^m: entry S becomes sum_j (-1)^|S & j| x_j, in m 2^m
    additions."""
    h = 1
    while h < len(x):
        for i in range(0, len(x), 2 * h):
            for k in range(i, i + h):
                x[k], x[k + h] = x[k] + x[k + h], x[k] - x[k + h]
        h *= 2
    return x


def _block_rows(field: MultiquadraticField, base_height: int, r: int, checks: bool) -> list:
    """Rows of the generator matrix (checks False) or of the parity-check
    matrix (checks True) of order r on the tower directions above
    base_height, in increasing S: entry (S, j) is (-1)^|S & j| b_j for
    |S| <= r, and (-1)^|S & j| / b_j for |S| > r (_monomials)."""
    b = _monomials(field, base_height, checks)
    return [tuple(-x if (S & j).bit_count() & 1 else x for j, x in enumerate(b))
            for S in range(len(b)) if (S.bit_count() > r) == checks]


def _syndrome_table(field: MultiquadraticField, base_height: int) -> tuple:
    """(idx, F, F_max, lam) for the integer syndrome body, kept in
    field.tables.

    With T = j << base_height, coordinate k of y_j / b_j is
    y_(j, k ^ T) / w[k & T], w[U] the product of the a_i with i in U:
    b_j / w[T] is b_j's inverse, and multiplying by b_j sends coordinate
    k ^ T to k, scaled by w[(k ^ T) & T] = w[T] / w[k & T].  Over the
    field's integer table, 1 / w[U] = D / W[U].  lam is the least positive
    integer that makes lam D / W[U] an integer for every U inside the code
    directions; idx (n, 2^M) holds k ^ T, F (n, 2^M) the integers
    lam D / W[k & T] (int64 where they fit, else Python ints), and F_max
    their largest absolute value."""
    key = ("syndrome", base_height)
    if key not in field.tables:
        n = field.dim >> base_height
        k, j = np.arange(field.dim), np.arange(n)[:, None]
        scales = [Fraction(field._D, field._W[U << base_height]) for U in range(n)]
        lam = lcm(*(s.denominator for s in scales))
        ints = [s.numerator * (lam // s.denominator) for s in scales]
        F_max = max(map(abs, ints))
        F = np.array(ints, dtype=np.int64 if F_max < 2 ** 63 else object)[k >> base_height & j]
        field.tables[key] = (k ^ j << base_height, F, F_max, lam)
    return field.tables[key]


def _hadamard_rows(Z: np.ndarray) -> np.ndarray:
    """H Z for an (n, c) array Z, n = 2^m, in m vectorised butterfly steps
    (_hadamard on every column at once)."""
    n, c = Z.shape
    h = 1
    while h < n:
        Z = Z.reshape(n // (2 * h), 2, h, c)
        Z = np.stack((Z[:, 0] + Z[:, 1], Z[:, 0] - Z[:, 1]), axis=1)
        h *= 2
    return Z.reshape(n, c)


def _column_coords(M: ExactMatrix) -> tuple[int, list[int]]:
    """integer_coords of M's entries read column by column: M's array over
    its denominator (the lcm of its entries' denominators, as it is
    canonical)."""
    return M.den, M.array.transpose(1, 0, 2).ravel().tolist()


def _embed(emb: SignEmbedding, d: int, ints: Sequence[int], shape: tuple[int, int]) -> Optional[np.ndarray]:
    """The (2^M, k, n) images mod emb.p of k vectors of n tower elements,
    shape = (k, n), from the integer_coords (d, ints) of their entries in
    order; None when p divides d.  A matrix over a subtower, read column by
    column, is the vector of its columns' elements (from_blocks)."""
    p = emb.p
    if d % p == 0:
        return None
    V = np.array([u % p for u in ints], dtype=np.int64) * pow(d, -1, p) % p
    return emb.forward(V.reshape(*shape, 1 << len(emb.roots))).transpose(2, 0, 1)


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
        of vec[j] along the code-direction basis monomials, that is vec's
        integer coordinates, written into the matrix's array."""
        d, ints = integer_coords([self.field.coerce(x) for x in vec])
        A = np.array(ints, dtype=object).reshape(len(vec), self.size, self.base_field.dim).transpose(1, 0, 2)
        return ExactMatrix.from_array(self.base_field, A, d)

    def vector_from_matrix(self, M: ExactMatrix) -> list:
        """Inverse of matrix_from_vector: column j of M's array is the
        integer coordinates of entry j."""
        if M.rows != self.size:
            raise DimensionMismatch(f"need {self.size} rows, got {M.rows}")
        coords = M.array.transpose(1, 0, 2).reshape(M.cols, self.field.dim).tolist()
        return [self.field._element(u, M.den) for u in coords]

    def theta_matrix(self, F: ThetaPolynomial) -> ExactMatrix:
        """Matrix of the map F, by the signed-monomial rule.  Flips of base
        directions fix every b_j, so F(b_j) = (H c)_j b_j, where c_s sums F's
        coefficients whose mask has the code part mask >> base_height = s;
        column j expands F(b_j) over the base field."""
        if F.field != self.field:
            raise DimensionMismatch("polynomial lives on a different tower")
        c = [self.field.zero] * self.size
        for mask, f in F.coeffs.items():
            c[mask >> self.base_height] += f
        b = _monomials(self.field, self.base_height, False)
        return self.matrix_from_vector([v * bj for v, bj in zip(_hadamard(c), b)])

    def encode(self, message: Sequence) -> ExactMatrix:
        """Message coefficients (in exponent order) to the codeword matrix."""
        masks = self.exponents()
        if len(message) != len(masks):
            raise LengthMismatch(f"message length must be {len(masks)}, got {len(message)}")
        coeffs = {mask << self.base_height: c for mask, c in zip(masks, message)}
        return self.theta_matrix(ThetaPolynomial(self.field, coeffs))

    def random_message(self, rng, bound: int = 9) -> list:
        return [self.field.random_element(rng, bound) for _ in range(self.dim)]

    # -- generator / parity-check -----------------------------------------------------

    def generator_matrix(self) -> ExactMatrix:
        return ExactMatrix(self.field, tuple(_block_rows(self.field, self.base_height, self.r, False)), _raw=True,
                           cols=self.size)

    def parity_check_matrix(self) -> ExactMatrix:
        return ExactMatrix(self.field, tuple(_block_rows(self.field, self.base_height, self.r, True)), _raw=True,
                           cols=self.size)

    # -- syndromes --------------------------------------------------------------------

    def _coerce_vector(self, y: Sequence) -> list:
        """y over the tower (entries of a subtower embedded), of the code's length."""
        out = []
        for v in y:
            if isinstance(v, MQElement) and v.field != self.field:
                v = v.embed(self.field)
            out.append(self.field.coerce(v))
        if len(out) != self.size:
            raise LengthMismatch(f"need {self.size} entries, got {len(out)}")
        return out

    def naive_syndrome(self, y: Sequence) -> list:
        """Parity-check times vector, as a plain matrix product."""
        return list((self.parity_check_matrix() @ ExactMatrix.column(self.field, self._coerce_vector(y))).col(0))

    def fast_syndrome(self, y: Sequence) -> list:
        """Parity-check times vector, from the signed-monomial rule: the
        entries S with |S| > r, in increasing S, of H (y_j / b_j), by
        _syndrome_ints on y's integer coordinates, against (n - k) n general
        products for naive_syndrome."""
        d, ints = integer_coords(self._coerce_vector(y))
        Z, lam = self._syndrome_ints(ints)
        return [self.field._element(z, lam * d) for z in Z.tolist()]

    def _syndrome_ints(self, ints: Sequence[int]) -> tuple[np.ndarray, int]:
        """(Z, lam): the syndrome of the vector y of n tower elements whose
        integer coordinates over a common denominator d are `ints` (as
        integer_coords lists them) is Z / (lam d), row S of the
        (n - k, 2^M) array Z holding entry S's coordinates.

        Z is rows |S| > r of H (lam d y_j / b_j), one vectorised butterfly
        on the (n, 2^M) array of lam d y_j / b_j, whose entries are ints
        times the entries of F (_syndrome_table).  Every value the butterfly
        forms sums at most n such products, so it runs in int64 while
        n * max|int| * max|F| < 2^63, and with dtype=object (Python ints)
        past that bound."""
        idx, F, F_max, lam = _syndrome_table(self.field, self.base_height)
        n = self.size
        try:
            Y = np.array(ints, dtype=np.int64)
            fits = n * max(int(Y.max()), -int(Y.min())) * F_max < 2 ** 63
        except OverflowError:  # an int beyond int64
            fits = False
        if not fits:
            Y, F = np.array(ints, dtype=object), F.astype(object)
        Z = _hadamard_rows(Y.reshape(n, -1)[np.arange(n)[:, None], idx] * F)
        return Z[[S for S in range(n) if S.bit_count() > self.r]], lam

    # -- folding ------------------------------------------------------------------------

    def fold(self, Y: ExactMatrix) -> ExactMatrix:
        """One folding step: plotkin_fold over base(alpha), the subcode's
        base field, where alpha is the square root of the last code direction.

        Codeword A-blocks cancel, and the result is (2/alpha) B0 + 2 B1
        plus the folded error, half the size, over the base extended by
        alpha.  Rank never increases under folding.
        """
        self._check_received(Y)
        if self.m == 0:
            raise DimensionMismatch("cannot fold a height-zero code")
        return plotkin_fold(Y, self.field.gens[-1], self.subcode().base_field.join)

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

        Built as the integer product X Z of factors with entries in
        [0, bound] (refused below 1 when t > 0); resampled until the rank
        is exactly t and every iterated fold the decoder will perform
        preserves it.

        rank E <= t, and the ranks only fall from fold to fold, so a
        deepest fold of rank t mod p (_deepest_fold_rank_mod_p) certifies
        them all.  A lower modular rank (an unlucky prime, or a real drop)
        leaves the decision to the exact ranks, so the accepted errors and
        the draws are those of the exact test alone.
        """
        t = self.t if 0 <= self.r < self.m else 0
        if t == 0:
            return ExactMatrix.zeros(self.base_field, self.size, self.size)
        if bound < 1:
            raise ParameterMismatch(f"a rank-{t} error needs bound >= 1, got {bound}")
        K = self.base_field
        for _ in range(_SAMPLE_ATTEMPTS):
            X = np.array(rng.randints(self.size * t, 0, bound), dtype=object).reshape(self.size, t)
            Z = np.array(rng.randints(t * self.size, 0, bound), dtype=object).reshape(t, self.size)
            A = np.zeros((self.size, self.size, K.dim), dtype=object)
            A[:, :, 0] = X @ Z  # integers: rational coordinates only
            E = ExactMatrix.from_array(K, A)
            if self._deepest_fold_rank_mod_p(E) == t or (E.rank() == t and self.folds_preserve_rank(E, t)):
                return E
        raise RankfoldError(f"no rank-{t} error with stable folds in {_SAMPLE_ATTEMPTS} attempts")

    def _deepest_fold_rank_mod_p(self, E: ExactMatrix) -> int:
        """Rank of the decoder's deepest fold of E (r + 1 folds) in one
        embedding of its base mod the field's first embedding prime p: a
        ring map, so this rank is a lower bound for the rank over the
        tower.  That base is this code's plus the folded directions, and the
        embedding's rows of the vector form are those whose sign bits there
        are all 0.  Entries are reduced mod p as Python ints, so any bound
        works.
        """
        top = self.field
        emb = top.sign_embedding(0)
        V = _embed(emb, *_column_coords(E), (1, self.size))[:, 0]
        code = self
        for _ in range(self.r + 1):
            V = code._fold_mod(V, top, emb)[0]
            code = code.subcode()
        base = sum(1 << top.gens.index(a) for a in code.field.gens[:code.base_height])
        rows = np.flatnonzero(np.arange(top.dim) & base == 0)
        return int(modmat.batch_rank_mod(V[rows][None], emb.p)[0])

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
        erasure space.  A nonempty support is first solved mod primes and
        certified (_erasure_decode_embedded); the exact solve_erasures
        decides whatever that path leaves open.  Raises DecodingFailure when
        the system is inconsistent or ambiguous.
        """
        y = self._coerce_vector(y)
        if support.rows and support.cols != self.size:
            raise DimensionMismatch("support width must match the code length")
        rows = [self._coerce_vector(row) for row in support.entries]
        if rows:
            c = self._erasure_decode_embedded(y, rows)
            if c is not None:
                return c
        return solve_erasures(self.field, self.fast_syndrome, y, rows)

    def _erasure_decode_embedded(self, y: list, rows: list) -> Optional[list]:
        """erasure_decode through the sign embeddings mod p, certified
        exactly; None wherever the exact solver must decide.

        x is solved in every embedding of each prime (_solve_mod) and lifted
        (_lift) until a lift agrees with the next prime's residues; then
        c = y - sum_k x_k g_k is computed exactly and certified in two steps:

        1. fast_syndrome(c) is exactly zero, so x solves the exact system;
        2. the syndrome matrix had full column rank mod p in every
           embedding.  Its entries have denominators prime to p (the
           primes avoid the generators' numerators and denominators, and
           _embed checks those of the support rows), so a nonzero maximal
           minor mod p is nonzero over L: the exact system has full column
           rank, and x is its only solution.

        So c is what solve_erasures returns, bit for bit.
        """
        field = self.field
        d, ints = integer_coords([e for v in rows + [y] for e in v])

        def images(i):
            V = _embed(field.sign_embedding(i), d, ints, (len(rows) + 1, self.size))
            return None if V is None else self._solve_mod(V, field, i)

        x = self._lift(images, confirm=True)
        if x is None:
            return None
        c = _peel(y, [field.element(x[j:j + field.dim]) for j in range(0, len(x), field.dim)], rows)
        return None if self._syndrome_ints(integer_coords(c)[1])[0].any() else c

    def decode(self, Y: ExactMatrix) -> DecodeReport:
        """Fold-and-recurse decoder.

        Succeeds (and says so only after verifying the residual rank) for
        any error of rank at most t whose iterated folds preserve rank;
        otherwise reports failure.  Order -1 is the zero code and order m
        is everything, both handled directly.  A code over Q (base height
        0) first decodes in the sign embeddings mod p and certifies the
        result exactly (_decode_certified), which gives the exact decoder's
        report field for field; anything in doubt runs the exact decoder,
        _decode_exact.  At r = m - 1 (radius 0) a zero syndrome needs neither.
        """
        self._check_received(Y)
        if self.base_height == 0 and 0 <= self.r < self.m:
            if self.t == 0 and not self._syndrome_ints(_column_coords(Y)[1])[0].any():
                zero = ExactMatrix.zeros(self.base_field, self.size, self.size)  # no error at any level
                trace = [{"order": self.r - k, "height": self.m - k, "fold_rank": 0} for k in range(self.r + 1)]
                return DecodeReport(True, Y, zero, None, trace, ExactMatrix.zeros(self.base_field, 0, self.size))
            report = self._decode_certified(Y)
            if report is not None:
                return report
        return self._decode_exact(Y)

    def _decode_exact(self, Y: ExactMatrix) -> DecodeReport:
        """decode in exact tower arithmetic, on every level."""
        trace: list = []
        try:
            C = self._decode_inner(Y, trace)
        except DecodingFailure as exc:
            return DecodeReport(False, None, None, str(exc), trace)
        E = Y - C
        basis = E.row_space_basis()  # the one elimination of E, also the support one level up
        residual = basis.rows
        if residual > self.t:
            return DecodeReport(
                False, None, None,
                f"verification failed: residual rank {residual} exceeds capacity {self.t}",
                trace,
            )
        return DecodeReport(True, C, E, None, trace, basis)

    def _decode_certified(self, Y: ExactMatrix) -> Optional[DecodeReport]:
        """decode through the sign embeddings mod p (_decode_mod), certified
        exactly once; None wherever the exact decoder must decide.

        The error E = Y - C comes back modulo each embedding prime in turn,
        and _lift stops at the first prime count at which every entry
        reconstructs; each prime costs one modular decode.  One 28-bit
        prime reconstructs entries up to about 11,585 in absolute value.
        The sampled errors' entries are at most t * 50^2: 7,500 at m = 4,
        which one prime covers, but 17,500 at m = 5, where some decodes
        take two primes, as they all do from m = 6 on.  An entry past the
        bound that reconstructs to a wrong value fails step 2.  The lift
        gives an in-range integer entry as an int (rational_lift), the
        common case, and Fractions elsewhere.  Y, E and C = Y - E are Q
        arrays (linalg's storage rule): Y's integer coordinates are read off
        its array, E's array is the lift over its common denominator, C is
        one array subtraction, and C's syndrome is _syndrome_ints of C's
        array.  No tower arithmetic runs.  The certificate, in this order:

        1. E lifts within _PRIME_BUDGET primes, and no prime divides the
           denominators of Y;
        2. C = Y - E has an exactly zero syndrome, so C is a codeword;
        3. E.row_space_basis() has at most t rows, the report's error_rows;
        4. every modular fold rank, at every level and in every embedding,
           equals rank E.

        t < d/2, so C is the only codeword within the radius.  The folds of
        E reduce mod p to the modular residuals (each level's codeword
        folds to the inner codeword), so modular fold rank <= exact fold
        rank <= rank E, and step 4 makes every fold keep the rank of E.
        Such an error is decoded by the exact decoder, with the trace built
        here: the report is the exact decoder's.
        """
        n = self.size
        d, ints = _column_coords(Y)
        ranks: list[int] = []

        def images(i):
            emb = self.field.sign_embedding(i)
            Yv = _embed(emb, d, ints, (1, n))
            if Yv is None:
                return None
            Cv = self._decode_mod(Yv[:, 0], self.field, i, ranks)
            return None if Cv is None else (Yv[:, 0] - Cv) % emb.p

        lift = self._lift(images, confirm=False)
        if lift is None:
            return None
        # lift holds E column by column, as ints and Fractions in lowest terms
        dE = lcm(*(q.denominator for q in lift))
        E_ints = np.array([q.numerator * (dE // q.denominator) for q in lift], dtype=object).reshape(n, n, 1)
        E = ExactMatrix.from_array(self.base_field, E_ints.transpose(1, 0, 2), dE)
        C = Y - E
        if self._syndrome_ints(_column_coords(C)[1])[0].any():
            return None
        basis = E.row_space_basis()
        e = basis.rows
        if e > self.t or any(k != e for k in ranks):
            return None
        trace = [{"order": self.r - k, "height": self.m - k, "fold_rank": e} for k in range(self.r + 1)]
        return DecodeReport(True, C, E, None, trace, basis)

    # -- the sign embeddings mod p ---------------------------------------------------------

    def _lift(self, images, confirm: bool) -> Optional[list]:
        """rational_lift of the tower elements whose images in the sign
        embeddings modulo the field's i-th embedding prime are images(i), a
        (2^M, k) array, for i < _PRIME_BUDGET; the residues stop where
        images gives None.  The lift lists the k elements' coordinates one
        element after the other."""
        def residues():
            for i in range(_PRIME_BUDGET):
                X = images(i)
                if X is None:
                    return
                emb = self.field.sign_embedding(i)
                yield emb.inverse(X.T).ravel().tolist(), emb.p

        return rational_lift(residues(), confirm)

    def _fold_mod(self, V: np.ndarray, top: MultiquadraticField, emb: SignEmbedding) -> tuple:
        """The fold along this code's last direction alpha = sqrt(a) of the
        words V, (2^M, n) with one row per sign pattern of `top` mod emb.p:

            w_j = (alpha v_j - v_(j+h)) / a,    w'_j = (alpha v_j + v_(j+h)) / a,

        h = n/2.  Returns w, w', alpha's image in each row (a column), and
        the row permutation of theta, alpha's sign flip."""
        p, h = emb.p, V.shape[1] // 2
        a = self.field.gens[-1]
        bit = top.gens.index(a)
        pattern = np.arange(len(V))
        alpha = np.where(pattern >> bit & 1, p - emb.roots[bit], emb.roots[bit])[:, None]
        inv_a = a.denominator * pow(a.numerator, -1, p) % p
        left, right = alpha * V[:, :h] % p, V[:, h:]
        return (left - right) * inv_a % p, (left + right) * inv_a % p, alpha, pattern ^ (1 << bit)

    def _decode_mod(self, Yv: np.ndarray, top: MultiquadraticField, i: int, ranks: list) -> Optional[np.ndarray]:
        """_decode_inner in the sign embeddings of `top`, the tower of the
        code that decode was called on, modulo its i-th embedding prime p.

        A word over the tower is held in vector form, as the (2^M, n) array
        of its entries' images, one row per sign pattern of top.  There
        every step of doubling_decode is elementwise.  With w and w' from
        _fold_mod and theta alpha's sign flip:

            erasure:  z = (w - w^ + theta(w')) / 2,
            codeword: c_j = alpha (theta(c^_j) + w^_j / 2),
                      c_(j+h) = a (theta(c^_j) - w^_j / 2),

        where w^ is the inner decoder's codeword and c^ the erasure
        decoder's.  A matrix over a base of height s, in one of its
        embeddings, has the rank and row space of the 2^(M-s) x n block of
        rows above that embedding: the two differ by a scaled Hadamard
        matrix.  The base's generators are top's last ones, so these blocks
        are contiguous, and each inner residual is eliminated in one batch;
        its rank, the same in every embedding, goes to `ranks` (the deepest
        level first).  Returns the codeword in vector form, or None where
        the ranks of a level differ or an erasure solve fails.
        """
        if self.r < 0:
            return np.zeros_like(Yv)
        emb = top.sign_embedding(i)
        p, h = emb.p, self.size // 2
        inv_2 = (p + 1) // 2
        W, W2, alpha, flip = self._fold_mod(Yv, top, emb)
        sub = self.subcode()
        W_hat = sub._decode_mod(W, top, i, ranks)
        if W_hat is None:
            return None
        R, rank = modmat.batch_rref_mod((W - W_hat).reshape(1 << sub.base_height, h, h), p)
        e = int(rank[0])
        if (rank != e).any():
            return None
        ranks.append(e)
        Z = (W - W_hat + W2[flip]) % p * inv_2 % p
        V = np.concatenate((np.repeat(R[:, :e], h, axis=0), Z[:, None]), axis=1)
        X = self._descend(self.r)._solve_mod(V, top, i)
        if X is None:
            return None
        C_hat, half = (Z - modmat.batch_matmul_mod(X[:, None], V[:, :e], p)[:, 0])[flip] % p, W_hat * inv_2 % p
        return np.concatenate((alpha * (C_hat + half) % p, alpha * alpha % p * (C_hat - half) % p), axis=1)

    def _solve_mod(self, V: np.ndarray, top: MultiquadraticField, i: int) -> Optional[np.ndarray]:
        """The (2^M, k) left factors x of sum_k x_k H g_k = H y in every sign
        embedding of `top` modulo its i-th embedding prime p, given the
        (2^M, k + 1, n) images of the rows g_k and of y there, one row per
        sign pattern of top; one batched GF(p) solve.  The embedded parity
        checks follow this code's tower, so V's rows are put in its order
        for the solve and x's back after it.  None on a rank deficit or an
        inconsistent system in any embedding, and where the syndrome
        product would overflow int64."""
        emb = self.field.sign_embedding(i)
        p = emb.p
        if self.size * (p - 1) ** 2 >= 2 ** 63:
            return None
        # order[t] is top's pattern of this tower's pattern t
        t = np.arange(top.dim)
        order = sum(((t >> k & 1) << top.gens.index(a) for k, a in enumerate(self.field.gens)), np.zeros_like(t))
        S = modmat.batch_matmul_mod(self._embedded_checks(emb), V[order].transpose(0, 2, 1), p)
        try:
            X = modmat.batch_solve_mod(S, p)
        except (NoSolution, NotUnique):
            return None
        out = np.empty_like(X)
        out[order] = X
        return out

    def _embedded_checks(self, emb: SignEmbedding) -> np.ndarray:
        """The parity-check matrix in the sign embeddings mod emb.p, as a
        (2^M, n-k, n) array (M the tower height), kept on the embedding:
        each embedding is a ring map, so entry (S, j) is (-1)^|S & j| times
        the image of 1/b_j."""
        key = ("H", self.base_height, self.r)
        H = emb.tables.get(key)
        if H is None:
            n = self.size
            # 1/b_j has the generators' numerators as denominators, all prime to p
            inverses = _embed(emb, *integer_coords(_monomials(self.field, self.base_height, True)), (1, n))
            signs = [[(-1) ** (S & j).bit_count() for j in range(n)] for S in range(n) if S.bit_count() > self.r]
            H = emb.tables[key] = np.array(signs, dtype=np.int64).reshape(-1, n) * inverses % emb.p
        return H

    def _decode_inner(self, Y: ExactMatrix, trace: list) -> ExactMatrix:
        if self.r < 0:
            return ExactMatrix.zeros(self.base_field, self.size, self.size)
        if self.r >= self.m:
            return Y
        sub, ecode = self.subcode(), self._descend(self.r)

        def decode_errors(W):
            report = sub._decode_exact(W)
            if not report.success:
                trace.extend(report.trace)
                raise DecodingFailure(f"inner decode at order {sub.r}: {report.reason}")
            support = report.error_rows
            trace.append({"order": self.r, "height": self.m, "fold_rank": support.rows})
            trace.extend(report.trace)
            return report.codeword, support

        def decode_erasures(Z, support):
            return ecode.matrix_from_vector(ecode.erasure_decode(ecode.vector_from_matrix(Z), support))

        return doubling_decode(Y, self.fold(Y), self.field.gens[-1], sub.base_field, decode_errors, decode_erasures)

    def __repr__(self):
        return f"RMCode(order={self.r}, height={self.m}, tower={self.field!r})"

