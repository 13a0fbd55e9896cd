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

The erasure step solves for the left factor x from syndromes.  Over the
tower that exact solve is the slow part (its entries grow to hundreds of
bits while the solution stays small), so erasure_decode first solves in
the sign embeddings modulo a few primes (exactfield.SignEmbedding): the
parity-check matrix, embedded once per prime and kept on the field's
embedding, times the support rows and the received word gives 2^m
syndrome systems over GF(p), solved in one batch by
modmat.batch_solve_mod.  CRT and rational reconstruction lift x, and the
result is certified exactly: the lifted word must have exact syndrome
zero, and the syndrome matrix must have full column rank mod p in every
embedding, which makes x the exact system's only solution.  Any doubt (a
rank deficit or inconsistency mod p, a prime dividing a denominator, no
stable lift within the prime budget, a failed certificate) hands the
system to linalg.solve_erasures, so results and failure reasons are those
of the exact path.

decode itself runs the whole recursion the same way first.  In the sign
embeddings a received word is one (2^m, n) array mod p, and every fold,
peel and unpeel is elementwise (RMCode._decode_mod); each level's residual
is eliminated in one batch, whose blocks have the ranks and row spaces of
the residual in the embeddings of its base; and each erasure step is the
batched solve above.  The error is lifted by CRT and rational
reconstruction and certified exactly, once, at the top: a zero syndrome,
rank at most t, and every modular fold rank equal to that rank.  A
certified answer is the exact decoder's report, field for field; anything
in doubt runs the exact decoder, whose inner levels stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import modmat
from .errors import (DecodingFailure, DimensionMismatch, LengthMismatch, NoSolution, NotUnique, ParameterMismatch,
                     RankfoldError)
from .exactfield import MQElement, MultiquadraticField, integer_coords, mq_field, rational_lift
from .linalg import ExactMatrix, _peel, _syndrome, solve_erasures
from .plotkin import doubling_decode, plotkin_fold

# RMCode.sample_error draws this many candidates before giving up
_SAMPLE_ATTEMPTS = 200
# The embedded erasure solve reconstructs from at most this many primes
# (about 220 bits) before it leaves the system to the exact solver.
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


def _block_rows(field: MultiquadraticField, gens_idx: tuple, r: int, checks: bool):
    """Rows of the generator matrix (checks False) or of the parity-check
    matrix (checks True) for order r on the given tower directions.  Each
    recursion level appends to the rows of orders r and r-1 one level down
    their copies scaled by +s and -s, where s is the last direction's
    square root alpha for the generator and 1/alpha for the checks, so
    that the two products cancel pairwise."""
    r = max(r, -1)
    if not gens_idx:
        return [(field.one,)] if (r >= 0) != checks else []
    key = ("H" if checks else "G", gens_idx, min(r, len(gens_idx)))
    rows = field.tables.get(key)
    if rows is None:
        rest, alpha = gens_idx[:-1], field.alpha(gens_idx[-1])
        s = alpha.inverse() if checks else alpha
        rows = [row + tuple(s * e for e in row) for row in _block_rows(field, rest, r, checks)]
        rows += [row + tuple(-(s * e) for e in row) for row in _block_rows(field, rest, r - 1, checks)]
        field.tables[key] = rows
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
        return ExactMatrix(self.field, tuple(_block_rows(self.field, self._code_gens, self.r, False)), _raw=True,
                           cols=self.size)

    def parity_check_matrix(self) -> ExactMatrix:
        return ExactMatrix(self.field, tuple(_block_rows(self.field, self._code_gens, self.r, True)), _raw=True,
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
        y = self._coerce_vector(y)
        return _syndrome(self.parity_check_matrix().entries, y, self.field.zero)

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
        for _ in range(_SAMPLE_ATTEMPTS):
            X = [[rng.randint(0, bound) for _ in range(t)] for _ in range(self.size)]
            Z = list(zip(*[[rng.randint(0, bound) for _ in range(self.size)] for _ in range(t)]))
            rows = [[sum(a * b for a, b in zip(x, z)) for z in Z] for x in X]
            E = ExactMatrix(self.base_field, rows)
            if self._deepest_fold_rank_mod_p(rows) == t or (E.rank() == t and self.folds_preserve_rank(E, t)):
                return E
        raise RankfoldError(f"no rank-{t} error with stable folds in {_SAMPLE_ATTEMPTS} attempts")

    def _deepest_fold_rank_mod_p(self, rows: list) -> int:
        """Rank mod p of the decoder's deepest fold of the integer matrix
        `rows`, in the sign embedding of the field's first embedding prime p
        that sends each sqrt(a_i) to emb.roots[i]: a ring map, so this rank
        is a lower bound for the rank over the tower.

        The decoder folds r + 1 times, along a_m, a_(m-1), ...; the fold
        join(bl - tr/a, (tl - br)/a) maps to (bl - tr/a) + root(a) (tl - br)/a.
        The entries are reduced mod p as Python ints, so any bound works, and
        every product of two residues stays below p^2 < 2^56.
        """
        emb = self.field.sign_embedding(0)
        p = emb.p
        M = np.array([[v % p for v in row] for row in rows], dtype=np.int64)
        for a, root in list(zip(self.field.gens, emb.roots))[::-1][:self.r + 1]:
            inv_a = a.denominator * pow(a.numerator, -1, p) % p
            h = len(M) // 2
            tl, tr, bl, br = M[:h, :h], M[:h, h:], M[h:, :h], M[h:, h:]
            M = (bl - tr * inv_a % p + (tl - br) * (root * inv_a % p)) % p
        return int(modmat.batch_rank_mod(M[None], p)[0])

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

    def _embedded_checks(self, emb) -> np.ndarray:
        """The parity-check matrix in the sign embeddings mod emb.p, as a
        (2^M, n-k, n) array (M the tower height), kept on the embedding."""
        key = ("H", self._code_gens, self.r)
        H = emb.tables.get(key)
        if H is None:
            rows = _block_rows(self.field, self._code_gens, self.r, True)
            # the denominators divide products of the generators' numerators and
            # denominators, all prime to p
            d, coords = integer_coords([e for row in rows for e in row])
            coords = np.array([u % emb.p for u in coords], dtype=np.int64) * pow(d, -1, emb.p) % emb.p
            H = emb.forward(coords.reshape(len(rows), self.size, self.field.dim))
            H = emb.tables[key] = np.ascontiguousarray(H.transpose(2, 0, 1))
        return H

    def _erasure_decode_embedded(self, y: list, rows: list) -> Optional[list]:
        """erasure_decode through the sign embeddings mod p, certified
        exactly; None wherever the exact solver must decide.

        With x from _embedded_solution, c = y - sum_k x_k g_k is computed
        exactly and certified in two steps:

        1. fast_syndrome(c) is exactly zero, so x solves the exact system;
        2. the syndrome matrix had full column rank mod p in every
           embedding.  Its entries have denominators prime to p (the
           primes avoid the generators' numerators and denominators, and
           the support rows' denominators are checked), so a nonzero
           maximal minor mod p is nonzero over L: the exact system has
           full column rank, and x is its only solution.

        So c is what solve_erasures returns, bit for bit.
        """
        x = self._embedded_solution(y, rows)
        if x is None:
            return None
        c = _peel(y, x, rows)
        return None if any(self.fast_syndrome(c)) else c

    def _embedded_solution(self, y: list, rows: list) -> Optional[list]:
        """The x with sum_k x_k H g_k = H y, solved mod primes in the sign
        embeddings and lifted to the tower; not yet certified.

        Each support row g_k and y is scaled once to integer coordinates,
        v = V / d_v, so that mod p it is (V mod p) / d_v.  For each
        embedding prime p, the syndromes come from the embedded parity
        checks, one batched GF(p) solve gives x in every embedding, and the
        inverse embedding gives its coordinates mod p.  rational_lift
        combines them until a lift agrees with the next prime's residues.
        Returns None on a rank deficit or
        an inconsistent system mod p (in any embedding), on a prime dividing
        some d_v, and when no lift agrees within _PRIME_BUDGET primes.
        """
        field, n, k = self.field, self.size, len(rows)
        scales, ints = zip(*[integer_coords(v) for v in rows + [y]])

        def residues():
            for i in range(_PRIME_BUDGET):
                emb = field.sign_embedding(i)
                p = emb.p
                if any(d % p == 0 for d in scales):
                    return
                V = np.array([[u % p for u in vec] for vec in ints], dtype=np.int64)
                V = V * np.array([[pow(d, -1, p)] for d in scales], dtype=np.int64) % p
                X = self._embedded_solve(emb.forward(V.reshape(k + 1, n, field.dim)).transpose(2, 0, 1), emb)
                if X is None:
                    return
                yield emb.inverse(X.T).ravel().tolist(), p

        lift = rational_lift(residues(), confirm=True)
        if lift is None:
            return None
        return [field.element(lift[j:j + field.dim]) for j in range(0, len(lift), field.dim)]

    def decode(self, Y: ExactMatrix) -> DecodeReport:
        """Fold-and-recurse decoder.

        Succeeds (and says so only after verifying the residual rank) for
        any error of rank at most t whose iterated folds preserve rank;
        otherwise reports failure.  Order -1 is the zero code and order m
        is everything, both handled directly.  A code over Q (base height
        0) first decodes in the sign embeddings mod p and certifies the
        result exactly (_decode_certified), which gives the exact decoder's
        report field for field; anything in doubt runs the exact decoder,
        _decode_exact.
        """
        self._check_received(Y)
        if self.base_height == 0 and 0 <= self.r < self.m:
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
        and rational_lift stops at the first prime count at which every
        entry reconstructs; each prime costs one modular decode.  One
        28-bit prime reconstructs entries up to about 11,585 in absolute
        value: the sampled errors need one up to m = 5 (their entries are
        at most 3 * 50^2 = 7,500 at m = 4) and two from m = 6 on.  An entry
        past the bound that reconstructs to a wrong value fails step 2.
        The certificate, in this order:

        1. E lifts within _PRIME_BUDGET primes, and no prime divides the
           denominators of Y;
        2. C = Y - E has an exactly zero fast_syndrome, so C is a codeword;
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
        field, n = self.field, self.size
        d, ints = integer_coords([e for row in Y.entries for e in row])
        ranks: list[int] = []

        def residues():
            for i in range(_PRIME_BUDGET):
                emb = field.sign_embedding(i)
                p = emb.p
                if d % p == 0:
                    return
                # column j of Y holds the coordinates of y_j
                Yc = np.array([u % p for u in ints], dtype=np.int64).reshape(n, n) * pow(d, -1, p) % p
                Yv = emb.forward(Yc.T).T
                Cv = self._decode_mod(Yv, field, i, ranks)
                if Cv is None:
                    return
                yield emb.inverse((Yv - Cv).T % p).T.ravel().tolist(), p

        lift = rational_lift(residues(), confirm=False)
        if lift is None:
            return None
        K = self.base_field
        E = ExactMatrix(K, tuple(tuple(map(K.scalar, lift[j:j + n])) for j in range(0, n * n, n)), _raw=True)
        C = Y - E
        if any(self.fast_syndrome(self.vector_from_matrix(C))):
            return None
        basis = E.row_space_basis()
        e = basis.rows
        if e > self.t or any(k != e for k in ranks):
            return None
        trace = [{"order": self.r - k, "height": self.m - k, "fold_rank": e} for k in range(self.r + 1)]
        return DecodeReport(True, C, E, None, trace, basis)

    def _decode_mod(self, Yv: np.ndarray, top: MultiquadraticField, i: int, ranks: list) -> Optional[np.ndarray]:
        """_decode_inner in the sign embeddings of `top`, the tower of the
        code that decode was called on, modulo its i-th embedding prime p.

        A word over the tower is held in vector form (vector_from_matrix),
        as the (2^M, n) array of its entries' images, one row per sign
        pattern of top.  There every step of doubling_decode is elementwise.
        With alpha = sqrt(a) the folded generator and theta its sign flip
        (the row whose pattern has alpha's bit toggled):

            fold:     w_j = (alpha y_j - y_(j+h)) / a,  h = n/2;
            erasure:  z = (w - w^ + theta(w')) / 2,
                      w'_j = (alpha y_j + y_(j+h)) / a;
            codeword: c_j = alpha (theta(c^_j) + w^_j / 2),
                      c_(j+h) = a (theta(c^_j) - w^_j / 2),

        where w^ is the inner decoder's codeword and c^ the erasure
        decoder's.  A matrix over a base of height s, in one of its
        embeddings, has the rank and row space of the 2^(M-s) x n block of
        rows above that embedding: the two differ by a scaled Hadamard
        matrix.  So each inner residual is eliminated in one batch, and its
        rank, the same in every embedding, goes to `ranks` (the deepest
        level first).  Returns the codeword in vector form, or None where
        the ranks of a level differ or an erasure solve fails.
        """
        if self.r < 0:
            return np.zeros_like(Yv)
        emb = top.sign_embedding(i)
        p, h = emb.p, self.size // 2
        a = self.field.gens[-1]
        bit = top.gens.index(a)
        a_p = a.numerator * pow(a.denominator, -1, p) % p
        inv_a = pow(a_p, -1, p)
        inv_2 = (p + 1) // 2
        pattern = np.arange(len(Yv))
        flip = pattern ^ (1 << bit)
        alpha = np.where(pattern >> bit & 1, p - emb.roots[bit], emb.roots[bit])[:, None]
        left, right = alpha * Yv[:, :h] % p, Yv[:, h:]
        W = (left - right) * inv_a % p
        sub = self.subcode()
        W_hat = sub._decode_mod(W, top, i, ranks)
        if W_hat is None:
            return None
        R, rank = modmat.batch_rref_mod((W - W_hat).reshape(1 << sub.base_height, h, h), p)
        e = int(rank[0])
        if (rank != e).any():
            return None
        ranks.append(e)
        Z = (W - W_hat + (left + right)[flip] * inv_a) % p * inv_2 % p
        C_hat = self._descend(self.r)._erasure_decode_mod(Z, np.repeat(R[:, :e], h, axis=0), top, i)
        if C_hat is None:
            return None
        C_hat, half = C_hat[flip], W_hat * inv_2 % p
        return np.concatenate((alpha * (C_hat + half) % p, a_p * (C_hat - half) % p), axis=1)

    def _erasure_decode_mod(self, z: np.ndarray, support: np.ndarray, top: MultiquadraticField,
                            i: int) -> Optional[np.ndarray]:
        """erasure_decode in the sign embeddings of `top` mod its i-th
        embedding prime: z is (2^M, n) and support (2^M, e, n), in vector
        form with one row per sign pattern of top.  The syndromes come from
        _embedded_checks, whose rows follow this code's rotated tower, so
        the rows are put in that order for the solve and back after it.
        None where _embedded_solve fails."""
        emb = self.field.sign_embedding(i)
        # order[t] is top's pattern of this tower's pattern t
        t = np.arange(top.dim)
        order = sum((t >> k & 1) << top.gens.index(a) for k, a in enumerate(self.field.gens))
        V = np.concatenate((support, z[:, None]), axis=1)[order]
        X = self._embedded_solve(V, emb)
        if X is None:
            return None
        out = np.empty_like(z)
        out[order] = (V[:, -1] - modmat.batch_matmul_mod(X[:, None], V[:, :-1], emb.p)[:, 0]) % emb.p
        return out

    def _embedded_solve(self, V: np.ndarray, emb) -> Optional[np.ndarray]:
        """The (2^M, k) solutions x of sum_k x_k H g_k = H y in every sign
        embedding mod emb.p, given the (2^M, k + 1, n) images of the rows
        g_k and of y there, from the embedded parity checks in one batched
        solve; None on a rank deficit or an inconsistent system in any
        embedding, and where the syndrome product would overflow int64."""
        p = emb.p
        if self.size * (p - 1) ** 2 >= 2 ** 63:
            return None
        S = modmat.batch_matmul_mod(self._embedded_checks(emb), V.transpose(0, 2, 1), p)
        try:
            return modmat.batch_solve_mod(S, p)
        except (NoSolution, NotUnique):
            return None

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

