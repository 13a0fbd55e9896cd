"""Gabidulin codes over GF(q^m).

Codewords are evaluations of linearized polynomials sum a_i x^(q^i) of
q-degree below k at GF(q)-independent points.  Expanding each entry over a
GF(q)-basis turns length-n codewords into m x n matrices; the code is MRD,
with minimum rank distance d = n - k + 1.

The error decoder is linearized Welch-Berlekamp: find a nonzero pair
(V, N) with deg_q V <= t, deg_q N <= t + k - 1 and V(y_i) = N(g_i) for all
i (one homogeneous linear system), recover the message polynomial as the
exact left quotient of N by V, and verify the residual rank.  The erasure
decoder hands linalg.solve_erasures the code's parity checks, built once
per code, and the error's known row space.  Both report failure rather
than return an unverified answer.  GabidulinMatrixCode is a
linalg.MatrixCode, which supplies its decoders over GF(q^2).

Vectors over GF(q^m) are worked on as (n, m) int64 coefficient arrays
(ExtField.coeff_array): row i holds the coefficients of entry i.  A code
keeps the Moore array of its points, g_i^(q^j) for j < m, as one (n, m, m)
array read off the field's Frobenius table.  From it come, without
element arithmetic, the interpolation system [y_i^(q^j) | -g_i^(q^j)]
that goes to modmat.rref_poly, the evaluation of f at every point through
the field's multiplication tensor (encoding and re-encoding), the parity
checks, and the residual check, which is the GF(q)-rank of the error's
m x n coefficient matrix, again by rref_poly.  The matrix view applies an
explicit basis as one (m, m) product each way, its inverse computed once
per code.

Overflow: every array step forms sums of at most m products of two
residues, or of at most m residues, and reduces mod q before the next
product, so the one rule is modmat.poly_fits_int64(q, m), that is
m (q-1)^2 < 2^63.  GabidulinCode raises ParameterMismatch beyond it
(from q = 2147483659 at m = 2).  LinearizedPoly and annihilator stay
element-wise in Python integers, exact for any q.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DecodingFailure,
    DimensionMismatch,
    FieldMismatch,
    LengthMismatch,
    ParameterMismatch,
    SingularBasis,
)
from .gf import ExtField, PrimeElement, basis_inverse
from .linalg import ExactMatrix, MatrixCode, _syndrome, solve_erasures
from .modmat import poly_fits_int64


class LinearizedPoly:
    """sum coeffs[i] * x^(q^i) over GF(q^m); a GF(q)-linear map."""

    def __init__(self, field: ExtField, coeffs: Sequence):
        self.field = field
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def qdegree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        x = self.field.coerce(x)
        acc = self.field.zero
        for i, c in enumerate(self.coeffs):
            if c:
                acc = acc + c * self.field.frobenius(x, i)
        return acc

    def compose(self, other: "LinearizedPoly") -> "LinearizedPoly":
        """(self o other): coefficient k collects a_i * b_j^(q^i), i+j = k."""
        if other.field != self.field:
            raise DimensionMismatch("compose requires the same field")
        if not self.coeffs or not other.coeffs:
            return LinearizedPoly(self.field, ())
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = out[i + j] + a * self.field.frobenius(b, i)
        return LinearizedPoly(self.field, out)

    def left_divide(self, divisor: "LinearizedPoly") -> "LinearizedPoly":
        """Solve self = divisor o f for f, peeling leading coefficients.

        The top coefficient of divisor o f is V_t * f_d^(q^t), so f can be
        read off from the top down, applying the inverse Frobenius.  Raises
        ValueError when the division is not exact.
        """
        field = self.field
        t = divisor.qdegree
        if t < 0:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        if len(rem) < t + 1:
            if any(rem):
                raise ValueError("quotient would have negative degree")
            return LinearizedPoly(field, ())
        fdeg = len(rem) - 1 - t
        lead_inv = divisor.coeffs[t].inverse()
        fcoeffs = [field.zero] * (fdeg + 1)
        inv_frob = (-t) % field.m if field.m else 0
        for d in range(fdeg, -1, -1):
            c = rem[t + d]
            if not c:
                continue
            fd = field.frobenius(c * lead_inv, inv_frob)
            fcoeffs[d] = fd
            for i, vi in enumerate(divisor.coeffs):
                if vi:
                    rem[i + d] = rem[i + d] - vi * field.frobenius(fd, i)
        if any(rem):
            raise ValueError("division is not exact")
        return LinearizedPoly(field, fcoeffs)

    def __eq__(self, other):
        return (
            isinstance(other, LinearizedPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"LinearizedPoly(deg_q={self.qdegree})"


def annihilator(field: ExtField, vectors: Sequence) -> LinearizedPoly:
    """Monic linearized polynomial whose kernel is exactly the GF(q)-span
    of the given vectors; q-degree = dim of the span.

    Built iteratively: A' = A^q - A(v)^(q-1) A extends the kernel by v.
    """
    A = LinearizedPoly(field, (field.one,))
    for v in vectors:
        v = field.coerce(v)
        image = A(v)
        if not image:
            continue  # already in the kernel
        scale = image ** (field.p - 1)
        shifted = [field.zero] + [field.frobenius(c, 1) for c in A.coeffs]
        lower = [c * scale for c in A.coeffs]
        coeffs = [s - l for s, l in zip(shifted, lower + [field.zero] * (len(shifted) - len(lower)))]
        A = LinearizedPoly(field, coeffs)
    return A


class GabidulinCode:
    """Evaluation code of q-degree < k linearized polynomials."""

    def __init__(self, field: ExtField, k: int, points: Optional[Sequence] = None):
        if not poly_fits_int64(field.p, field.m):
            raise ParameterMismatch(f"GF({field.p}^{field.m}): m (q-1)^2 overflows int64")
        self.field = field
        if points is None:
            points = field.polynomial_basis()
        self.points = tuple(field.coerce(g) for g in points)
        self.n = len(self.points)
        if not 0 <= k <= self.n:
            raise ValueError(f"dimension must be between 0 and {self.n}")
        if self.n > field.m:
            raise ValueError("more evaluation points than the extension degree")
        G = field.coeff_array(self.points)
        if self._base_rank(G) != self.n:
            raise ValueError("evaluation points must be GF(q)-independent")
        # Moore array: _moore[i, j] holds the coefficients of g_i^(q^j), j < m.
        self._moore = field.frobenius_powers(G, field.m)
        self.k = k
        self.d = self.n - k + 1
        # half-distance error radius
        self.radius = (self.n - k) // 2

    def _base_rank(self, X: np.ndarray) -> int:
        """GF(q)-rank of the m x n matrix whose columns are the rows of the
        (n, m) coefficient array X."""
        return len(self.field.base.rref_coeffs(X.T[:, :, None])[1])

    def _evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """(n, m) coefficient array of f(g_i) for every point, where row j
        of the (k', m) array `coeffs` (k' <= m) is the coefficient of
        x^(q^j) in f.  Every sum is of at most m products of residues or of
        k' residues, reduced mod q before the next product."""
        p, k = self.field.p, len(coeffs)
        mult = np.einsum("ji,ial->jal", coeffs, self.field.mul_tensor) % p
        terms = np.einsum("nja,jal->njl", self._moore[:, :k], mult) % p
        return terms.sum(axis=1) % p

    def encode(self, message: Sequence) -> list:
        if len(message) != self.k:
            raise LengthMismatch(f"message length must be {self.k}, got {len(message)}")
        return self.field.from_coeff_array(self._evaluate(self.field.coeff_array(message)))

    def random_message(self, rng) -> list:
        return [self.field.random_element(rng) for _ in range(self.k)]

    def _kernel(self, A: np.ndarray) -> np.ndarray:
        """Right kernel basis of the (rows, cols, m) coefficient array A,
        one vector per free column of its RREF, in column order, as an
        (nullity, cols, m) array (ExactMatrix.kernel_basis's vectors)."""
        R, pivots = self.field.rref_coeffs(A)
        cols = A.shape[1]
        free = [c for c in range(cols) if c not in pivots]
        K = np.zeros((len(free), cols, self.field.m), dtype=np.int64)
        K[range(len(free)), free, 0] = 1
        K[:, list(pivots)] = -R[: len(pivots), free].transpose(1, 0, 2) % self.field.p
        return K

    def _interpolate(self, Y: np.ndarray, t: int) -> Optional[tuple]:
        """Nonzero (V, N) with V(y_i) = N(g_i), deg_q V <= t,
        deg_q N <= t + k - 1, or None if every kernel vector has V = 0.
        Y is the (n, m) coefficient array of the received word; row i of
        the system is [y_i^(q^j), j <= t | -g_i^(q^j), j < t + k]."""
        field = self.field
        nv, nn = t + 1, t + self.k
        A = np.concatenate(
            (field.frobenius_powers(Y, nv), -self._moore[:, np.arange(nn) % field.m] % field.p), axis=1
        )
        K = self._kernel(A)
        with_v = np.flatnonzero(K[:, :nv].any(axis=(1, 2)))
        if not with_v.size:
            return None
        vec = field.from_coeff_array(K[with_v[0]])
        return LinearizedPoly(field, vec[:nv]), LinearizedPoly(field, vec[nv:])

    def decode_errors(self, y: Sequence, t: Optional[int] = None) -> tuple[list, list]:
        """Correct up to t rank errors (default: half distance).

        Returns (codeword, error); raises DecodingFailure when no valid
        codeword within radius t is found.  The final rank check makes a
        wrong silent answer impossible.
        """
        field = self.field
        Y = field.coeff_array(y)
        if len(Y) != self.n:
            raise LengthMismatch(f"need {self.n} symbols, got {len(Y)}")
        if t is None:
            t = self.radius
        pair = self._interpolate(Y, t)
        if pair is None:
            raise DecodingFailure("no interpolation pair with nonzero V")
        V, N = pair
        try:
            f = N.left_divide(V)
        except ValueError as exc:
            raise DecodingFailure(f"interpolation quotient not exact: {exc}") from exc
        if f.qdegree >= self.k:
            raise DecodingFailure("quotient degree exceeds the code dimension")
        C = self._evaluate(field.coeff_array(f.coeffs))
        E = (Y - C) % field.p
        if self._base_rank(E) > t:
            raise DecodingFailure("residual rank exceeds the decoding radius")
        return field.from_coeff_array(C), field.from_coeff_array(E)

    def parity_check_matrix(self) -> ExactMatrix:
        """Rows spanning the dual: kernel of the Moore evaluation matrix
        [g_j^(q^i)], i < k."""
        field = self.field
        if self.k == 0:
            return ExactMatrix.identity(field, self.n)
        K = self._kernel(self._moore[:, : self.k].transpose(1, 0, 2))
        return ExactMatrix(field, tuple(tuple(field.from_coeff_array(v)) for v in K), _raw=True)

    @cached_property
    def _parity_rows(self) -> tuple:
        return self.parity_check_matrix().entries

    def decode_erasures(self, y: Sequence, support: ExactMatrix) -> list:
        """Recover the codeword when the error's row space (over GF(q), in
        the expanded matrix view) is known to lie in `support`."""
        field = self.field
        y = [field.coerce(v) for v in y]
        if len(y) != self.n:
            raise LengthMismatch(f"need {self.n} symbols, got {len(y)}")
        if support.rows and support.cols != self.n:
            raise DimensionMismatch("support width must match the code length")
        gens = [[field.coerce(e) for e in row] for row in support.entries]
        return solve_erasures(field, lambda v: _syndrome(self._parity_rows, v, field.zero), y, gens)

    def minimum_rank_codeword(self) -> list:
        """A codeword of rank exactly d = n - k + 1: the annihilator of the
        span of the first k - 1 evaluation points, evaluated everywhere."""
        if self.k == 0:
            raise ValueError("the zero code has no nonzero codewords")
        f = annihilator(self.field, self.points[: self.k - 1])
        return [f(g) for g in self.points]

    def to_json(self):
        return {
            "q": self.field.p,
            "m": self.field.m,
            "k": self.k,
            "g": [self.field.element_to_json(g) for g in self.points],
        }

    def __repr__(self):
        return f"GabidulinCode(q={self.field.p}, m={self.field.m}, n={self.n}, k={self.k})"


class GabidulinMatrixCode(MatrixCode):
    """The same code viewed as m x n matrices over GF(q).

    Carries the expansion basis and wraps the vector-side decoders.  The
    decoders over GF(q^2), which a doubled code with a non-square twist
    calls, come from MatrixCode; so does the matrix erasure solve, which
    serves GF(q^2) inputs while decode_erasures keeps the faster vector
    path for GF(q) inputs.
    """

    def __init__(self, code: GabidulinCode, basis: Optional[Sequence] = None):
        self.code = code
        self.field = code.field
        self.base = code.field.base
        self.basis = tuple(code.field.coerce(b) for b in basis) if basis else tuple(code.field.polynomial_basis())
        # Coordinate rows in the basis times _basis_array are coefficient
        # rows; None for the polynomial basis, where the two are the same.
        self._basis_array = code.field.coeff_array(self.basis) if basis else None
        self.rows = code.field.m
        self.cols = code.n
        # GF(q)-dimension of the matrix code
        self.dim = code.field.m * code.k

    @cached_property
    def _coordinate_map(self) -> np.ndarray:
        """(m, m) array taking coefficient rows to coordinate rows in the
        basis: the basis inverted once per code."""
        inverse = basis_inverse(self.field, self.basis)
        return np.array([[e.val for e in row] for row in inverse.entries], dtype=np.int64).T

    def to_matrix(self, vec: Sequence) -> ExactMatrix:
        X = self.field.coeff_array(vec)
        if self._basis_array is not None:
            X = X @ self._coordinate_map % self.field.p
        base = self.base
        return ExactMatrix(base, tuple(tuple(PrimeElement(base, v) for v in row) for row in X.T.tolist()), _raw=True)

    def to_vector(self, M: ExactMatrix) -> list:
        if M.field != self.base:
            raise FieldMismatch(f"matrix over {M.field}, expected {self.base}")
        if M.rows != self.rows:
            raise SingularBasis(f"matrix must have {self.rows} rows")
        X = np.array([[e.val for e in row] for row in M.entries], dtype=np.int64).T
        if self._basis_array is not None:
            X = X @ self._basis_array
        return self.field.from_coeff_array(X % self.field.p)

    def encode(self, message: Sequence) -> ExactMatrix:
        return self.to_matrix(self.code.encode(message))

    def random_codeword(self, rng) -> ExactMatrix:
        return self.encode(self.code.random_message(rng))

    def basis_codewords(self) -> list[ExactMatrix]:
        """GF(q)-basis of the matrix code: each message slot times each
        basis scalar."""
        out = []
        for i in range(self.code.k):
            for b in self.basis:
                msg = [self.field.zero] * self.code.k
                msg[i] = b
                out.append(self.encode(msg))
        return out

    def decode(self, Y: ExactMatrix, t: Optional[int] = None) -> tuple[ExactMatrix, ExactMatrix]:
        c, e = self.code.decode_errors(self.to_vector(Y), t)
        return self.to_matrix(c), self.to_matrix(e)

    def decode_erasures(self, Y: ExactMatrix, support: ExactMatrix) -> ExactMatrix:
        return self.to_matrix(self.code.decode_erasures(self.to_vector(Y), support))

    # Bound in this class too, for tools that patch its own names.
    decode_ext = MatrixCode.decode_ext
    decode_erasures_ext = MatrixCode.decode_erasures_ext
