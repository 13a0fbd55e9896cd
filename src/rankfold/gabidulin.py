"""Gabidulin codes over GF(q^m).

Codewords are evaluations of linearized polynomials sum a_i x^(q^i) of
q-degree below k at GF(q)-independent points.  Expanding each entry over a
GF(q)-basis turns length-n codewords into m x n matrices; the code is MRD,
with minimum rank distance d = n - k + 1.

The error decoder is linearized Welch-Berlekamp: find a nonzero pair
(V, N) with deg_q V <= t, deg_q N <= t + k - 1 and V(y_i) = N(g_i) for all
i (one homogeneous linear system), recover the message polynomial as the
exact left quotient of N by V (left_divide), and verify the residual rank.
The erasure decoder writes the error as sum_k x_k s_k over the rows s_k of
its known GF(q) row space and solves sum_k x_k H s_k = H y for x over
GF(q^m), H the parity checks.  Both report failure rather than return an
unverified answer.  GabidulinMatrixCode is a linalg.MatrixCode, which
supplies its decoders over GF(q^2).

Vectors over GF(q^m) are worked on as (n, m) int64 coefficient arrays
(ExtField.coeff_array): row i holds the coefficients of entry i, and the
decoders do no ExtElement arithmetic; elements appear only where vectors
enter and leave, and not at all for a word given as its expansion (the
array transposed).  A code keeps the Moore array of its points, g_i^(q^j)
for j < m, as one (n, m, m) array read off the field's Frobenius table,
and its parity checks as one (n - k, n, m) array, the kernel of the Moore
rows.  The interpolation system [y_i^(q^j) | g_i^(q^j)] has a Moore block
M that depends on the code and t alone, so a code reduces it once per t
(P M = RREF(M)), and a decode eliminates by modmat.rref_poly only the
last n - rank(M) rows of P [y_i^(q^j)], whose first kernel vector is a
monic V; left_divide needs no inverse for it.  For t + k > n the same
steps give V = x and the interpolant N of q-degree < n.  The field's
coefficient product gives the evaluation of f at every point (encoding
and re-encoding) and the syndrome H y, linalg.solve_erasure_system
decides the erasure system [H s_k | H y] (H s_k is an integer
combination of H's columns), and the residual check is the GF(q)-rank of
the error's expansion, which keeps that elimination (linalg).  Matrices
over GF(q) hold arrays, so a change of expansion basis is a transpose
and at most one (m, m) product.

Overflow: every array step here forms sums of at most m products of two
residues, or of at most m residues, and reduces mod q before the next
product, and the field's product sums more only while they fit; so the
one rule is modmat.poly_fits_int64(q, m), that is m (q-1)^2 < 2^63.
GabidulinCode raises ParameterMismatch beyond it (from q = 2147483659 at
m = 2).  LinearizedPoly and annihilator stay element-wise in Python
integers, exact for any q.
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
from .gf import ExtField, basis_inverse
from .linalg import ExactMatrix, MatrixCode, check_radius, solve_erasure_system
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

    def __eq__(self, other):
        return (
            isinstance(other, LinearizedPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"LinearizedPoly(deg_q={self.qdegree})"


def _qdegree(X: np.ndarray) -> int:
    """Index of the last nonzero row of a coefficient array, or -1."""
    nonzero = np.flatnonzero(X.any(axis=1))
    return int(nonzero[-1]) if nonzero.size else -1


def left_divide(field: ExtField, N: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The f with N = V o f, on coefficient arrays whose row i holds the
    coefficient of x^(q^i); f comes back with a nonzero top row, or none.

    The top coefficient of V o f is V_t f_d^(q^t), so f is read off from the
    top down: f_d = (r_(t+d) / V_t)^(q^-t) for the remainder r, which then
    loses V_i f_d^(q^i) in row i + d for every i.  Both maps of f_d are
    GF(q)-linear and built once, as (m, m) matrices, from mul_tensor,
    _frobenius_array and one inverse, which a monic V does without; each
    sums at most m products of residues.  Raises ValueError when the
    division is not exact.
    """
    p, m = field.p, field.m
    t = _qdegree(V)
    if t < 0:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = N[: _qdegree(N) + 1] % p
    if len(rem) < t + 1:
        if rem.any():
            raise ValueError("quotient would have negative degree")
        return rem
    T, F = field.mul_tensor, field._frobenius_array
    take = F[-t % m]
    if V[t].tolist() != [1] + [0] * (m - 1):  # a monic V needs no inverse
        take = np.einsum("a,abl->bl", np.asarray(field._inverse_coeffs(V[t].tolist())), T) % p @ take % p
    # shift[i] takes f_d to the coefficients of V_i f_d^(q^i)
    shift = np.einsum("ijb,ibl->ijl", F[np.arange(t + 1) % m], np.einsum("ia,abl->ibl", V[: t + 1], T) % p) % p
    f = np.zeros((len(rem) - t, m), dtype=np.int64)
    for d in range(len(f) - 1, -1, -1):
        f[d] = rem[t + d] @ take % p
        rem[d : d + t + 1] = (rem[d : d + t + 1] - f[d] @ shift) % p
    if rem.any():
        raise ValueError("division is not exact")
    return f


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
        if self._expand(G).rank() != self.n:
            raise ValueError("evaluation points must be GF(q)-independent")
        # Moore array: _moore[i, j] holds the coefficients of g_i^(q^j), j < m.
        self._moore = field.frobenius_powers(G, field.m)
        self._moore_reduced = {}  # t -> _reduce_moore(t), for 0 <= t <= n
        self.k = k
        self.d = self.n - k + 1
        # half-distance error radius
        self.radius = (self.n - k) // 2

    def _expand(self, X: np.ndarray) -> ExactMatrix:
        """The expansion of a word, the m x n matrix over GF(q) whose columns are the rows of X."""
        return ExactMatrix.from_array(self.field.base, X.T[:, :, None])

    def _word(self, y) -> np.ndarray:
        """The (n, m) coefficient array of a word: n elements, or their expansion."""
        if isinstance(y, ExactMatrix) and y.field != self.field.base:
            raise FieldMismatch(f"matrix over {y.field}, expected {self.field.base}")
        if isinstance(y, ExactMatrix) and y.rows != self.field.m:
            raise SingularBasis(f"matrix must have {self.field.m} rows")
        Y = y.array[:, :, 0].T if isinstance(y, ExactMatrix) else self.field.coeff_array(y)
        if len(Y) != self.n:
            raise LengthMismatch(f"need {self.n} symbols, got {len(Y)}")
        return Y

    def _evaluate(self, coeffs: np.ndarray) -> np.ndarray:
        """(n, m) coefficient array of f(g_i) for every point, where row j
        of the (k', m) array `coeffs` (k' <= m) is the coefficient of
        x^(q^j) in f."""
        return self.field.product(self._moore[:, : len(coeffs)], coeffs)

    def _encode(self, message: Sequence) -> np.ndarray:
        if len(message) != self.k:
            raise LengthMismatch(f"message length must be {self.k}, got {len(message)}")
        return self._evaluate(self.field.coeff_array(message))

    def encode(self, message: Sequence) -> list:
        return self.field.from_coeff_array(self._encode(message))

    def random_message(self, rng) -> list:
        return [self.field.random_element(rng) for _ in range(self.k)]

    def _kernel(self, A: np.ndarray) -> np.ndarray:
        """Right kernel basis of the (rows, cols, m) coefficient array A,
        one vector per free column of its RREF, in column order, as an
        (nullity, cols, m) array (ExactMatrix.kernel_basis's vectors)."""
        R, _, pivots = self.field.rref_array(A)
        cols = A.shape[1]
        free = [c for c in range(cols) if c not in pivots]
        K = np.zeros((len(free), cols, self.field.m), dtype=np.int64)
        K[range(len(free)), free, 0] = 1
        K[:, list(pivots)] = -R[: len(pivots), free].transpose(1, 0, 2) % self.field.p
        return K

    def _reduce_moore(self, t: int) -> tuple[np.ndarray, tuple[int, ...]]:
        """(P, pivots) with P M = RREF(M) and P invertible, for the
        n x (t + k) Moore block M = [g_i^(q^j)], j < t + k: one elimination
        of [M | I], kept on the code for each t."""
        if t not in self._moore_reduced:
            field, n, nn = self.field, self.n, t + self.k
            eye = np.zeros((n, n, field.m), dtype=np.int64)
            eye[range(n), range(n), 0] = 1
            R, _, pivots = field.rref_array(np.concatenate((self._moore[:, np.arange(nn) % field.m], eye), axis=1))
            self._moore_reduced[t] = R[:, nn:], tuple(c for c in pivots if c < nn)
        return self._moore_reduced[t]

    def _interpolate(self, Y: np.ndarray, t: int) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """(V, N) with V monic, V(y_i) = N(g_i), deg_q V <= t and
        deg_q N <= t + k - 1, as (t + 1, m) and (t + k, m) coefficient
        arrays, or None when V = 0 is forced.  Y is the (n, m) coefficient
        array of the received word, and 0 <= t <= n.

        The system [y_i^(q^j), j <= t] v = M w, with M the Moore block of
        _reduce_moore, times P reads Q v = RREF(M) w, Q = P [y_i^(q^j)].
        V is the first kernel vector of the last n - r rows of Q, r =
        rank M: 1 at its free column, 0 above it.  The top r rows give N's
        pivot coordinates; its free ones (t + k > r) are set to zero."""
        P, pivots = self._reduce_moore(t)
        r = len(pivots)
        Q = self.field.product(P, self.field.frobenius_powers(Y, t + 1))
        K = self._kernel(Q[r:])
        if not len(K):
            return None
        N = np.zeros((t + self.k, self.field.m), dtype=np.int64)
        N[list(pivots)] = self.field.product(Q[:r], K[0])
        return K[0], N

    def decode_errors(self, y, t: Optional[int] = None) -> tuple:
        """Correct up to t rank errors (default: half distance).

        y is n elements of GF(q^m) or their expansion.  Returns (codeword,
        error) in y's form; raises DecodingFailure when no valid codeword
        within radius t is found, and ParameterMismatch for t < 0.  The
        final rank check makes a wrong silent answer impossible.
        """
        field = self.field
        Y = self._word(y)
        t = check_radius(self.radius if t is None else t)
        # Every t >= n - k gives V = x and the interpolant of degree < n.
        pair = self._interpolate(Y, min(t, self.n))
        if pair is None:
            raise DecodingFailure("no interpolation pair with nonzero V")
        V, N = pair
        try:
            f = left_divide(field, N, V)
        except ValueError as exc:
            raise DecodingFailure(f"interpolation quotient not exact: {exc}") from exc
        if len(f) > self.k:
            raise DecodingFailure("quotient degree exceeds the code dimension")
        C = self._evaluate(f)
        E = self._expand((Y - C) % field.p)
        if E.rank() > t:
            raise DecodingFailure("residual rank exceeds the decoding radius")
        if isinstance(y, ExactMatrix):
            return self._expand(C), E
        return field.from_coeff_array(C), field.from_coeff_array(E.array[:, :, 0].T)

    @cached_property
    def _parity(self) -> np.ndarray:
        """(n - k, n, m) parity-check array: the kernel of the Moore rows
        [g_j^(q^i)], i < k, which is the identity when k = 0."""
        return self._kernel(self._moore[:, : self.k].transpose(1, 0, 2))

    def parity_check_matrix(self) -> ExactMatrix:
        """Rows spanning the dual."""
        return ExactMatrix.from_array(self.field, self._parity)

    def decode_erasures(self, y, support: ExactMatrix):
        """Recover the codeword, in y's form (decode_errors), when the
        error's row space (over GF(q), in the expanded matrix view) is known
        to lie in `support`, a matrix over GF(q); raises FieldMismatch for a
        support over another field.

        The error is sum_k x_k s_k over the support rows s_k, with x over
        GF(q^m) solving sum_k x_k H s_k = H y for the parity checks H.  H y
        is one product, each H s_k an integer combination of H's columns,
        and linalg.solve_erasure_system decides the system.
        """
        field, p = self.field, self.field.p
        Y = self._word(y)
        if support.rows and support.cols != self.n:
            raise DimensionMismatch("support width must match the code length")
        if support.field != field.base:
            raise FieldMismatch(f"support over {support.field}, expected {field.base}")
        H, S = self._parity, support.array.reshape(support.rows, self.n)
        HS = np.einsum("ki,jia->jka", S, H) % p
        M = ExactMatrix.from_array(field, np.concatenate((HS, field.product(H, Y)[:, None]), axis=1))
        x = solve_erasure_system(M).array[:, 0]
        C = (Y - np.einsum("ka,ki->ia", x, S)) % p
        return self._expand(C) if isinstance(y, ExactMatrix) else field.from_coeff_array(C)

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

    Carries the expansion basis and runs the vector-side code on
    expansions (in the polynomial basis; _rebase).  The decoders over
    GF(q^2), which a doubled code with a non-square twist calls, come from
    MatrixCode; so does the matrix erasure solve, which serves GF(q^2)
    inputs while decode_erasures keeps the array path for GF(q) inputs.
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
    def _coordinate_map(self) -> Optional[np.ndarray]:
        """Coefficient rows times this are coordinate rows (None as _basis_array)."""
        return None if self._basis_array is None else basis_inverse(self.field, self.basis).array[:, :, 0].T

    def _rebase(self, M: ExactMatrix, P: Optional[np.ndarray]) -> ExactMatrix:
        """M with each column c replaced by P^T c: _basis_array changes into
        the polynomial basis, _coordinate_map out of it; M for no P."""
        return M if P is None else self.code._expand(self.code._word(M) @ P % self.field.p)

    def to_matrix(self, vec: Sequence) -> ExactMatrix:
        return self._rebase(self.code._expand(self.code._word(vec)), self._coordinate_map)

    def to_vector(self, M: ExactMatrix) -> list:
        return self.field.from_coeff_array(self.code._word(self._rebase(M, self._basis_array)))

    def encode(self, message: Sequence) -> ExactMatrix:
        return self._rebase(self.code._expand(self.code._encode(message)), self._coordinate_map)

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
        C, E = self.code.decode_errors(self._rebase(Y, self._basis_array), t)
        return self._rebase(C, self._coordinate_map), self._rebase(E, self._coordinate_map)

    def decode_erasures(self, Y: ExactMatrix, support: ExactMatrix) -> ExactMatrix:
        return self._rebase(self.code.decode_erasures(self._rebase(Y, self._basis_array), support),
                            self._coordinate_map)

    # Bound in this class too, for tools that patch its own names.
    decode_ext = MatrixCode.decode_ext
    decode_erasures_ext = MatrixCode.decode_erasures_ext
