"""Gabidulin codes over GF(q^m).

Codewords are evaluations of linearized polynomials sum a_i x^(q^i) of
q-degree below k at GF(q)-independent points.  Expanding each entry over a
GF(q)-basis turns length-n codewords into m x n matrices; the code is MRD,
with minimum rank distance d = n - k + 1.

The error decoder is linearized Welch-Berlekamp: find a nonzero pair
(V, N) with deg_q V <= t, deg_q N <= t + k - 1 and V(y_i) = N(g_i) for all
i (one homogeneous linear system), recover the message polynomial as the
exact left quotient of N by V, and verify the residual rank.  The erasure
decoders hand linalg.solve_erasures the code's parity checks, built once
per code, and the error's known row space.  Both report failure rather
than return an unverified answer.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .errors import DecodingFailure, DimensionMismatch, LengthMismatch
from .gf import ExtField, QuadExtField, expand_to_base, reconstruct_from_base
from .linalg import ExactMatrix, solve_erasures


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
        lead = divisor.coeffs[t]
        rem = list(self.coeffs)
        if len(rem) < t + 1:
            if any(rem):
                raise ValueError("quotient would have negative degree")
            return LinearizedPoly(field, ())
        fdeg = len(rem) - 1 - t
        fcoeffs = [field.zero] * (fdeg + 1)
        inv_frob = (-t) % field.m if field.m else 0
        for d in range(fdeg, -1, -1):
            c = rem[t + d]
            if not c:
                continue
            fd = field.frobenius(c / lead, inv_frob)
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


def _syndrome(checks, v: Sequence, zero) -> list:
    """Each check row dotted with v, skipping zero entries."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum((x * row[j] for j, x in nz if row[j]), zero) for row in checks]


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
        self.field = field
        if points is None:
            points = field.polynomial_basis()
        self.points = tuple(field.coerce(g) for g in points)
        self.n = len(self.points)
        if not 0 <= k <= self.n:
            raise ValueError(f"dimension must be between 0 and {self.n}")
        if self.n > field.m:
            raise ValueError("more evaluation points than the extension degree")
        if expand_to_base(field, self.points).rank() != self.n:
            raise ValueError("evaluation points must be GF(q)-independent")
        self.k = k
        self.d = self.n - k + 1
        # half-distance error radius
        self.radius = (self.n - k) // 2

    def encode(self, message: Sequence) -> list:
        if len(message) != self.k:
            raise LengthMismatch(f"message length must be {self.k}, got {len(message)}")
        f = LinearizedPoly(self.field, message)
        return [f(g) for g in self.points]

    def random_message(self, rng) -> list:
        return [self.field.random_element(rng) for _ in range(self.k)]

    def _interpolate(self, y: Sequence, t: int) -> tuple:
        """Nonzero (V, N) with V(y_i) = N(g_i), deg_q V <= t,
        deg_q N <= t + k - 1, or None if every kernel vector has V = 0."""
        field = self.field
        nv, nn = t + 1, t + self.k
        rows = []
        for gi, yi in zip(self.points, y):
            row = [field.frobenius(yi, j) for j in range(nv)]
            row += [-field.frobenius(gi, j) for j in range(nn)]
            rows.append(row)
        M = ExactMatrix(field, rows)
        for vec in M.kernel_basis():
            if any(vec[:nv]):
                return (
                    LinearizedPoly(field, vec[:nv]),
                    LinearizedPoly(field, vec[nv:]),
                )
        return None

    def decode_errors(self, y: Sequence, t: Optional[int] = None) -> tuple[list, list]:
        """Correct up to t rank errors (default: half distance).

        Returns (codeword, error); raises DecodingFailure when no valid
        codeword within radius t is found.  The final rank check makes a
        wrong silent answer impossible.
        """
        y = [self.field.coerce(v) for v in y]
        if len(y) != self.n:
            raise LengthMismatch(f"need {self.n} symbols, got {len(y)}")
        if t is None:
            t = self.radius
        pair = self._interpolate(y, t)
        if pair is None:
            raise DecodingFailure("no interpolation pair with nonzero V")
        V, N = pair
        try:
            f = N.left_divide(V)
        except ValueError as exc:
            raise DecodingFailure(f"interpolation quotient not exact: {exc}") from exc
        if f.qdegree >= self.k:
            raise DecodingFailure("quotient degree exceeds the code dimension")
        c = [f(g) for g in self.points]
        e = [yi - ci for yi, ci in zip(y, c)]
        if expand_to_base(self.field, e).rank() > t:
            raise DecodingFailure("residual rank exceeds the decoding radius")
        return c, e

    def parity_check_matrix(self) -> ExactMatrix:
        """Rows spanning the dual: kernel of the Moore evaluation matrix."""
        field = self.field
        if self.k == 0:
            return ExactMatrix.identity(field, self.n)
        G = ExactMatrix(
            field,
            [[field.frobenius(g, i) for g in self.points] for i in range(self.k)],
        )
        kern = G.kernel_basis()
        return ExactMatrix(field, kern) if kern else ExactMatrix(field, ())

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


class GabidulinMatrixCode:
    """The same code viewed as m x n matrices over GF(q).

    Carries the expansion basis and wraps the vector-side decoders; also
    provides the corresponding decoders for the scalar extension to
    GF(q^2), which the Plotkin decoder needs when its twist is a
    non-square (errors then live over the quadratic extension).
    """

    def __init__(self, code: GabidulinCode, basis: Optional[Sequence] = None):
        self.code = code
        self.field = code.field
        self.base = code.field.base
        self.basis = tuple(code.field.coerce(b) for b in basis) if basis else tuple(code.field.polynomial_basis())
        # None stands for the polynomial basis, whose coordinates need no inversion.
        self._expansion_basis = self.basis if basis else None
        self.rows = code.field.m
        self.cols = code.n
        # GF(q)-dimension of the matrix code
        self.dim = code.field.m * code.k

    def to_matrix(self, vec: Sequence) -> ExactMatrix:
        return expand_to_base(self.field, vec, self._expansion_basis)

    def to_vector(self, M: ExactMatrix) -> list:
        return reconstruct_from_base(self.field, M, self._expansion_basis)

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

    # -- quadratic-extension views ------------------------------------------------

    def decode_ext(self, Y: ExactMatrix, t: int) -> ExactMatrix:
        """Decode over GF(q^2) via the two GF(q) components.

        An error of GF(q^2)-rank t has components of GF(q)-rank at most 2t,
        so both components decode natively whenever 2t is within the code's
        radius; the result is verified at rank t over the extension.
        """
        ext = Y.field
        if not isinstance(ext, QuadExtField) or ext.base != self.base:
            raise DimensionMismatch("expected a matrix over the quadratic extension")
        C = ext.join_matrix(*(self.decode(part)[0] for part in ext.split_matrix(Y)))
        if (Y - C).rank() > t:
            raise DecodingFailure("extension residual rank exceeds the radius")
        return C

    @cached_property
    def _matrix_checks(self) -> Sequence:
        """GF(q) parity checks of the matrix code, acting on matrices
        flattened row by row; they also check its extension to GF(q^2)."""
        flat = [[e for row in B.entries for e in row] for B in self.basis_codewords()]
        if not flat:
            return ExactMatrix.identity(self.base, self.rows * self.cols).entries
        return ExactMatrix(self.base, flat).kernel_basis()

    def decode_erasures_ext(self, Y: ExactMatrix, support: ExactMatrix) -> ExactMatrix:
        """Erasure decoding over GF(q^2) with a known GF(q^2) row space.

        The erasure space is spanned by the matrices with one row taken
        from `support` and every other row zero.
        """
        ext = Y.field
        if not isinstance(ext, QuadExtField) or ext.base != self.base:
            raise DimensionMismatch("expected a matrix over the quadratic extension")
        if support.rows and support.cols != self.cols:
            raise DimensionMismatch("support width must match the code length")
        n = self.cols
        gens = []
        for i in range(self.rows):
            for r in support.entries:
                g = [ext.zero] * (self.rows * n)
                g[i * n:(i + 1) * n] = r
                gens.append(g)
        y = [e for row in Y.entries for e in row]
        c = solve_erasures(ext, lambda v: _syndrome(self._matrix_checks, v, ext.zero), y, gens)
        return ExactMatrix(ext, tuple(tuple(c[i * n:(i + 1) * n]) for i in range(self.rows)), _raw=True)
