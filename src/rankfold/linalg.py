"""Exact dense linear algebra over pluggable fields.

A field handle exposes `zero`, `one` and `coerce`, and its elements
support +, -, *, / and truth testing; multiquadratic towers (Q is the
height-0 tower) and the finite fields of gf qualify.

Storage rule: every matrix holds one read-only (rows, cols, d) array,
`array`, over one positive int `den`, in its field's canonical form, and
builds `entries`, its rows as tuples of elements, on first access; d is
the field's dimension over its prime field.  A tower of height h holds
the 2^h integer coordinates of each entry as Python ints in an object
array, with gcd(den, *array) = 1 (den = 1 for zero); GF(p), GF(p^2) and
GF(p^m), GF(p)[x]/(f) with deg f = m, hold the m coefficients mod p of
each entry over den = 1, as int64 while modmat.poly_fits_int64(p, m) and
as Python ints in an object array past it.  The field's hooks
matrix_array, array_entries, canonical_array, scale_array, product (whose
array is product_den times A X) and rref_array serve +, -, scale, ==,
transpose, block, split_blocks, zeros, rref and @; slices, transposes and
products over den = 1 need no canonical_array.  Every rref takes the
first nonzero entry at or below the current row as a column's pivot, and
the reduced row echelon form is unique, so all fields' eliminations give
what Gauss-Jordan in the field's own arithmetic gives.  Matrices are
immutable (rref keeps its result); all operations return fresh objects.

MatrixCode derives, once, parity checks, erasure decoding and decoding
over GF(q^2) from a matrix code's basis and error decoder; Gabidulin
codes and doubled codes are MatrixCodes.
"""

from __future__ import annotations

import operator
from functools import cached_property
from math import lcm
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DecodingFailure, DimensionMismatch, FieldMismatch, LengthMismatch, NoSolution, NotUnique,
                     ParameterMismatch)


class ExactMatrix:
    __slots__ = ("field", "rows", "cols", "_entries", "array", "den", "_rref")

    def __init__(self, field, entries: Sequence[Sequence], _raw: bool = False, cols: Optional[int] = None):
        """`cols` gives the width of a matrix without rows; otherwise the
        width is read off the entries (and checked against cols if given)."""
        if not _raw:
            entries = tuple(tuple(field.coerce(e) for e in row) for row in entries)
        self.field = field
        self._entries, self._rref = entries, None
        self.rows = len(entries)
        self.cols = cols if cols is not None else len(entries[0]) if entries else 0
        if not (isinstance(self.cols, int) and self.cols >= 0):
            raise DimensionMismatch(f"no width {self.cols!r}")
        for row in entries:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")
        self.array, self.den = field.matrix_array(entries, self.rows, self.cols)
        self.array.flags.writeable = False

    @staticmethod
    def from_array(field, A: np.ndarray, den: int = 1) -> "ExactMatrix":
        """The matrix A / den over `field`, for A and den in the field's
        canonical form; A is kept (not copied) read-only."""
        M = object.__new__(ExactMatrix)
        A.flags.writeable = False
        M.field, M._entries, M.array, M.den, M._rref = field, None, A, den, None
        M.rows, M.cols = A.shape[:2]
        return M

    @property
    def entries(self) -> tuple:
        """The rows as tuples of elements."""
        if self._entries is None:
            self._entries = self.field.array_entries(self.array, self.den)
        return self._entries

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(field, rows: int, cols: int) -> "ExactMatrix":
        A = field.matrix_array((), 0, 0)[0]  # the field's dtype and entry shape
        return ExactMatrix.from_array(field, np.zeros((rows, cols) + A.shape[2:], A.dtype))

    @staticmethod
    def identity(field, n: int) -> "ExactMatrix":
        z, o = field.zero, field.one
        return ExactMatrix(field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), _raw=True)

    @staticmethod
    def column(field, entries: Sequence) -> "ExactMatrix":
        return ExactMatrix(field, [[e] for e in entries])

    # -- access ----------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def col(self, j: int) -> tuple:
        return tuple(row[j] for row in self.entries)

    def rows_list(self) -> list[list]:
        return [list(row) for row in self.entries]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not self.array.any()

    # -- arithmetic --------------------------------------------------------------

    def _same_field(self, other: "ExactMatrix"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _same_shape(self, other: "ExactMatrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")

    def _like(self, A: np.ndarray, den: int = 1) -> "ExactMatrix":
        """A / den over self's field, made canonical unless den = 1."""
        if den != 1:
            A, den = self.field.canonical_array(A, den)
        return ExactMatrix.from_array(self.field, A, den)

    def _over(self, den: int) -> np.ndarray:
        """The array that holds this matrix over den, a multiple of self.den."""
        return self.array if den == self.den else self.array * (den // self.den)

    def _combine(self, other: "ExactMatrix", op) -> "ExactMatrix":
        """op (+ or -) entry by entry, one numpy call."""
        self._same_field(other)
        self._same_shape(other)
        den = lcm(self.den, other.den)
        A, den = self.field.canonical_array(op(self._over(den), other._over(den)), den)
        return ExactMatrix.from_array(self.field, A, den)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        return ExactMatrix.from_array(self.field, *self.field.scale_array(self.array, self.den, self.field.coerce(c)))

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        return self._like(self.field.product(self.array, other.array), self.den * other.den * self.field.product_den)

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.from_array(self.field, self.array.swapaxes(0, 1), self.den)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.field == other.field and self.shape == other.shape
                and self.den == other.den and bool(np.array_equal(self.array, other.array)))

    def map_entries(self, fn: Callable, field=None) -> "ExactMatrix":
        """Apply fn entry-wise, optionally moving to another field."""
        return ExactMatrix(field or self.field, tuple(tuple(fn(a) for a in row) for row in self.entries), _raw=True,
                           cols=self.cols)

    # -- block structure ---------------------------------------------------------

    @staticmethod
    def block(grid: Sequence[Sequence["ExactMatrix"]]) -> "ExactMatrix":
        """Assemble a matrix from a grid of blocks (row heights and column
        widths must agree along each band, and every block must be over one
        field)."""
        field = grid[0][0].field
        if any(blk.field != field for band in grid for blk in band):
            raise FieldMismatch("blocks over different fields")
        width = sum(blk.cols for blk in grid[0])
        for band in grid:
            if sum(blk.cols for blk in band) != width:
                raise DimensionMismatch("block widths differ between bands")
            if any(blk.rows != band[0].rows for blk in band):
                raise DimensionMismatch("block heights differ within a band")
        den = lcm(*(blk.den for band in grid for blk in band))  # canonical blocks over it: canonical
        bands = [np.concatenate([blk._over(den) for blk in band], axis=1) for band in grid]
        return ExactMatrix.from_array(field, np.concatenate(bands), den)

    def split_blocks(self, row_split: int, col_split: int):
        """Cut into a 2x2 grid at the given indices; returns (tl, tr, bl, br)."""
        halves = (slice(None, row_split), slice(row_split, None)), (slice(None, col_split), slice(col_split, None))
        return tuple(self._like(self.array[r, c], self.den) for r in halves[0] for c in halves[1])

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.block([[self, other]])

    # -- elimination ---------------------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...], int]:
        """Reduced row echelon form of the array, by the field's rref_array;
        kept on the matrix.

        Returns (R, pivot_columns, rank).
        """
        if self._rref is None:
            A, den, pivots = self.field.rref_array(self.array)
            self._rref = ExactMatrix.from_array(self.field, A, den), pivots, len(pivots)
        return self._rref

    def rank(self) -> int:
        return self.rref()[2]

    def row_space_basis(self) -> "ExactMatrix":
        """Echelon basis of the row space: the nonzero rows of the RREF."""
        R, _, rank = self.rref()
        return R.split_blocks(rank, self.cols)[0]

    def kernel_basis(self) -> list[list]:
        """Basis of the right kernel, one vector per free column."""
        R, pivots, _ = self.rref()
        return _kernel_from_rref(self.field, R.entries, pivots, self.cols)

    def solve(self, b: Sequence) -> list:
        """Solve A x = b for the unique x.

        Raises NoSolution if the system is inconsistent and NotUnique (with a
        nonzero kernel vector as witness) if it is underdetermined.
        """
        if isinstance(b, ExactMatrix):
            if b.cols != 1:
                raise DimensionMismatch("right-hand side must be a column")
            b = [row[0] for row in b.entries]
        if len(b) != self.rows:
            raise LengthMismatch(f"need {self.rows} right-hand entries, got {len(b)}")
        R, pivots, rank = self.hstack(ExactMatrix.column(self.field, b)).rref()
        if pivots and pivots[-1] == self.cols:
            raise NoSolution("inconsistent system")
        if rank < self.cols:
            # no pivot in the last column: the other columns of R are A's RREF
            raise NotUnique(_kernel_from_rref(self.field, R.entries, pivots, self.cols)[0])
        x = [self.field.zero] * self.cols
        for r, c in enumerate(pivots):
            x[c] = R.entries[r][self.cols]
        return x

    # -- serialization -----------------------------------------------------------------

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "field": self.field.to_json(),
            "entries": [[self.field.element_to_json(e) for e in row] for row in self.entries],
        }

    @staticmethod
    def from_json(data, field=None) -> "ExactMatrix":
        if field is None:
            from .serial import field_from_json

            field = field_from_json(data["field"])
        shape = (data["rows"], data["cols"])
        entries = [[field.element_from_json(e) for e in row] for row in data["entries"]]
        # a matrix without rows has only its declared width
        mat = ExactMatrix(field, entries, cols=None if entries else shape[1])
        if mat.shape != shape:
            raise DimensionMismatch("declared shape does not match entries")
        return mat

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field!r})"


def _kernel_from_rref(field, R: Sequence[Sequence], pivots: Sequence[int], cols: int) -> list[list]:
    """Kernel basis of a matrix with `cols` columns from its RREF rows R
    (extra columns of R are ignored), one vector per free column."""
    pivot_set = set(pivots)
    zero, one = field.zero, field.one
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [zero] * cols
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = -R[r][f]
        basis.append(v)
    return basis


def dual_basis(field, rows: Sequence[Sequence], width: int) -> list[list]:
    """Basis of the vectors of length `width` orthogonal to every row: the
    kernel of the rows, or every unit vector when there are none."""
    if not rows:
        return ExactMatrix.identity(field, width).rows_list()
    return ExactMatrix(field, rows).kernel_basis()


def random_rank_matrix(field, rng, rows, cols, rank) -> ExactMatrix:
    """Random matrix of rank exactly `rank`, as a product of full-rank
    factors (resampled until both are), so row and column spaces are
    uniform subspaces of the right dimension."""
    if not 0 <= rank <= min(rows, cols):
        raise DimensionMismatch(f"rank {rank} impossible for {rows}x{cols}")
    if rank == 0:
        return ExactMatrix.zeros(field, rows, cols)
    while True:
        X = ExactMatrix(field, [[field.random_element(rng) for _ in range(rank)] for _ in range(rows)])
        Z = ExactMatrix(field, [[field.random_element(rng) for _ in range(cols)] for _ in range(rank)])
        E = X @ Z
        if E.rank() == rank:
            return E


def solve_erasures(field, syndrome: Callable, y: Sequence, generators: Sequence[Sequence]) -> list:
    """The word c = y - sum_k x_k g_k whose syndrome is zero.

    `syndrome` maps a vector over `field` to its syndrome, and the
    generators g_k span the erasure space.  x solves
    sum_k x_k syndrome(g_k) = syndrome(y) (solve_erasure_system); it is
    unique exactly when no nonzero combination of the generators is a
    codeword.  Raises DecodingFailure when the system is inconsistent or
    ambiguous.
    """
    columns = [syndrome(g) for g in generators] + [syndrome(y)]
    M = ExactMatrix(field, tuple(zip(*columns)), _raw=True, cols=len(columns))
    return _peel(y, solve_erasure_system(M).col(0), generators)


def solve_erasure_system(M: ExactMatrix) -> ExactMatrix:
    """The r x 1 matrix x with sum_k x_k H s_k = H y, from the augmented
    system M = [H s_1 ... H s_r | H y] by one rref.  Raises DecodingFailure
    when the system is inconsistent or x is not unique."""
    r = M.cols - 1
    R, pivots, rank = M.rref()
    if pivots and pivots[-1] == r:
        raise DecodingFailure("erasure system inconsistent: inconsistent system" if r
                              else "nonzero syndrome with empty erasure support")
    if rank < r:
        raise DecodingFailure("erasure support hides a codeword")
    return R.split_blocks(r, r)[1]


def _peel(y: Sequence, x: Sequence, generators: Sequence[Sequence]) -> list:
    """y - sum_k x_k g_k, skipping zero entries."""
    out = list(y)
    for xk, g in zip(x, generators):
        if xk:
            for j, gj in enumerate(g):
                if gj:
                    out[j] = out[j] - xk * gj
    return out


def check_radius(t: int) -> int:
    """t, or ParameterMismatch when the decoding radius t is negative."""
    if t < 0:
        raise ParameterMismatch(f"the decoding radius must be at least 0, got {t}")
    return t


def flatten(mats) -> list[list]:
    """Each matrix as one vector, its entries read row by row."""
    return [[e for row in M.entries for e in row] for M in mats]


class MatrixCode:
    """A linear code of rows x cols matrices over the prime field `base`.

    A subclass provides rows, cols, base, dim, random_codeword(rng),
    basis_codewords() and decode(Y, t=None) -> (codeword, error), which
    raises DecodingFailure rather than return an answer with rank(error)
    above t.  This class derives the rest from them.  An extension of base
    is recognised by its `base` attribute; decode_ext needs one with
    split and join (gf.QuadExtField).
    """

    @cached_property
    def _checks(self) -> ExactMatrix:
        """Parity checks over base, one per row, on matrices flattened row
        by row; they also check the code's span over any extension of base."""
        width = self.rows * self.cols
        return ExactMatrix(self.base, dual_basis(self.base, flatten(self.basis_codewords()), width), cols=width)

    def decode_erasures_ext(self, Y: ExactMatrix, support: ExactMatrix) -> ExactMatrix:
        """The codeword C such that the rows of Y - C lie in the row space
        of `support`, with Y over base or an extension of it and support
        over base or Y's field (FieldMismatch otherwise).

        The erasure space is spanned by the matrices with one row taken
        from `support` and every other row zero.  Raises DecodingFailure
        when no such C exists or it is not unique.
        """
        field, base = Y.field, self.base
        if field != base and getattr(field, "base", None) != base:
            raise DimensionMismatch(f"expected a matrix over {base} or an extension of it")
        if Y.shape != (self.rows, self.cols) or (support.rows and support.cols != self.cols):
            raise DimensionMismatch("word and support must match the code's shape")
        if support.field not in (base, field):
            raise FieldMismatch(f"support over {support.field}, expected {base} or {field}")
        rows, n, r = self.rows, self.cols, support.rows
        m, H = field.degree, self._checks.array  # H: (checks, rows n, 1) residues
        S = np.zeros((r, n, m), dtype=Y.array.dtype)  # the support's coefficients in Y's field
        S[:, :, :support.field.degree] = support.array.reshape(r, n, support.field.degree)
        HS = base.product(H.reshape(-1, n, 1), S.transpose(1, 0, 2).reshape(n, r * m, 1)).reshape(len(H), rows * r, m)
        Hy = base.product(H, Y.array.reshape(rows * n, m, 1)).reshape(len(H), 1, m)
        x = solve_erasure_system(ExactMatrix.from_array(field, np.concatenate((HS, Hy), axis=1))).array
        return ExactMatrix.from_array(field, (Y.array - field.product(x.reshape(rows, r, m), S)) % field.p)

    decode_erasures = decode_erasures_ext

    def decode_ext(self, Y: ExactMatrix, t: int) -> tuple[ExactMatrix, ExactMatrix]:
        """(codeword, error) over GF(q^2), through the two GF(q) parts of Y.

        An error of GF(q^2)-rank t has parts of GF(q)-rank at most 2t, so
        both parts decode whenever 2t is within the code's radius; the
        joined codeword C is returned only if rank(Y - C) <= t over GF(q^2).
        Raises ParameterMismatch for t < 0.
        """
        check_radius(t)
        ext = Y.field
        if getattr(ext, "base", None) != self.base or not hasattr(ext, "split"):
            raise DimensionMismatch("expected a matrix over the quadratic extension")
        C = ext.join(*(self.decode(part)[0] for part in ext.split(Y)))
        E = Y - C
        if E.rank() > t:
            raise DecodingFailure("extension residual rank exceeds the radius")
        return C, E
