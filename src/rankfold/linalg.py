"""Exact dense linear algebra over pluggable fields.

A field handle must expose `zero`, `one` and `coerce`; entries must
support +, -, *, / and truth testing.  Rationals, multiquadratic towers
and the finite fields in this package all qualify.  gauss_jordan
eliminates with naive Gaussian steps in the field's own arithmetic and a
deterministic pivot rule (first row with a nonzero entry in the current
column), so results are reproducible and there is no numerical-stability
concern: arithmetic is exact.

A field handle may also expose `eliminate(entries) -> (rows, pivots)`,
the reduced row echelon form of a tuple of row tuples, which
ExactMatrix.rref calls instead of gauss_jordan; multiquadratic towers
reduce on integer rows this way (exactfield).  gauss_jordan serves QQ and
primes beyond the int64 bound and is the tests' reference for the other
paths; the reduced row echelon form is unique, so all paths agree.

Matrices are immutable (rref keeps its result); all operations return
fresh objects.  _syndrome is the one row product that skips zero entries,
for products of matrices without arrays, syndromes of such words and
RMCode.naive_syndrome.

Storage rule: a matrix over a field whose `array_matrices` is true holds
the read-only array `array` over the positive int `den`, in the field's
canonical form, and builds `entries` on first access.  gf's GF(p),
GF(p^2) and GF(p^m), GF(p)[x]/(f) with deg f = m, while
modmat.poly_fits_int64(p, m), hold (rows, cols, m) int64 coefficients mod
p over den = 1; their @ is one matmul while c m (p-1)^2 < 2^63 for inner
dimension c, else each entry product is reduced before the sum.  Q, the
height-0 tower (exactfield), holds a (rows, cols) object array of Python
ints with gcd(den, *array) = 1 (den = 1 for zero), and its @ is one
integer matmul.  The field's hooks matrix_array, array_entries,
canonical_array, scale_array, product and rref_array serve +, -, scale,
==, transpose, block, split_blocks, zeros, rref and @; slices, transposes
and products over den = 1 need no canonical_array.

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
        self.array, self.den = None, 1
        if getattr(field, "array_matrices", False):
            self.array, self.den = field.matrix_array(entries, self.rows, self.cols)
            self.array.flags.writeable = False

    @staticmethod
    def from_array(field, A: np.ndarray, den: int = 1) -> "ExactMatrix":
        """The matrix A / den over a field with array_matrices, for A and den
        in the field's canonical form; A is kept (not copied) read-only."""
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
        if getattr(field, "array_matrices", False):
            A = field.matrix_array((), 0, 0)[0]  # the field's dtype and entry shape
            return ExactMatrix.from_array(field, np.zeros((rows, cols) + A.shape[2:], A.dtype))
        z = field.zero
        return ExactMatrix(field, tuple((z,) * cols for _ in range(rows)), _raw=True, cols=cols)

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
        return not (self.array.any() if self.array is not None else any(any(row) for row in self.entries))

    # -- arithmetic --------------------------------------------------------------

    def _same_shape(self, other: "ExactMatrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} vs {other.shape}")

    def _arrays(self, other: "ExactMatrix") -> bool:
        """Whether both matrices hold arrays over the same field."""
        return self.array is not None and other.array is not None and self.field == other.field

    def _like(self, A: np.ndarray, den: int = 1) -> "ExactMatrix":
        """A / den over self's field, made canonical unless den = 1."""
        if den != 1:
            A, den = self.field.canonical_array(A, den)
        return ExactMatrix.from_array(self.field, A, den)

    def _over(self, den: int) -> np.ndarray:
        """The array that holds this matrix over den, a multiple of self.den."""
        return self.array if den == self.den else self.array * (den // self.den)

    def _combine(self, other: "ExactMatrix", op) -> "ExactMatrix":
        """op (+ or -) entry by entry; one numpy call on arrays."""
        self._same_shape(other)
        if self._arrays(other):
            den = lcm(self.den, other.den)
            A = op(self._over(den), other._over(den))
            return ExactMatrix.from_array(self.field, *self.field.canonical_array(A, den))
        return ExactMatrix(self.field, tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
                           _raw=True, cols=self.cols)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, operator.add)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "ExactMatrix":
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        c = self.field.coerce(c)
        if self.array is not None:
            return ExactMatrix.from_array(self.field, *self.field.scale_array(self.array, self.den, c))
        return ExactMatrix(self.field, tuple(tuple(c * a for a in row) for row in self.entries), _raw=True,
                           cols=self.cols)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        if self._arrays(other):
            return self._like(self.field.product(self.array, other.array), self.den * other.den)
        cols = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        zero = self.field.zero
        return ExactMatrix(self.field, tuple(tuple(_syndrome(cols, row, zero)) for row in self.entries), _raw=True,
                           cols=other.cols)

    def transpose(self) -> "ExactMatrix":
        if self.array is not None:
            return ExactMatrix.from_array(self.field, self.array.swapaxes(0, 1), self.den)
        return ExactMatrix(self.field, tuple(zip(*self.entries)) if self.rows else ((),) * self.cols, _raw=True,
                           cols=self.rows)

    def __eq__(self, other):
        if not (isinstance(other, ExactMatrix) and self.field == other.field and self.shape == other.shape):
            return False
        if self._arrays(other):
            return self.den == other.den and bool(np.array_equal(self.array, other.array))
        return all(a == b for r1, r2 in zip(self.entries, other.entries) for a, b in zip(r1, r2))

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
        if all(blk.array is not None for band in grid for blk in band):
            den = lcm(*(blk.den for band in grid for blk in band))  # canonical blocks over it: canonical
            bands = [np.concatenate([blk._over(den) for blk in band], axis=1) for band in grid]
            return ExactMatrix.from_array(field, np.concatenate(bands), den)
        rows = tuple(sum((blk.entries[i] for blk in band), ()) for band in grid for i in range(band[0].rows))
        return ExactMatrix(field, rows, _raw=True, cols=width)

    def split_blocks(self, row_split: int, col_split: int):
        """Cut into a 2x2 grid at the given indices; returns (tl, tr, bl, br)."""
        halves = (slice(None, row_split), slice(row_split, None)), (slice(None, col_split), slice(col_split, None))
        if self.array is not None:
            return tuple(self._like(self.array[r, c], self.den) for r in halves[0] for c in halves[1])
        return tuple(ExactMatrix(self.field, tuple(row[c] for row in self.entries[r]), _raw=True,
                                 cols=len(range(self.cols)[c])) for r in halves[0] for c in halves[1])

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.block([[self, other]])

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        return ExactMatrix.block([[self], [other]])

    # -- elimination ---------------------------------------------------------------

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...], int]:
        """Reduced row echelon form: of the array by the field's rref_array
        when the matrix holds one, else by the field's `eliminate` hook when
        it has one, else by gauss_jordan; kept on the matrix.

        Returns (R, pivot_columns, rank).
        """
        if self._rref is None and self.array is not None:
            A, den, pivots = self.field.rref_array(self.array)
            self._rref = ExactMatrix.from_array(self.field, A, den), pivots, len(pivots)
        elif self._rref is None:
            eliminate = getattr(self.field, "eliminate", None)
            rows, pivots = eliminate(self.entries) if eliminate else gauss_jordan(self.field, self.entries)
            self._rref = ExactMatrix(self.field, rows, _raw=True, cols=self.cols), pivots, len(pivots)
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


def gauss_jordan(field, entries: Sequence[Sequence]) -> tuple[tuple, tuple[int, ...]]:
    """(rows, pivots) of the reduced row echelon form, by Gauss-Jordan steps
    in the field's own arithmetic.  The pivot of each column is its first
    nonzero entry at or below the current row."""
    rows = [list(r) for r in entries]
    pivots = []
    pr = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = None
        for r in range(pr, len(rows)):
            if rows[r][c]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        inv = field.one / rows[pr][c]
        rows[pr] = [inv * e for e in rows[pr]]
        for r in range(len(rows)):
            if r != pr and rows[r][c]:
                f = rows[r][c]
                rows[r] = [e - f * p for e, p in zip(rows[r], rows[pr])]
        pivots.append(c)
        pr += 1
        if pr == len(rows):
            break
    return tuple(tuple(r) for r in rows), tuple(pivots)


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


def _syndrome(checks, v: Sequence, zero) -> list:
    """Each check row dotted with v, skipping zero entries."""
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum((x * row[j] for j, x in nz if row[j]), zero) for row in checks]


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
        if Y.array is None:
            gens = [[field.zero] * (i * n) + list(s) + [field.zero] * ((rows - 1 - i) * n)
                    for i in range(rows) for s in support.entries]
            c = solve_erasures(field, lambda v: _syndrome(self._checks.entries, v, field.zero), flatten([Y])[0], gens)
            return ExactMatrix(field, tuple(tuple(c[i * n:(i + 1) * n]) for i in range(rows)), _raw=True)
        m, H = field.degree, self._checks.array  # H: (checks, rows n, 1) residues
        S = np.zeros((r, n, m), dtype=np.int64)  # the support's coefficients in Y's field
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
