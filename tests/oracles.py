"""Reference algorithms the tests compare the library against."""

from fractions import Fraction
from typing import Sequence


def gauss_jordan(field, entries: Sequence[Sequence]) -> tuple[tuple, tuple[int, ...]]:
    """(rows, pivots) of the reduced row echelon form, by Gauss-Jordan steps
    in the field's own element arithmetic.  The pivot of each column is its
    first nonzero entry at or below the current row, the rule of every
    elimination in the package, and the reduced row echelon form is unique,
    so every path must reproduce these rows."""
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


def mul_by_alpha(x, i: int):
    """x * sqrt(a_i) in a multiquadratic tower, as a coordinate permutation
    with integer scalings: with a_i = n / d, coordinate k of the product is
    x[k ^ bit] times d where k has bit i - 1, else times n, over den * d."""
    F = x.field
    if not 1 <= i <= F.m:
        raise ValueError(f"no generator {i}")
    bit, a = 1 << (i - 1), F.gens[i - 1]
    num = [x.num[k ^ bit] * (a.denominator if k & bit else a.numerator) for k in range(F.dim)]
    return F.element([Fraction(u, x.den * a.denominator) for u in num])
