"""Elimination over multiquadratic towers against two references: the
rank over Q of the matrix with every entry replaced by its multiplication
matrix, and gauss_jordan in the tower's own arithmetic."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from rankfold import QQ, mq_field
from rankfold.linalg import ExactMatrix, gauss_jordan

# heights 0 to 3; the last tower has a negative and a non-integer generator
TOWERS = [mq_field(()), mq_field((2,)), mq_field((2, 3)), mq_field((2, 3, 5)), mq_field([-1, Fraction(3, 5), 7])]

coords = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)


def multiplication_matrix(x):
    """The 2^m x 2^m rational matrix of y -> x * y: column j holds the
    coordinates of x times basis monomial j, formed by multiplying with
    single square roots only."""
    F = x.field
    cols = []
    for j in range(F.dim):
        y = x
        for i in range(F.m):
            if j >> i & 1:
                y = y.mul_by_alpha(i + 1)
        cols.append(y.coords)
    return [list(row) for row in zip(*cols)]


def rho(M):
    """M with every entry replaced by its multiplication matrix, over QQ."""
    out = []
    for row in M.entries:
        blocks = [multiplication_matrix(x) for x in row]
        out += [[c for b in blocks for c in b[i]] for i in range(M.field.dim)]
    return ExactMatrix(QQ, out)


@st.composite
def tower_matrices(draw):
    """A matrix X Z of planted rank at most k over a tower, with some rows
    and columns then zeroed."""
    F = draw(st.sampled_from(TOWERS))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(rows, cols)))

    def element():
        return F.element(draw(st.lists(coords, min_size=F.dim, max_size=F.dim)))

    X = ExactMatrix(F, [[element() for _ in range(k)] for _ in range(rows)]) if k else None
    Z = ExactMatrix(F, [[element() for _ in range(cols)] for _ in range(k)]) if k else None
    M = X @ Z if k else ExactMatrix.zeros(F, rows, cols)
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    entries = [
        [F.zero if i in zero_rows or j in zero_cols else M[i, j] for j in range(cols)]
        for i in range(rows)
    ]
    return ExactMatrix(F, entries), k


oracle_settings = settings(max_examples=120, deadline=None, database=None)


@oracle_settings
@given(tower_matrices())
def test_tower_rank_is_rational_rank_of_rho_over_degree(case):
    M, k = case
    rank = M.rank()
    assert rank * M.field.dim == rho(M).rank()
    assert rank == len(M.field.eliminate(M.entries)[1]) <= k


@oracle_settings
@given(tower_matrices())
def test_eliminate_equals_gauss_jordan(case):
    M, _ = case
    rows, pivots = M.field.eliminate(M.entries)
    expected = gauss_jordan(M.field, M.entries)
    assert (rows, pivots) == expected
    assert [[x.coords for x in row] for row in rows] == [[x.coords for x in row] for row in expected[0]]


@pytest.mark.parametrize("F", TOWERS, ids=str)
@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (1, 1), (3, 3)])
def test_eliminate_on_thin_and_full_rank_shapes(F, shape):
    rows, cols = shape
    entries = [
        [F.element([Fraction(3 * i - 2 * j + s, 1 + (i + j + s) % 4) for s in range(F.dim)]) for j in range(cols)]
        for i in range(rows)
    ]
    entries[0][0] = F.zero  # the first pivot comes from a later row, when there is one
    M = ExactMatrix(F, entries)
    reduced = F.eliminate(M.entries)
    assert reduced == gauss_jordan(F, M.entries)
    assert rho(M).rank() == len(reduced[1]) * F.dim


def test_eliminate_of_empty_and_zero_matrices():
    F = TOWERS[2]
    assert F.eliminate(()) == ((), ())
    Z = ExactMatrix.zeros(F, 3, 2)
    assert F.eliminate(Z.entries) == gauss_jordan(F, Z.entries) == (Z.entries, ())


@pytest.mark.parametrize("F", [TOWERS[0], TOWERS[2]], ids=str)
def test_eliminate_builds_only_the_rows_up_to_the_rank(F, monkeypatch):
    # a rank-3 16 x 16 matrix: 3 x 16 elements are built, and the 13 rows
    # past the last pivot hold the field's shared zero
    X = ExactMatrix(F, [[(5 * i + 3 * k) % 7 - 3 for k in range(3)] for i in range(16)])
    Z = ExactMatrix(F, [[(j * j + k * j + 2 * k) % 5 - 2 for j in range(16)] for k in range(3)]).map_entries(
        lambda x: x * F.element(range(1, F.dim + 1)))
    M = X @ Z
    expected = gauss_jordan(F, M.entries)
    built = []
    element = type(F)._element
    monkeypatch.setattr(type(F), "_element", lambda self, num, den: built.append(den) or element(self, num, den))
    rows, pivots = F.eliminate(M.entries)
    assert (rows, pivots) == expected and len(pivots) == 3
    assert len(built) == 3 * 16
    assert all(x is F.zero for row in rows[3:] for x in row)
