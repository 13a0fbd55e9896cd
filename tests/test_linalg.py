"""Exact matrices over pluggable fields: echelon form, solving, blocks."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from rankfold import DimensionMismatch, FieldMismatch, NoSolution, NotUnique, QQ, SplitMix64, mq_field
from rankfold.gf import ExtField, PrimeField, QuadExtField
from rankfold.linalg import ExactMatrix, gauss_jordan, random_rank_matrix


def _random_matrix(field, rng, rows, cols, bound=9):
    return ExactMatrix(field, [[rng.randint(0, bound) for _ in range(cols)] for _ in range(rows)])


def test_construction_and_access():
    A = ExactMatrix(QQ, [[1, 2], [3, 4]])
    assert A.shape == (2, 2)
    assert A[0, 1] == Fraction(2)
    assert A.col(1) == (Fraction(2), Fraction(4))
    assert not A.is_zero()
    assert ExactMatrix.zeros(QQ, 2, 3).is_zero()
    I = ExactMatrix.identity(QQ, 3)
    assert I @ I == I


def test_arithmetic():
    A = ExactMatrix(QQ, [[1, 2], [3, 4]])
    B = ExactMatrix(QQ, [[0, 1], [1, 0]])
    assert (A + B) - B == A
    assert A @ B == ExactMatrix(QQ, [[2, 1], [4, 3]])
    assert A.scale(2) == A + A
    assert (-A) + A == ExactMatrix.zeros(QQ, 2, 2)
    assert A.transpose().transpose() == A


def test_rref_known():
    A = ExactMatrix(QQ, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    R, pivots, rank = A.rref()
    assert rank == 2 and pivots == (0, 1)
    assert R.entries[0] == (1, 0, 1)
    assert R.entries[1] == (0, 1, 1)
    assert A.rank() == A.transpose().rank() == 2


def test_rank_random_transpose_invariance():
    rng = SplitMix64(5)
    for _ in range(25):
        A = _random_matrix(QQ, rng, 4, 6)
        assert A.rank() == A.transpose().rank()


def test_rref_over_prime_field():
    F = PrimeField(7)
    A = ExactMatrix(F, [[2, 4], [3, 6]])
    # second column is twice the first, also mod 7
    assert A.rank() == 1
    R, pivots, rank = A.rref()
    assert R.entries[0] == (F.one, F.element(2))


def test_solve_unique():
    A = ExactMatrix(QQ, [[2, 1], [1, 3]])
    x = A.solve([5, 10])
    assert x == [Fraction(1), Fraction(3)]


def test_solve_no_solution():
    A = ExactMatrix(QQ, [[1, 2], [2, 4]])
    with pytest.raises(NoSolution):
        A.solve([1, 3])


def test_solve_not_unique_carries_witness():
    A = ExactMatrix(QQ, [[1, 2], [2, 4]])
    with pytest.raises(NotUnique) as info:
        A.solve([1, 2])
    w = info.value.witness
    assert any(w)
    # witness is a kernel vector
    assert all(sum(A[i, j] * w[j] for j in range(2)) == 0 for i in range(2))


def test_not_unique_witness_is_the_first_kernel_vector():
    rng = SplitMix64(9)
    for field in (QQ, PrimeField(23)):
        for _ in range(10):
            A = _random_matrix(field, rng, 3, 5)
            b = A @ ExactMatrix.column(field, [rng.randint(0, 9) for _ in range(5)])
            with pytest.raises(NotUnique) as info:
                A.solve(b)
            assert info.value.witness == A.kernel_basis()[0]


def test_solve_eliminates_once(monkeypatch):
    A = ExactMatrix(QQ, [[1, 2, 3], [2, 4, 7]])
    calls = []
    rref = ExactMatrix.rref
    monkeypatch.setattr(ExactMatrix, "rref", lambda self: calls.append(self.shape) or rref(self))
    with pytest.raises(NotUnique):
        A.solve([1, 2])
    assert calls == [(2, 4)]


def test_kernel_basis_annihilates():
    rng = SplitMix64(6)
    for _ in range(20):
        A = _random_matrix(QQ, rng, 3, 5)
        kern = A.kernel_basis()
        assert len(kern) == 5 - A.rank()
        for v in kern:
            prod = [sum(A[i, j] * v[j] for j in range(5)) for i in range(3)]
            assert not any(prod)


def test_row_space_basis_is_echelon_and_spans():
    A = ExactMatrix(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    B = A.row_space_basis()
    assert B.rows == 2
    stacked = B.vstack(A)
    assert stacked.rank() == 2  # same span


def test_block_split_roundtrip():
    rng = SplitMix64(7)
    A = _random_matrix(QQ, rng, 4, 4)
    tl, tr, bl, br = A.split_blocks(2, 2)
    assert ExactMatrix.block([[tl, tr], [bl, br]]) == A
    assert tl.hstack(tr).vstack(bl.hstack(br)) == A


def test_block_refuses_blocks_over_other_fields():
    # GF(7) residues are no GF(23) residues, and a GF(23) block has one
    # coefficient where a GF(23^2) block has two
    F = PrimeField(23)
    for other, field in ((PrimeField(7), F), (F, QuadExtField(F))):
        A, B = ExactMatrix.identity(field, 2), ExactMatrix.identity(other, 2)
        for stacked in (lambda: A.hstack(B), lambda: A.vstack(B), lambda: ExactMatrix.block([[A, A], [B, A]])):
            with pytest.raises(FieldMismatch):
                stacked()


def test_matmul_block_compatibility():
    # (2x2 block product) == plain product
    rng = SplitMix64(8)
    A = _random_matrix(QQ, rng, 4, 4)
    B = _random_matrix(QQ, rng, 4, 4)
    a = A.split_blocks(2, 2)
    b = B.split_blocks(2, 2)
    C = ExactMatrix.block([
        [a[0] @ b[0] + a[1] @ b[2], a[0] @ b[1] + a[1] @ b[3]],
        [a[2] @ b[0] + a[3] @ b[2], a[2] @ b[1] + a[3] @ b[3]],
    ])
    assert C == A @ B


def test_map_entries():
    F = PrimeField(5)
    A = ExactMatrix(QQ, [[1, 7], [3, 4]])
    B = A.map_entries(lambda e: F.element(int(e)), F)
    assert B.field == F and B[0, 1] == F.element(2)


def test_solve_over_mq_tower():
    L = mq_field((2,))
    a = L.alpha(1)
    A = ExactMatrix(L, [[a, 1], [1, a]])
    # det = a^2 - 1 = 1, invertible
    x = A.solve([L.one, L.zero])
    assert x[0] * a + x[1] == L.one
    assert x[0] + x[1] * a == L.zero


def test_serialization_roundtrip():
    from rankfold.linalg import ExactMatrix as EM

    L = mq_field((2, 3))
    A = ExactMatrix(L, [[L.alpha(1), 1], [Fraction(1, 2), L.alpha(2)]])
    assert EM.from_json(A.to_json()) == A
    F = PrimeField(23)
    B = ExactMatrix(F, [[1, 22], [0, 5]])
    assert EM.from_json(B.to_json()) == B


# -- matrices without rows or columns keep their shape ---------------------------

GF5 = PrimeField(5)


def test_zeros_without_rows_keeps_its_width():
    Z = ExactMatrix.zeros(GF5, 0, 3)
    assert Z.shape == (0, 3)
    assert Z.transpose().shape == (3, 0)
    assert Z.transpose().transpose() == Z
    assert (Z + Z).shape == (-Z).shape == Z.scale(2).shape == Z.vstack(Z).shape == (0, 3)
    assert Z != ExactMatrix.zeros(GF5, 0, 2)


def test_product_over_an_empty_inner_dimension_is_zero():
    P = ExactMatrix.zeros(GF5, 2, 0) @ ExactMatrix.zeros(GF5, 0, 3)
    assert P == ExactMatrix.zeros(GF5, 2, 3)
    assert (ExactMatrix.zeros(GF5, 0, 2) @ ExactMatrix.zeros(GF5, 2, 3)).shape == (0, 3)


def test_row_space_of_a_zero_matrix_has_its_width():
    Z = ExactMatrix.zeros(GF5, 4, 4)
    assert Z.row_space_basis().shape == (0, 4)
    R, pivots, rank = ExactMatrix.zeros(GF5, 0, 4).rref()
    assert (R.shape, pivots, rank) == ((0, 4), (), 0)
    assert Z.row_space_basis().row_space_basis().shape == (0, 4)


def test_json_record_without_rows():
    Z = ExactMatrix.from_json({"rows": 0, "cols": 3, "entries": []}, GF5)
    assert Z == ExactMatrix.zeros(GF5, 0, 3)
    assert ExactMatrix.from_json(Z.to_json()) == Z
    for cols in (-1, "3", None):
        with pytest.raises(DimensionMismatch):
            ExactMatrix.from_json({"rows": 0, "cols": cols, "entries": []}, GF5)
    with pytest.raises(DimensionMismatch):
        ExactMatrix.from_json({"rows": 1, "cols": 3, "entries": [[1, 2]]}, GF5)


@pytest.mark.parametrize("rank", [-1, 4])
def test_random_rank_matrix_refuses_an_impossible_rank(rank):
    with pytest.raises(DimensionMismatch):
        random_rank_matrix(PrimeField(5), SplitMix64(1), 3, 3, rank)


# GF(p) on both sides of the int64 bounds (the product reduces entry products
# before summing from inner dimension 3 at 2^31 - 1 and 2 at 3037000493, and
# 3037000507 holds no array), GF(p^2) within the bound and at 2147483659
# beyond it, and GF(p^m)
ARRAY_FIELDS = [PrimeField(p) for p in (3, 23, 2147483647, 3037000493, 3037000507)] + [
    QuadExtField(23, 5), QuadExtField(2147483647), QuadExtField(2147483659), ExtField(23, 8), ExtField(2, 5)]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_prime_field_arrays_agree_with_entrywise_arithmetic(data):
    """A matrix over GF(p), GF(p^2) or GF(p^m) holds a (rows, cols, m) int64
    array exactly when m (p-1)^2 < 2^63, and every operation agrees with
    the field's own element arithmetic and with gauss_jordan."""
    F = data.draw(st.sampled_from(ARRAY_FIELDS), label="field")
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    element = st.lists(st.integers(0, F.p - 1), min_size=F.degree, max_size=F.degree).map(F._from_coeffs)

    def elements(rows, cols):
        return data.draw(st.lists(st.lists(element, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    a, b, g = elements(r, k), elements(r, k), elements(k, c)
    A, B, G = (ExactMatrix(F, x, cols=w) for x, w in ((a, k), (b, k), (g, c)))
    assert (A.array is None) == (F.degree * (F.p - 1) ** 2 >= 2 ** 63)
    assert A.array is None or A.array.shape == (r, k, F.degree)
    s = data.draw(element)

    def rows(M):
        return [list(row) for row in M.entries]

    assert rows(A + B) == [[x + y for x, y in zip(u, v)] for u, v in zip(a, b)]
    assert rows(A - B) == [[x - y for x, y in zip(u, v)] for u, v in zip(a, b)]
    assert rows(-A) == [[-x for x in u] for u in a]
    assert rows(A.scale(s)) == [[s * x for x in u] for u in a]
    assert (A @ G).shape == (r, c)
    assert rows(A @ G) == [[sum((u[i] * g[i][j] for i in range(k)), F.zero) for j in range(c)] for u in a]
    assert rows(A.transpose()) == [[a[i][j] for i in range(r)] for j in range(k)]
    assert (A == B) == (a == b) and A == ExactMatrix(F, a, cols=k)
    i, j = data.draw(st.integers(0, r)), data.draw(st.integers(0, k))
    tl, tr, bl, br = A.split_blocks(i, j)
    assert [M.shape for M in (tl, tr, bl, br)] == [(i, j), (i, k - j), (r - i, j), (r - i, k - j)]
    assert ExactMatrix.block([[tl, tr], [bl, br]]) == A == tl.hstack(tr).vstack(bl.hstack(br))
    R, pivots, rank = A.rref()
    assert (R.entries, pivots) == gauss_jordan(F, A.entries) and rank == len(pivots)
    assert A.row_space_basis().shape == (rank, k)
    if A.array is not None and r and k:
        with pytest.raises(ValueError):
            A.array[0, 0] = 1


# -- matrices over Q, the height-0 tower: one integer array over one denominator ----

Q = mq_field(())


def _assert_canonical(M):
    """M holds a read-only (rows, cols) object array of Python ints over a
    positive int den, with gcd(den, *array) = 1 (so den = 1 for zero)."""
    A, den = M.array, M.den
    assert A.dtype == object and A.shape == M.shape and not A.flags.writeable
    assert all(type(u) is int for u in A.flat) and type(den) is int and den > 0
    assert gcd(den, *A.flat) == 1


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_q_arrays_agree_with_entrywise_arithmetic(data):
    """Every operation on Q's arrays equals the same operation done entry by
    entry on MQElements (and rref equals gauss_jordan), on shapes with no
    rows or no columns, with distinct or shared denominators, negative
    entries and entries past 2^63, and every result is canonical."""
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    numerators = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))

    def elements(rows, cols):
        if data.draw(st.booleans(), label="shared denominator"):
            dens = st.just(data.draw(st.sampled_from([1, 6, 2 ** 64 + 13])))
        else:
            dens = st.integers(1, 12)
        return [[Q.scalar(Fraction(data.draw(numerators), data.draw(dens))) for _ in range(cols)]
                for _ in range(rows)]

    a, b, g = elements(r, k), elements(r, k), elements(k, c)
    A, B, G = (ExactMatrix(Q, x, cols=w) for x, w in ((a, k), (b, k), (g, c)))
    s = data.draw(st.sampled_from([0, -1, Fraction(-3, 7), Fraction(2 ** 65 + 1, 3)]), label="scale")

    def rows(M):
        _assert_canonical(M)
        return [list(row) for row in M.entries]

    assert rows(A) == a and rows(ExactMatrix.zeros(Q, r, k)) == [[Q.zero] * k for _ in range(r)]
    assert rows(A + B) == [[x + y for x, y in zip(u, v)] for u, v in zip(a, b)]
    assert rows(A - B) == [[x - y for x, y in zip(u, v)] for u, v in zip(a, b)]
    assert rows(-A) == [[-x for x in u] for u in a]
    assert rows(A.scale(s)) == [[x * s for x in u] for u in a]
    assert rows(A @ G) == [[sum((u[i] * g[i][j] for i in range(k)), Q.zero) for j in range(c)] for u in a]
    assert rows(A.transpose()) == [[a[i][j] for i in range(r)] for j in range(k)]
    assert (A == B) == (a == b) and A == ExactMatrix(Q, a, cols=k) and (A - A).is_zero()
    i, j = data.draw(st.integers(0, r)), data.draw(st.integers(0, k))
    blocks = A.split_blocks(i, j)
    assert [rows(M) for M in blocks] == [[u[:j] for u in a[:i]], [u[j:] for u in a[:i]],
                                         [u[:j] for u in a[i:]], [u[j:] for u in a[i:]]]
    tl, tr, bl, br = blocks
    assert rows(ExactMatrix.block([[tl, tr], [bl, br]])) == a
    assert rows(ExactMatrix.block([[A, B]])) == [u + v for u, v in zip(a, b)]
    R, pivots, rank = A.rref()
    assert (tuple(map(tuple, rows(R))), pivots) == gauss_jordan(Q, a) and rank == len(pivots)
    assert rows(A.row_space_basis()) == rows(R)[:rank]
    if r and k:
        with pytest.raises(ValueError):
            A.array[0, 0] = 1


def test_q_arrays_refuse_other_fields_and_shapes():
    # the errors of the element arithmetic: FieldMismatch between towers,
    # DimensionMismatch between shapes
    A, T = ExactMatrix(Q, [[1, 2], [3, 4]]), mq_field((2,))
    B = ExactMatrix(T, [[1, 2], [3, 4]])
    for op in (operator.add, operator.sub, operator.matmul, lambda X, Y: ExactMatrix.block([[X, Y]])):
        with pytest.raises(FieldMismatch):
            op(A, B)
        with pytest.raises(FieldMismatch):
            op(B, A)
    with pytest.raises(FieldMismatch):
        A.scale(T.alpha(1))
    assert A != B and A != ExactMatrix(Q, [[1, 2]])
    wide = ExactMatrix(Q, [[1, 2, 3]])
    for op in (operator.add, operator.sub, operator.matmul):
        with pytest.raises(DimensionMismatch):
            op(A, wide)
    with pytest.raises(DimensionMismatch):
        ExactMatrix.block([[A], [wide]])
