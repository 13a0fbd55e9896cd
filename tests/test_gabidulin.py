"""Gabidulin codes: linearized polynomials, decoding, matrix views."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankfold import DecodingFailure, SplitMix64
from rankfold.errors import DimensionMismatch, FieldMismatch, LengthMismatch, ParameterMismatch
from rankfold.gabidulin import (
    GabidulinCode,
    GabidulinMatrixCode,
    LinearizedPoly,
    annihilator,
    left_divide,
)
from rankfold.gf import (
    ExtField,
    PrimeField,
    QuadExtField,
    expand_to_base,
    reconstruct_from_base,
)
from rankfold.linalg import ExactMatrix

F238 = ExtField(23, 8)
F53 = ExtField(5, 3)


def rank_error(field, rng, t, rows, cols):
    """Random matrix of rank exactly t over a finite field."""
    p = field.p

    def rand():
        return field.element(rng.randint(0, p - 1))

    while True:
        X = ExactMatrix(field, [[rand() for _ in range(t)] for _ in range(rows)])
        Z = ExactMatrix(field, [[rand() for _ in range(cols)] for _ in range(t)], cols=cols)
        E = X @ Z
        if E.rank() == t:
            return E


def vector_error(code, rng, t):
    """Length-n error over GF(q^m) whose expansion has rank exactly t."""
    E = rank_error(code.field.base, rng, t, code.field.m, code.n)
    return reconstruct_from_base(code.field, E), E


def add(y, e):
    return [a + b for a, b in zip(y, e)]


# -- linearized polynomials ----------------------------------------------------


def test_poly_evaluation_is_base_linear():
    rng = SplitMix64(1)
    f = LinearizedPoly(F53, [F53.random_element(rng) for _ in range(3)])
    for _ in range(20):
        x = F53.random_element(rng)
        y = F53.random_element(rng)
        lam = rng.randint(0, 4)
        assert f(x + y) == f(x) + f(y)
        assert f(x * lam) == f(x) * lam


def test_poly_compose_matches_pointwise():
    rng = SplitMix64(2)
    f = LinearizedPoly(F53, [F53.random_element(rng) for _ in range(3)])
    g = LinearizedPoly(F53, [F53.random_element(rng) for _ in range(2)])
    h = f.compose(g)
    assert h.qdegree <= f.qdegree + g.qdegree
    for _ in range(20):
        x = F53.random_element(rng)
        assert h(x) == f(g(x))


def test_left_divide_inverts_compose():
    rng = SplitMix64(3)
    for _ in range(10):
        V = LinearizedPoly(F238, [F238.random_element(rng) for _ in range(3)])
        f = LinearizedPoly(F238, [F238.random_element(rng) for _ in range(4)])
        if V.qdegree < 0 or f.qdegree < 0:
            continue
        N = V.compose(f)
        quotient = left_divide(F238, F238.coeff_array(N.coeffs), F238.coeff_array(V.coeffs))
        assert LinearizedPoly(F238, F238.from_coeff_array(quotient)) == f


def test_left_divide_rejects_inexact():
    def divide(N, V):
        return left_divide(F53, F53.coeff_array(N), F53.coeff_array(V))

    with pytest.raises(ValueError, match="not exact"):
        divide([F53.one, F53.one, F53.one], [F53.zero, F53.one])
    with pytest.raises(ValueError, match="negative degree"):
        divide([F53.one], [F53.zero, F53.one])
    assert divide([F53.zero], [F53.zero, F53.one]).shape == (0, 3)
    with pytest.raises(ZeroDivisionError):
        divide([F53.zero, F53.zero, F53.one], [F53.zero])


def test_annihilator_kernel_is_exact():
    rng = SplitMix64(4)
    basis = F238.polynomial_basis()
    A = annihilator(F238, basis[:3])
    assert A.qdegree == 3
    # vanishes on the whole span
    for _ in range(20):
        v = sum(
            (b * rng.randint(0, 22) for b in basis[:3]),
            F238.zero,
        )
        assert not A(v)
    # and nowhere else: the kernel has size q^3, so a point with a nonzero
    # coordinate outside the span must survive
    for b in basis[3:]:
        assert A(b)


def test_annihilator_skips_dependent_vectors():
    basis = F238.polynomial_basis()
    A = annihilator(F238, [basis[0], basis[1], basis[0] + basis[1]])
    assert A.qdegree == 2


# -- code construction and encoding --------------------------------------------


def test_code_parameters():
    code = GabidulinCode(F238, 4)
    assert (code.n, code.k, code.d, code.radius) == (8, 4, 5, 2)
    assert code.points == tuple(F238.polynomial_basis())


def test_dependent_points_rejected():
    basis = F238.polynomial_basis()
    with pytest.raises(ValueError):
        GabidulinCode(F238, 2, points=[basis[0], basis[1], basis[0] + basis[1]])


def test_encode_known_polynomials():
    code = GabidulinCode(F53, 2)
    zero = code.encode([F53.zero, F53.zero])
    assert all(not v for v in zero)
    # f = x evaluates to the points themselves
    assert code.encode([F53.one, F53.zero]) == list(code.points)
    # f = x^q is an invertible base-linear map, so the codeword has full rank
    frob = code.encode([F53.zero, F53.one])
    assert frob == [F53.frobenius(g) for g in code.points]
    assert expand_to_base(F53, frob).rank() == 3


def test_encode_is_linear():
    rng = SplitMix64(5)
    code = GabidulinCode(F53, 2)
    a = code.random_message(rng)
    b = code.random_message(rng)
    lam = F53.random_element(rng)
    ca, cb = code.encode(a), code.encode(b)
    combo = code.encode([x * lam + y for x, y in zip(a, b)])
    assert combo == [x * lam + y for x, y in zip(ca, cb)]


def test_random_codewords_reach_minimum_rank():
    rng = SplitMix64(6)
    code = GabidulinCode(F53, 2)
    for _ in range(200):
        msg = code.random_message(rng)
        if all(not v for v in msg):
            continue
        rank = expand_to_base(F53, code.encode(msg)).rank()
        assert rank >= code.d


def test_minimum_rank_codeword():
    for field, k in ((F238, 4), (F238, 6), (F53, 2)):
        code = GabidulinCode(field, k)
        w = code.minimum_rank_codeword()
        assert expand_to_base(field, w).rank() == code.d


def test_parity_check_annihilates_code():
    rng = SplitMix64(7)
    code = GabidulinCode(F238, 6)
    H = code.parity_check_matrix()
    assert H.rows == code.n - code.k
    assert H.rank() == code.n - code.k
    for _ in range(5):
        c = code.encode(code.random_message(rng))
        assert all(
            not sum((h * v for h, v in zip(row, c)), F238.zero)
            for row in H.rows_list()
        )


# -- error decoding -------------------------------------------------------------


def test_decode_error_free():
    rng = SplitMix64(8)
    code = GabidulinCode(F238, 4)
    c = code.encode(code.random_message(rng))
    chat, ehat = code.decode_errors(c)
    assert chat == c and all(not v for v in ehat)


def test_decode_roundtrip_half_distance():
    rng = SplitMix64(9)
    for k in (4, 6):
        code = GabidulinCode(F238, k)
        for _ in range(5):
            c = code.encode(code.random_message(rng))
            e, _ = vector_error(code, rng, code.radius)
            chat, ehat = code.decode_errors(add(c, e))
            assert chat == c
            assert ehat == e


def test_decode_never_lies_beyond_radius():
    rng = SplitMix64(10)
    code = GabidulinCode(F238, 4)
    for _ in range(5):
        c = code.encode(code.random_message(rng))
        e, _ = vector_error(code, rng, code.n - code.k)
        y = add(c, e)
        try:
            chat, ehat = code.decode_errors(y)
        except DecodingFailure:
            continue
        # any answer must still be a codeword within the claimed radius
        diff = [a - b for a, b in zip(y, chat)]
        assert expand_to_base(F238, diff).rank() <= code.radius


def test_interpolation_pair_consistency():
    rng = SplitMix64(11)
    code = GabidulinCode(F238, 4)
    c = code.encode(code.random_message(rng))
    e, _ = vector_error(code, rng, 2)
    y = add(c, e)
    V, N = (LinearizedPoly(F238, F238.from_coeff_array(X)) for X in code._interpolate(F238.coeff_array(y), 2))
    assert V.qdegree >= 0
    for gi, yi in zip(code.points, y):
        assert V(yi) == N(gi)


@pytest.mark.parametrize("field, k", [(F53, 0), (F53, 2), (F238, 4), (F238, 6)])
def test_reduced_moore_block_is_its_rref(field, k):
    """P M = RREF(M) for the Moore block M of every t, P invertible."""
    code = GabidulinCode(field, k)
    for t in range(code.n + 1):
        P, pivots = code._reduce_moore(t)
        M = ExactMatrix(field, [field.from_coeff_array(row) for row in code._moore[:, np.arange(t + k) % field.m]],
                        cols=t + k)
        P = ExactMatrix(field, [field.from_coeff_array(row) for row in P])
        R, want, _ = M.rref()
        assert P @ M == R and pivots == want and P.rank() == code.n


def is_codeword(code, c):
    return (code.parity_check_matrix() @ ExactMatrix.column(code.field, c)).is_zero()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_decode_at_any_radius_is_sound(data):
    """At every t in 0..n, also above the radius and with t + k > n, a
    decode raises DecodingFailure or returns (c, e) with c + e = y, c a
    codeword and rank e <= t."""
    k = data.draw(st.integers(0, 8), label="k")
    t = data.draw(st.integers(0, 8), label="t")
    code = GabidulinCode(F238, k)
    rng = SplitMix64(data.draw(st.integers(0, 2 ** 64 - 1), label="seed"))
    if data.draw(st.booleans(), label="near the code"):
        e, _ = vector_error(code, rng, data.draw(st.integers(0, 8), label="error rank"))
        y = add(code.encode(code.random_message(rng)), e)
    else:
        y = [F238.random_element(rng) for _ in range(code.n)]
    try:
        c, e = code.decode_errors(y, t)
    except DecodingFailure:
        return
    assert add(c, e) == y and is_codeword(code, c)
    assert expand_to_base(F238, e).rank() <= t


def test_clean_codeword_decodes_to_itself_at_every_radius():
    code = GabidulinCode(F238, 6)
    c = code.encode(code.random_message(SplitMix64(25)))
    for t in range(code.n + 1):
        assert code.decode_errors(c, t) == (c, [F238.zero] * code.n)
    assert len(code._moore_reduced) == code.n + 1
    code.decode_errors(c, 3 * code.n)
    assert len(code._moore_reduced) == code.n + 1


def test_planted_error_within_the_radius_decodes():
    rng = SplitMix64(26)
    for k in (2, 3, 4):
        code = GabidulinCode(F238, k)
        for rank in range(code.radius + 1):
            c = code.encode(code.random_message(rng))
            e, _ = vector_error(code, rng, rank)
            assert code.decode_errors(add(c, e)) == (c, e)


def test_negative_radius_is_refused():
    code = GabidulinCode(F53, 1)
    with pytest.raises(ParameterMismatch):
        code.decode_errors(code.encode([F53.one]), -1)


def test_left_divide_inverts_only_a_leading_coefficient_that_is_not_one(monkeypatch):
    calls = []
    inverse = ExtField._inverse_coeffs
    monkeypatch.setattr(ExtField, "_inverse_coeffs", lambda self, c: calls.append(c) or inverse(self, c))
    rng = SplitMix64(27)
    f = LinearizedPoly(F238, [F238.random_element(rng) for _ in range(3)])
    for lead, inverses in ((F238.one, 0), (F238.x, 1)):
        V = LinearizedPoly(F238, [F238.random_element(rng), lead])
        calls.clear()
        quotient = left_divide(F238, F238.coeff_array(V.compose(f).coeffs), F238.coeff_array(V.coeffs))
        assert LinearizedPoly(F238, F238.from_coeff_array(quotient)) == f and len(calls) == inverses
    # a decode inverts only in the reduced system of n - t - k rows; its
    # monic V needs no inverse to divide
    code = GabidulinCode(F238, 4)
    c = code.encode(code.random_message(rng))
    e, _ = vector_error(code, rng, code.radius)
    code.decode_errors(add(c, e))  # reduces the Moore block once
    calls.clear()
    assert code.decode_errors(add(c, e))[0] == c
    assert len(calls) <= code.n - code.radius - code.k


# -- erasure decoding ------------------------------------------------------------


def test_erasure_decode_up_to_d_minus_one():
    rng = SplitMix64(12)
    code = GabidulinCode(F238, 4)
    for t in (1, code.n - code.k):
        c = code.encode(code.random_message(rng))
        e, E = vector_error(code, rng, t)
        chat = code.decode_erasures(add(c, e), E.row_space_basis())
        assert chat == c


def test_erasure_decode_empty_support():
    rng = SplitMix64(13)
    code = GabidulinCode(F238, 4)
    c = code.encode(code.random_message(rng))
    empty = ExactMatrix(PrimeField(23), ())
    assert code.decode_erasures(c, empty) == c
    noisy = list(c)
    noisy[0] = noisy[0] + F238.one
    with pytest.raises(DecodingFailure):
        code.decode_erasures(noisy, empty)


def test_erasure_support_containing_codeword_fails():
    rng = SplitMix64(14)
    code = GabidulinCode(F238, 4)
    w = code.minimum_rank_codeword()
    support = expand_to_base(F238, w).row_space_basis()
    assert support.rows == code.d
    c = code.encode(code.random_message(rng))
    e, _ = vector_error(code, rng, 1)
    with pytest.raises(DecodingFailure):
        code.decode_erasures(add(c, e), support)


def test_erasure_support_must_be_over_the_prime_field():
    rng = SplitMix64(24)
    code = GabidulinCode(F53, 2)
    c = code.encode(code.random_message(rng))
    # a support over GF(q^m) would be solved as a GF(q^m)-span
    for field in (F53, PrimeField(7)):
        for support in (ExactMatrix(field, [[1, 0, 0]]), ExactMatrix(field, (), cols=3)):
            with pytest.raises(FieldMismatch):
                code.decode_erasures(c, support)
    assert code.decode_erasures(c, ExactMatrix(PrimeField(5), [[1, 0, 0]])) == c


# -- matrix view ------------------------------------------------------------------


def test_matrix_code_roundtrip():
    rng = SplitMix64(15)
    code = GabidulinCode(F238, 4)
    mc = GabidulinMatrixCode(code)
    assert (mc.rows, mc.cols, mc.dim) == (8, 8, 32)
    Y = mc.random_codeword(rng)
    E = rank_error(PrimeField(23), rng, 2, 8, 8)
    C, Ehat = mc.decode(Y + E)
    assert C == Y and Ehat == E
    assert mc.decode_erasures(Y + E, E.row_space_basis()) == Y


def test_matrix_basis_codewords_span():
    code = GabidulinCode(F53, 2)
    mc = GabidulinMatrixCode(code)
    gens = mc.basis_codewords()
    assert len(gens) == mc.dim
    flat = ExactMatrix(
        PrimeField(5),
        [[B.entries[i][j] for i in range(mc.rows) for j in range(mc.cols)] for B in gens],
    )
    assert flat.rank() == mc.dim


def test_matrix_code_default_basis_runs_no_rref(monkeypatch):
    # the default polynomial basis is the identity, so expanding a word
    # inverts nothing, and gives what the explicit basis gives
    rng = SplitMix64(15)
    code = GabidulinCode(F53, 2)
    vec = code.encode(code.random_message(rng))
    expected = expand_to_base(F53, vec, F53.polynomial_basis())
    mc = GabidulinMatrixCode(code)

    def forbidden(self):
        raise AssertionError("rref called for the default basis")

    monkeypatch.setattr(ExactMatrix, "rref", forbidden)
    Y = mc.to_matrix(vec)
    assert Y == expected
    assert mc.to_vector(Y) == vec


def test_matrix_code_custom_basis():
    rng = SplitMix64(16)
    code = GabidulinCode(F53, 2)
    basis = [b * 2 for b in F53.polynomial_basis()]
    mc = GabidulinMatrixCode(code, basis=basis)
    msg = code.random_message(rng)
    Y = mc.encode(msg)
    assert mc.to_vector(Y) == code.encode(msg)


def random_basis(field, rng):
    while True:
        basis = [field.random_element(rng) for _ in range(field.m)]
        if expand_to_base(field, basis).rank() == field.m:
            return basis


@pytest.mark.parametrize("field", [F53, F238], ids=["GF(5^3)", "GF(23^8)"])
def test_matrix_code_random_basis_is_inverted_once(field, monkeypatch):
    rng = SplitMix64(22)
    basis = random_basis(field, rng)
    mc = GabidulinMatrixCode(GabidulinCode(field, 2), basis=basis)
    calls = []
    rref = ExactMatrix.rref

    def spy(self):
        calls.append(self.shape)
        return rref(self)

    monkeypatch.setattr(ExactMatrix, "rref", spy)
    vectors = [[field.random_element(rng) for _ in range(mc.cols)] for _ in range(10)]
    matrices = [mc.to_matrix(v) for v in vectors]
    assert len(calls) == 1
    monkeypatch.setattr(ExactMatrix, "rref", rref)
    for v, M in zip(vectors, matrices):
        assert M == expand_to_base(field, v, basis)
        assert mc.to_vector(M) == v


def outcome(call):
    """("ok", result) or ("failure", reason) of a decoder call."""
    try:
        return "ok", call()
    except DecodingFailure as exc:
        return "failure", str(exc)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_code_runs_the_vector_code_on_expansions(data):
    """encode, decode and decode_erasures of a matrix code, which run on the
    expansion's array, equal the vector code's results put through
    to_matrix, failures and their reasons included, in the polynomial
    basis and in a random one, within and beyond the radius."""
    field = data.draw(st.sampled_from([F53, F238]), label="field")
    code = GabidulinCode(field, data.draw(st.integers(0, field.m), label="k"))
    rng = SplitMix64(data.draw(st.integers(0, 2 ** 64 - 1), label="seed"))
    mc = GabidulinMatrixCode(code, random_basis(field, rng) if data.draw(st.booleans(), label="basis") else None)
    msg = code.random_message(rng)
    assert mc.encode(msg) == mc.to_matrix(code.encode(msg))
    E = rank_error(field.base, rng, data.draw(st.integers(0, code.n), label="error rank"), field.m, code.n)
    Y = mc.encode(msg) + E
    y = mc.to_vector(Y)
    assert expand_to_base(field, y, mc.basis) == Y
    t = data.draw(st.integers(0, code.n), label="t")
    assert outcome(lambda: mc.decode(Y, t)) == outcome(lambda: tuple(map(mc.to_matrix, code.decode_errors(y, t))))
    extra = data.draw(st.integers(0, 2), label="extra support rows")
    support = ExactMatrix.block([[E.row_space_basis()], [rank_error(field.base, rng, extra, extra, code.n)]])
    assert outcome(lambda: mc.decode_erasures(Y, support)) == outcome(
        lambda: mc.to_matrix(code.decode_erasures(y, support)))


def test_code_refuses_fields_beyond_the_int64_rule():
    # 2147483659 is the first prime with 2 (p-1)^2 >= 2^63; x^2 + 1 is irreducible mod it
    F = ExtField(2147483659, 2)
    assert F.modulus == (1, 0, 1)
    with pytest.raises(ParameterMismatch):
        GabidulinCode(F, 1)
    # the prime below it, 2^31 - 1, is within the rule: the array path there
    # agrees with the element path
    F = ExtField(2147483647, 2)
    rng = SplitMix64(23)
    code = GabidulinCode(F, 1)
    msg = code.random_message(rng)
    c = code.encode(msg)
    assert c == [LinearizedPoly(F, msg)(g) for g in code.points]
    assert code.decode_errors(c) == (c, [F.zero] * code.n)
    for field, k in ((F238, 4), (F53, 2)):
        assert GabidulinCode(field, k).n == field.m


def test_element_path_stays_exact_beyond_the_int64_rule():
    # 2^64 + 13 is prime: residues no longer fit int64, but the element
    # methods work on Python ints and need no array
    p = 2**64 + 13
    F = ExtField(p, 2)
    x, y = F.x + 3, F.x * 5 + 7
    assert F.frobenius(x) == x ** p
    assert F.frobenius(x, 2) == x
    L = LinearizedPoly(F, [y, x])
    assert L(x) == y * x + x * x ** p
    M = LinearizedPoly(F, [x, F.one])
    assert L.compose(M)(y) == L(M(y))


def test_matrix_decoders_refuse_a_foreign_prime_field():
    code = GabidulinCode(F53, 2)
    foreign = ExactMatrix(PrimeField(7), [[1, 2, 3], [4, 5, 6], [0, 1, 0]])
    for mc in (GabidulinMatrixCode(code), GabidulinMatrixCode(code, basis=[b * 2 for b in F53.polynomial_basis()])):
        with pytest.raises(FieldMismatch):
            mc.to_vector(foreign)
        with pytest.raises(FieldMismatch):
            mc.decode(foreign)
        with pytest.raises(FieldMismatch):
            mc.decode_erasures(foreign, ExactMatrix(PrimeField(5), [[1, 0, 0]]))


def test_matrix_code_refuses_a_word_of_the_wrong_length_in_every_basis():
    code = GabidulinCode(F53, 2)
    short, wide = F53.polynomial_basis()[:2], ExactMatrix.zeros(F53.base, 3, 4)
    for mc in (GabidulinMatrixCode(code), GabidulinMatrixCode(code, basis=[b * 2 for b in F53.polynomial_basis()])):
        for call in (lambda: mc.to_matrix(short), lambda: mc.to_vector(wide), lambda: mc.decode(wide),
                     lambda: mc.decode_erasures(wide, ExactMatrix.zeros(F53.base, 0, 3))):
            with pytest.raises(LengthMismatch):
                call()


# -- quadratic-extension decoders --------------------------------------------------


def embed_ext(M, ext):
    return M.map_entries(lambda e: ext.coerce(e.val), ext)


def ext_codeword(mc, ext, rng):
    A = embed_ext(mc.random_codeword(rng), ext)
    B = embed_ext(mc.random_codeword(rng), ext)
    return A + B.scale(ext.sqrt_nonresidue)


def test_ext_decode_within_half_radius():
    rng = SplitMix64(17)
    ext = QuadExtField(PrimeField(23))
    mc = GabidulinMatrixCode(GabidulinCode(F238, 4))
    for _ in range(3):
        C = ext_codeword(mc, ext, rng)
        E = rank_error(ext, rng, 1, 8, 8)
        assert mc.decode_ext(C + E, 1) == (C, E)


def test_ext_decode_rejects_wrong_component():
    rng = SplitMix64(18)
    ext = QuadExtField(PrimeField(23))
    mc = GabidulinMatrixCode(GabidulinCode(F238, 4))
    C = ext_codeword(mc, ext, rng)
    # rank 3 over the extension: components can reach rank 6 > radius 2
    E = rank_error(ext, rng, 3, 8, 8)
    with pytest.raises(DecodingFailure):
        mc.decode_ext(C + E, 1)


def test_ext_erasure_roundtrip():
    rng = SplitMix64(19)
    ext = QuadExtField(PrimeField(23))
    mc = GabidulinMatrixCode(GabidulinCode(F238, 4))
    C = ext_codeword(mc, ext, rng)
    E = rank_error(ext, rng, 2, 8, 8)
    assert mc.decode_erasures_ext(C + E, E.row_space_basis()) == C
    # a support of rank 2 that misses the error: rank(E - A R) <= 4 < d, so
    # no codeword absorbs the difference and the system is inconsistent
    other = rank_error(ext, rng, 2, 8, 8).row_space_basis()
    assert ExactMatrix.block([[other], [E.row_space_basis()]]).rank() > 2
    with pytest.raises(DecodingFailure, match="inconsistent"):
        mc.decode_erasures_ext(C + E, other)
    with pytest.raises(DimensionMismatch):
        mc.decode_erasures_ext((C + E).hstack(ExactMatrix.identity(ext, 8)), other)


def test_ext_erasure_agrees_with_base_erasure_on_base_errors():
    rng = SplitMix64(21)
    ext = QuadExtField(PrimeField(23))
    mc = GabidulinMatrixCode(GabidulinCode(F238, 4))
    for t in (1, 4):
        C = mc.random_codeword(rng)
        E = rank_error(PrimeField(23), rng, t, 8, 8)
        support = E.row_space_basis()
        base = mc.decode_erasures(C + E, support)
        assert base == C
        assert mc.decode_erasures_ext(embed_ext(C + E, ext), embed_ext(support, ext)) == embed_ext(base, ext)


def test_ext_erasure_support_field_contract():
    """decode_erasures_ext takes a support over the base field or over the
    word's field, and an empty support of width 0; a support over any
    other field raises FieldMismatch."""
    rng = SplitMix64(22)
    base = PrimeField(23)
    ext = QuadExtField(base)
    mc = GabidulinMatrixCode(GabidulinCode(F238, 4))
    C = ext_codeword(mc, ext, rng)
    E = rank_error(base, rng, 2, 8, 8)
    support = E.row_space_basis()
    Y = C + embed_ext(E, ext)
    assert mc.decode_erasures_ext(Y, support) == C == mc.decode_erasures_ext(Y, embed_ext(support, ext))
    for word, foreign in ((Y, ExactMatrix(PrimeField(7), [[1] * 8])),
                          (Y, ExactMatrix(QuadExtField(base, 7), [[1] * 8])),
                          (Y, ExactMatrix(F238, [[1] * 8])),
                          (mc.random_codeword(rng), embed_ext(support, ext))):
        with pytest.raises(FieldMismatch):
            mc.decode_erasures_ext(word, foreign)
    empty = ExactMatrix(base, ())
    for word in (C, mc.random_codeword(rng)):
        assert mc.decode_erasures_ext(word, empty) == word
    with pytest.raises(DecodingFailure, match="empty erasure support"):
        mc.decode_erasures_ext(Y, empty)


def test_ext_erasure_ambiguous_support_fails():
    rng = SplitMix64(20)
    ext = QuadExtField(PrimeField(23))
    code = GabidulinCode(F238, 4)
    mc = GabidulinMatrixCode(code)
    W = embed_ext(expand_to_base(F238, code.minimum_rank_codeword()), ext)
    support = W.row_space_basis()
    C = ext_codeword(mc, ext, rng)
    E = rank_error(ext, rng, 1, 8, 8)
    with pytest.raises(DecodingFailure, match="hides a codeword"):
        mc.decode_erasures_ext(C + E.scale(0), ExactMatrix.block([[support], [E.row_space_basis()]]))


# -- serialization -----------------------------------------------------------------


def test_descriptor_roundtrip():
    code = GabidulinCode(F238, 4)
    data = code.to_json()
    assert data["q"] == 23 and data["m"] == 8 and data["k"] == 4
    assert len(data["g"]) == 8
    points = [F238.element_from_json(g) for g in data["g"]]
    assert points == list(code.points)
