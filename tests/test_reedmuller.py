"""Rank Reed-Muller codes: structure, syndromes, folding, decoding."""

from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankfold import DecodingFailure, NoSolution, NotUnique, SplitMix64, modmat, mq_field, reedmuller
from rankfold.linalg import ExactMatrix, solve_erasures
from rankfold.modmat import batch_rank_mod
from rankfold.exactfield import MultiquadraticField, integer_coords
from rankfold.reedmuller import RMCode, ThetaPolynomial

PRIMES = (2, 3, 5, 7, 11)


def tower(m):
    return mq_field(PRIMES[:m])


def codes_with_bases(max_m):
    """Every order on towers of height 1..max_m, at base heights 0, 1 and 2,
    the tower rotated by _descend as the decoder rotates it."""
    for height in range(1, max_m + 1):
        code = RMCode(tower(height), 0)
        for h in range(min(2, height) + 1):
            for r in range(-1, height - h + 1):
                yield RMCode(code.field, r, h)
            if code.m:
                code = code._descend(0)


# -- theta polynomials ---------------------------------------------------------


def test_theta_matrix_frozen_values():
    K = mq_field((2,))
    code = RMCode(K, 1)
    ident = ThetaPolynomial(K, {0: K.one})
    assert code.theta_matrix(ident) == ExactMatrix.identity(code.base_field, 2)
    # multiplication by sqrt2 swaps the basis and scales: [[0,2],[1,0]]
    mul = ThetaPolynomial(K, {0: K.alpha(1)})
    assert code.theta_matrix(mul) == ExactMatrix(code.base_field, [[0, 2], [1, 0]])
    flip = ThetaPolynomial(K, {1: K.one})
    assert code.theta_matrix(flip) == ExactMatrix(code.base_field, [[1, 0], [0, -1]])


def test_apply_is_linear_and_matches_matrix():
    L = tower(2)
    rng = SplitMix64(31)
    code = RMCode(L, 2)
    for _ in range(20):
        F = ThetaPolynomial(L, {g: L.random_element(rng, 5) for g in range(4)})
        x = L.random_element(rng, 9)
        y = L.random_element(rng, 9)
        assert F(x + y) == F(x) + F(y)
        assert F(x.scale(Fraction(3, 7))) == F(x).scale(Fraction(3, 7))
        # the matrix acts on coordinate columns exactly as F acts on elements
        M = code.theta_matrix(F)
        col = ExactMatrix.column(code.base_field, x.blocks_over(0))
        assert (M @ col).col(0) == tuple(F(x).blocks_over(0))
    # on base heights 1 and 2 too, with flips of base directions (which fix
    # the code's basis monomials): column j is F at b_j, evaluated term by term
    for code in codes_with_bases(5):
        L, h = code.field, code.base_height
        masks = {rng.randint(0, L.dim - 1) for _ in range(4)} | {L.dim - 1}
        F = ThetaPolynomial(L, {mask: L.random_element(rng, 5) for mask in masks})
        evals = [F(L.basis_element(j << h)) for j in range(code.size)]
        assert code.theta_matrix(F) == code.matrix_from_vector(evals)


def test_compose_is_matrix_product():
    L = tower(2)
    rng = SplitMix64(32)
    code = RMCode(L, 2)
    for _ in range(15):
        F = ThetaPolynomial(L, {g: L.random_element(rng, 5) for g in range(4)})
        G = ThetaPolynomial(L, {g: L.random_element(rng, 5) for g in range(4)})
        assert code.theta_matrix(F.compose(G)) == code.theta_matrix(F) @ code.theta_matrix(G)


def test_theta_degree():
    L = tower(3)
    assert ThetaPolynomial(L, {}).theta_degree() == -1
    assert ThetaPolynomial(L, {0: L.one}).theta_degree() == 0
    assert ThetaPolynomial(L, {0b101: L.one, 0b1: L.one}).theta_degree() == 2
    assert ThetaPolynomial(L, {0b11: L.zero}).theta_degree() == -1  # zero coeffs drop


def test_theta_polynomial_checks_every_mask():
    L = tower(3)
    for c in (0, L.zero, 1, L.one):
        with pytest.raises(ValueError, match="exponent mask 99 out of range"):
            ThetaPolynomial(L, {99: c})
        with pytest.raises(ValueError, match="exponent mask -1 out of range"):
            ThetaPolynomial(L, {-1: c})


# -- code structure -----------------------------------------------------------


def test_dimensions_and_duality_small():
    for m in range(0, 5):
        L = tower(m)
        for r in range(-1, m + 1):
            code = RMCode(L, r)
            G = code.generator_matrix()
            H = code.parity_check_matrix()
            assert code.dim == sum(comb(m, i) for i in range(r + 1)) if r >= 0 else code.dim == 0
            assert G.shape == (code.dim, code.size)
            assert H.shape == (code.size - code.dim, code.size)
            if G.rows:
                assert G.rank() == G.rows
            if H.rows:
                assert H.rank() == H.rows
            assert (G @ H.transpose()) == ExactMatrix.zeros(L, G.rows, H.rows)


def test_exponent_order():
    code = RMCode(tower(3), 1)
    assert code.exponents() == [0, 1, 2, 4]
    assert RMCode(tower(3), 2).exponents() == [0, 1, 2, 3, 4, 5, 6]


def test_parity_rows_nest_with_order():
    # the dual of a bigger code is contained in the dual of a smaller one
    L = tower(3)
    rows_by_r = {r: set(RMCode(L, r).parity_check_matrix().entries) for r in range(0, 3)}
    assert rows_by_r[2] <= rows_by_r[1] <= rows_by_r[0]


def test_encode_block_structure():
    # splitting the message along the last tower direction must reproduce
    # the 2x2 block assembly of the codeword
    rng = SplitMix64(40)
    for m, r in [(2, 1), (3, 1), (3, 2)]:
        L = tower(m)
        sub = tower(m - 1)
        code = RMCode(L, r)
        top = RMCode(sub, min(r, m - 1))
        bot = RMCode(sub, r - 1)
        a = L.gens[-1]
        msg = code.random_message(rng, 7)
        Y = code.encode(msg)
        # regroup coefficients: masks without the top direction give the
        # A-part, masks with it give the B-part; each coefficient splits
        # into its subtower halves.
        A0, A1, B0, B1 = {}, {}, {}, {}
        topbit = 1 << (m - 1)
        for mask, c in zip(code.exponents(), msg):
            lo, hi = L.coerce(c).split()
            if mask & topbit:
                B0[mask ^ topbit], B1[mask ^ topbit] = lo, hi
            else:
                A0[mask], A1[mask] = lo, hi
        enc = lambda part, c: c.theta_matrix(ThetaPolynomial(sub, part))
        MA0, MA1 = enc(A0, top), enc(A1, top)
        MB0, MB1 = enc(B0, bot), enc(B1, bot)
        assembled = ExactMatrix.block([
            [MA0 + MB0, (MA1 - MB1).scale(a)],
            [MA1 + MB1, MA0 - MB0],
        ])
        assert Y == assembled


def test_single_monomial_codewords_are_invertible():
    rng = SplitMix64(41)
    L = tower(3)
    code = RMCode(L, 3)
    for mask in range(8):
        c = L.random_element(rng, 5) + 1
        F = ThetaPolynomial(L, {mask: c})
        assert code.theta_matrix(F).rank() == 8


def test_vector_matrix_roundtrip():
    L = tower(3)
    code = RMCode(L, 1)
    rng = SplitMix64(42)
    vec = [L.random_element(rng, 9) for _ in range(8)]
    M = code.matrix_from_vector(vec)
    assert M.shape == (8, 8)
    assert code.vector_from_matrix(M) == vec


# -- syndromes ----------------------------------------------------------------


def test_fast_syndrome_matches_naive():
    rng = SplitMix64(50)
    for code in codes_with_bases(5):
        L = code.field
        for _ in range(8 if L.m <= 4 else 2):
            y = [L.random_element(rng, 9) for _ in range(code.size)]
            assert code.fast_syndrome(y) == code.naive_syndrome(y)
        # the embedded parity checks are the exact ones, embedded entry by entry
        emb = L.sign_embedding(0)
        rows = code.parity_check_matrix().entries
        want = reedmuller._embed(emb, *integer_coords([e for row in rows for e in row]), (len(rows), code.size))
        assert np.array_equal(code._embedded_checks(emb), want)


def test_codeword_syndrome_is_zero():
    rng = SplitMix64(51)
    for m, r in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        code = RMCode(tower(m), r)
        vec = code.vector_from_matrix(code.encode(code.random_message(rng, 7)))
        assert not any(code.fast_syndrome(vec))
        # generator rows are codeword vectors too
        for row in code.generator_matrix().rows_list():
            assert not any(code.fast_syndrome(row))


def test_syndrome_accepts_base_field_vectors():
    code = RMCode(tower(2), 0)
    y = [1, 2, 3, Fraction(1, 2)]
    s1 = code.fast_syndrome(y)
    s2 = code.naive_syndrome(y)
    assert s1 == s2 and len(s1) == 3


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_integer_syndrome_body_equals_naive_syndrome(data):
    # every base height below the tower's, on PRIMES and ODD_TOWER towers;
    # coordinates of 2^48 pass the int64 bound as products, those of 2^80
    # as entries, and the body runs on Python ints
    gens = data.draw(st.sampled_from([PRIMES[:3], PRIMES[:4], ODD_TOWER]), label="tower")
    L = mq_field(gens)
    h = data.draw(st.integers(0, L.m - 1), label="base height")
    code = RMCode(L, data.draw(st.integers(-1, L.m - h), label="order"), h)
    size = data.draw(st.sampled_from([50, 2 ** 30, 2 ** 48, 2 ** 80]), label="coordinate bound")
    coords = [[Fraction(data.draw(st.integers(-size, size)), data.draw(st.integers(1, 9))) for _ in range(L.dim)]
              for _ in range(code.size)]
    coords[0][0] = Fraction(size)
    y = [L.element(c) for c in coords]
    _, ints = integer_coords(y)
    Z, _ = code._syndrome_ints(ints)
    F_max = reedmuller._syndrome_table(L, h)[2]
    assert Z.dtype == (np.int64 if code.size * max(map(abs, ints)) * F_max < 2 ** 63 else object)
    if size == 50:
        assert Z.dtype == np.int64
    if size == 2 ** 80:
        assert Z.dtype == object
    assert code.fast_syndrome(y) == code.naive_syndrome(y)


# -- folding ------------------------------------------------------------------


def test_fold_kills_the_top_order_part():
    # codewords built only from exponents without the last direction fold to 0
    rng = SplitMix64(60)
    for m, r in [(2, 1), (3, 1), (3, 2)]:
        L = tower(m)
        code = RMCode(L, r)
        topbit = 1 << (m - 1)
        coeffs = {
            mask: L.random_element(rng, 7)
            for mask in code.exponents()
            if not mask & topbit
        }
        Y = code.theta_matrix(ThetaPolynomial(L, coeffs))
        assert code.fold(Y).is_zero()


def test_fold_of_theta_m_is_scaled_identity():
    L = tower(3)
    code = RMCode(L, 1)
    Y = code.theta_matrix(ThetaPolynomial(L, {0b100: L.one}))
    folded = code.fold(Y)
    ext = folded.field
    two_over_alpha = ext.alpha(1).inverse().scale(2)
    assert folded == ExactMatrix.identity(ext, 4).scale(two_over_alpha)


def test_fold_never_increases_rank():
    rng = SplitMix64(61)
    for _ in range(500):
        m = 2 + rng.randint(0, 1)
        code = RMCode(tower(m), 0)
        t = rng.randint(1, code.size // 2)
        X = ExactMatrix(code.base_field, [[rng.randint(0, 9) for _ in range(t)] for _ in range(code.size)])
        Z = ExactMatrix(code.base_field, [[rng.randint(0, 9) for _ in range(code.size)] for _ in range(t)])
        E = X @ Z
        assert code.fold(E).rank() <= E.rank()


def test_fold_is_linear():
    rng = SplitMix64(62)
    code = RMCode(tower(3), 1)
    A = ExactMatrix(code.base_field, [[rng.randint(0, 9) for _ in range(8)] for _ in range(8)])
    B = ExactMatrix(code.base_field, [[rng.randint(0, 9) for _ in range(8)] for _ in range(8)])
    assert code.fold(A + B) == code.fold(A) + code.fold(B)


def test_subcode_rotates_the_tower():
    code = RMCode(tower(3), 1)
    sub = code.subcode()
    assert sub.field.gens == (Fraction(5), Fraction(2), Fraction(3))
    assert sub.base_height == 1 and sub.r == 0 and sub.m == 2
    subsub = sub.subcode()
    assert subsub.field.gens == (Fraction(5), Fraction(3), Fraction(2))
    assert subsub.base_height == 2


def test_block_rows_live_on_their_own_field():
    # generator and parity rows are kept per field instance, over that instance
    gens = PRIMES[:3]
    RMCode(mq_field(gens), 1).generator_matrix()
    apart = MultiquadraticField(gens)
    code = RMCode(apart, 1)
    for M in (code.generator_matrix(), code.parity_check_matrix()):
        assert all(e.field is apart for row in M.entries for e in row)
    assert code.generator_matrix() == RMCode(mq_field(gens), 1).generator_matrix()


# -- erasure decoding -----------------------------------------------------------


def _min_rank_codeword(code):
    # product of (1 + theta_i) over r directions projects onto the span of
    # the monomials avoiding those directions: rank exactly 2^(m-r)
    L = code.field
    F = ThetaPolynomial(L, {0: L.one})
    for i in range(code.r):
        F = F.compose(ThetaPolynomial(L, {0: L.one, 1 << i: L.one}))
    return code.theta_matrix(F)


def test_min_rank_codeword_meets_distance():
    for m, r in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]:
        code = RMCode(tower(m), r)
        w = _min_rank_codeword(code)
        assert w.rank() == code.min_rank
        assert not any(code.fast_syndrome(code.vector_from_matrix(w)))


def test_erasure_decode_trivial_support():
    rng = SplitMix64(70)
    code = RMCode(tower(3), 1)
    c = code.vector_from_matrix(code.encode(code.random_message(rng, 7)))
    empty = ExactMatrix(code.base_field, ())
    assert code.erasure_decode(c, empty) == c
    y_bad = list(c)
    y_bad[0] = y_bad[0] + 1
    with pytest.raises(DecodingFailure):
        code.erasure_decode(y_bad, empty)


def test_erasure_decode_constructed_instance():
    rng = SplitMix64(71)
    L = tower(3)
    code = RMCode(L, 1)
    for _ in range(10):
        c = code.vector_from_matrix(code.encode(code.random_message(rng, 7)))
        # t = 1 erasure: support is one known base-field row
        R = ExactMatrix(code.base_field, [[rng.randint(0, 9) for _ in range(8)]])
        x = L.random_element(rng, 9)
        y = [ci + x * rj.embed(L) for ci, rj in zip(c, R.rows_list()[0])]
        assert code.erasure_decode(y, R) == c


def test_erasure_decode_at_distance_fails():
    # support holding an entire minimum-rank codeword's row space makes the
    # system ambiguous; this must surface as a failure, never a wrong answer
    rng = SplitMix64(72)
    code = RMCode(tower(3), 1)
    w = _min_rank_codeword(code)
    R = w.row_space_basis()
    assert R.rows == code.min_rank
    c = code.vector_from_matrix(code.encode(code.random_message(rng, 7)))
    with pytest.raises(DecodingFailure):
        code.erasure_decode(c, R)


# -- the embedded erasure decode --------------------------------------------------
# solve_erasures(field, fast_syndrome, ...), the exact path, is the oracle.

ODD_TOWER = (-1, Fraction(3, 5), 7)


def exact_outcome(code, y, rows):
    """What the exact path returns, or its DecodingFailure message."""
    try:
        return solve_erasures(code.field, code.fast_syndrome, y, rows)
    except DecodingFailure as exc:
        return str(exc)


def decode_outcome(code, y, support):
    try:
        return code.erasure_decode(y, support)
    except DecodingFailure as exc:
        return str(exc)


def erasure_instance(code, rng, k, x_coord=None):
    """(c, y, support) with y = c + sum_k x_k g_k: a codeword c, support rows
    g_k from the echelon basis of a random integer matrix (so they carry
    fractions) and tower elements x_k (default: small fractions)."""
    c = code.vector_from_matrix(code.encode(code.random_message(rng, 7)))
    G = ExactMatrix(code.base_field, [[rng.randint(-9, 9) for _ in range(code.size)] for _ in range(k)])
    G = G.row_space_basis()
    x_coord = x_coord or (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    y = list(c)
    for g in G.entries:
        xk = code.field.element([x_coord() for _ in range(code.field.dim)])
        y = [yj + xk * gj.embed(code.field) for yj, gj in zip(y, g)]
    return c, y, G


def fast_and_rows(code, y, G):
    y = code._coerce_vector(y)
    rows = [code._coerce_vector(row) for row in G.entries]
    return code._erasure_decode_embedded(y, rows), y, rows


@pytest.fixture
def kernel_outcomes(monkeypatch):
    """Each batch_solve_mod call's outcome: 'solved' or the exception type."""
    seen = []
    solve = modmat.batch_solve_mod

    def spy(S, p):
        try:
            X = solve(S, p)
        except (NoSolution, NotUnique) as exc:
            seen.append(type(exc))
            raise
        seen.append("solved")
        return X

    monkeypatch.setattr(modmat, "batch_solve_mod", spy)
    return seen


@pytest.mark.parametrize("gens, r", [(PRIMES[:3], 0), (PRIMES[:3], 1), (PRIMES[:4], 1), (PRIMES[:4], 2),
                                     (ODD_TOWER, 0), (ODD_TOWER, 1)])
def test_embedded_erasure_decode_equals_exact_path(gens, r):
    code = RMCode(mq_field(gens), r)
    rng = SplitMix64(101 + r)
    for _ in range(3):
        c, y, G = erasure_instance(code, rng, min(3, code.min_rank - 1))
        fast, y, rows = fast_and_rows(code, y, G)
        assert fast is not None
        assert fast == exact_outcome(code, y, rows) == c
        assert code.erasure_decode(y, G) == c


@pytest.mark.parametrize("gens, r, seed", [(PRIMES[:4], 1, 5), (PRIMES[:5], 1, 7), (ODD_TOWER, 0, 3),
                                           (ODD_TOWER, 1, 3)])
def test_decoder_erasure_solves_are_certified_and_exact(monkeypatch, gens, r, seed):
    # the erasure systems the decoder itself builds, one level down a rotated tower
    seen = []
    fast_path = RMCode._erasure_decode_embedded

    def spy(self, y, rows):
        out = fast_path(self, y, rows)
        seen.append((self, y, rows, out))
        return out

    monkeypatch.setattr(RMCode, "_erasure_decode_embedded", spy)
    code = RMCode(mq_field(gens), r)
    rng = SplitMix64(seed)
    C = code.encode(code.random_message(rng))
    E = code.sample_error(rng)
    rep = code._decode_exact(C + E)
    assert rep.success and rep.codeword == C and rep.recovered_error == E
    assert len(seen) == r + 1
    for ecode, y, rows, out in seen:
        assert ecode.base_height > 0 and rows
        assert out is not None and out == exact_outcome(ecode, y, rows)


def test_exact_erasure_systems_of_an_m5_decode_reduce_in_the_tower(monkeypatch):
    # the exact path's augmented systems for the two erasure steps of an
    # m=5 r=1 decode: n - k syndrome rows, one column per support row plus
    # the right-hand side, and a unique solution
    shapes = []
    eliminate = MultiquadraticField.eliminate

    def spy(self, entries):
        out = eliminate(self, entries)
        shapes.append((self.m, len(entries), len(entries[0]), out[1]))
        return out

    code = RMCode(mq_field(PRIMES[:5]), 1)
    rng = SplitMix64(7)
    C = code.encode(code.random_message(rng))
    E = code.sample_error(rng)
    seen = []
    fast_path = RMCode._erasure_decode_embedded
    monkeypatch.setattr(RMCode, "_erasure_decode_embedded",
                        lambda self, y, rows: seen.append((self, y, rows)) or fast_path(self, y, rows))
    assert code._decode_exact(C + E).codeword == C
    monkeypatch.setattr(MultiquadraticField, "eliminate", spy)
    for ecode, y, rows in seen:
        assert exact_outcome(ecode, y, rows) == fast_path(ecode, y, rows)
    assert [s[:3] for s in shapes] == [(5, 7, 8), (5, 11, 8)]
    assert all(pivots == tuple(range(7)) for *_, pivots in shapes)


def test_ambiguous_support_falls_back_to_the_exact_failure(kernel_outcomes):
    # the row space of a minimum-rank codeword: the syndrome matrix loses rank
    rng = SplitMix64(103)
    code = RMCode(tower(3), 1)
    R = _min_rank_codeword(code).row_space_basis()
    c = code.vector_from_matrix(code.encode(code.random_message(rng, 7)))
    fast, y, rows = fast_and_rows(code, c, R)
    assert fast is None and kernel_outcomes == [NotUnique]
    assert decode_outcome(code, c, R) == exact_outcome(code, y, rows) == "erasure support hides a codeword"


def test_inconsistent_system_falls_back_to_the_exact_failure(kernel_outcomes):
    # one erasure plus a change outside it: full column rank, no solution
    rng = SplitMix64(104)
    code = RMCode(tower(3), 1)
    c, y, G = erasure_instance(code, rng, 1)
    y[0] = y[0] + 1
    fast, y, rows = fast_and_rows(code, y, G)
    assert fast is None and kernel_outcomes == [NoSolution]
    expected = "erasure system inconsistent: inconsistent system"
    assert decode_outcome(code, y, G) == exact_outcome(code, y, rows) == expected


def test_solution_beyond_the_prime_budget_falls_back(kernel_outcomes):
    # 200-bit coordinates need about 400 bits of primes; the budget holds fewer
    rng = SplitMix64(105)
    code = RMCode(tower(3), 1)
    c, y, G = erasure_instance(code, rng, 2, lambda: Fraction(3 ** 126 + rng.randint(0, 99), 7 ** 71 + 1))
    assert reedmuller._PRIME_BUDGET * code.field.sign_embedding(0).p.bit_length() < 2 * 200
    fast, y, rows = fast_and_rows(code, y, G)
    assert fast is None and kernel_outcomes == ["solved"] * reedmuller._PRIME_BUDGET
    assert decode_outcome(code, y, G) == exact_outcome(code, y, rows) == c


def test_prime_dividing_a_denominator_falls_back(kernel_outcomes):
    rng = SplitMix64(106)
    code = RMCode(tower(3), 1)
    p = code.field.sign_embedding(0).p
    c, y, G = erasure_instance(code, rng, 2, lambda: Fraction(rng.randint(1, 9), p))
    fast, y, rows = fast_and_rows(code, y, G)
    assert fast is None and kernel_outcomes == []
    assert decode_outcome(code, y, G) == exact_outcome(code, y, rows) == c


def forward_of_coords(emb, vectors):
    """The (2^M, k, n) array of emb.forward of the coordinates mod emb.p of
    the entries of k vectors of n tower elements."""
    p = emb.p
    coords = [[[q.numerator * pow(q.denominator, -1, p) % p for q in x.coords] for x in v] for v in vectors]
    return emb.forward(np.array(coords, dtype=np.int64)).transpose(2, 0, 1)


def test_embedding_layout():
    rng = SplitMix64(108)
    # a base-height-0 matrix read from its columns, and a descended code's
    # integer rows: one vector, the matrix's columns as tower elements
    for code, cell in [(RMCode(tower(3), 1), lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
                       (RMCode(tower(4), 1)._descend(1), lambda: rng.randint(-9, 9))]:
        emb = code.field.sign_embedding(0)
        M = ExactMatrix(code.base_field, [[cell() for _ in range(code.size)] for _ in range(code.size)])
        got = reedmuller._embed(emb, *integer_coords([e for col in zip(*M.entries) for e in col]), (1, code.size))
        assert np.array_equal(got, forward_of_coords(emb, [code.vector_from_matrix(M)]))
    # fractional support rows and the word, as the erasure step embeds them
    code = RMCode(tower(3), 1)
    c, y, G = erasure_instance(code, rng, 3)
    vectors = [code._coerce_vector(row) for row in G.entries] + [y]
    assert any(e.den > 1 for v in vectors for e in v)
    emb = code.field.sign_embedding(1)
    got = reedmuller._embed(emb, *integer_coords([e for v in vectors for e in v]), (len(vectors), code.size))
    assert np.array_equal(got, forward_of_coords(emb, vectors))
    # a prime dividing the denominator
    y[2] = y[2] + Fraction(1, emb.p)
    assert reedmuller._embed(emb, *integer_coords(y), (1, code.size)) is None
    assert reedmuller._embed(code.field.sign_embedding(0), *integer_coords(y), (1, code.size)) is not None


def test_certificate_rejects_a_perturbed_lift(monkeypatch):
    # one reconstructed coordinate off by 1/7: the exact syndrome of the
    # lifted word is nonzero, and the decode still returns the exact answer
    rng = SplitMix64(107)
    code = RMCode(tower(4), 1)
    c, y, G = erasure_instance(code, rng, 3)
    lift = reedmuller.rational_lift
    k = code.field.dim + 5  # coordinate 5 of x_1: the lift lists x's coordinates element by element

    def perturbed(residues, confirm):
        out = lift(residues, confirm)
        if not confirm:  # only the erasure solve lifts with confirm=True
            return out
        return out[:k] + [out[k] + Fraction(1, 7)] + out[k + 1:]

    monkeypatch.setattr(reedmuller, "rational_lift", perturbed)
    fast, y, rows = fast_and_rows(code, y, G)
    assert fast is None
    assert code.erasure_decode(y, G) == exact_outcome(code, y, rows) == c


# -- full decoding -----------------------------------------------------------------


def test_decode_zero_code_returns_zero():
    code = RMCode(tower(2), -1)
    rng = SplitMix64(80)
    Y = ExactMatrix(code.base_field, [[rng.randint(0, 9) for _ in range(4)] for _ in range(4)])
    rep = code.decode(Y)
    assert rep.success and rep.codeword.is_zero() and rep.recovered_error == Y


def test_decode_error_free():
    rng = SplitMix64(81)
    for m in range(1, 4):
        L = tower(m)
        for r in range(0, m + 1):
            code = RMCode(L, r)
            Y = code.encode(code.random_message(rng, 7))
            rep = code.decode(Y)
            assert rep.success and rep.codeword == Y
            assert rep.recovered_error.is_zero()


def test_decode_roundtrip_with_errors():
    rng = SplitMix64(82)
    for m, r, trials in [(3, 0, 6), (3, 1, 6), (4, 1, 2)]:
        code = RMCode(tower(m), r)
        for _ in range(trials):
            C = code.encode(code.random_message(rng, 7))
            E = code.sample_error(rng, 9)
            rep = code.decode(C + E)
            assert rep.success, rep.reason
            assert rep.codeword == C
            assert rep.recovered_error == E
            assert rep.codeword + rep.recovered_error == C + E
            assert len(rep.trace) == r + 1
            assert all(entry["fold_rank"] <= code.t for entry in rep.trace)
            assert rep.error_rows == rep.recovered_error.row_space_basis()


def test_decode_never_reports_wrong_success():
    # far beyond capacity: anything but a verified answer must be Failure
    rng = SplitMix64(83)
    code = RMCode(tower(3), 1)
    for _ in range(10):
        Y = ExactMatrix(code.base_field, [[rng.randint(0, 30) for _ in range(8)] for _ in range(8)])
        rep = code.decode(Y)
        if rep.success:
            assert (Y - rep.codeword).rank() <= code.t


def test_decode_detects_rank_dropping_fold():
    # E = [[0, a*M], [M, 0]] folds to zero, so the erasure step sees a
    # nonzero residual with an empty support and must fail
    L = tower(3)
    code = RMCode(L, 0)
    a = L.gens[-1]
    M = ExactMatrix.zeros(code.base_field, 4, 4).rows_list()
    M[0][0] = code.base_field.one
    M = ExactMatrix(code.base_field, M)
    E = ExactMatrix.block([[ExactMatrix.zeros(code.base_field, 4, 4), M.scale(a)],
                           [M, ExactMatrix.zeros(code.base_field, 4, 4)]])
    assert E.rank() == 2 <= code.t
    assert code.fold(E).is_zero()
    rng = SplitMix64(84)
    C = code.encode(code.random_message(rng, 7))
    rep = code.decode(C + E)
    assert not rep.success
    assert rep.error_rows is None


def test_decode_eliminates_each_residual_once(monkeypatch):
    # an m=4 r=1 decode verifies three residuals (orders 1, 0 and -1), and
    # the level above reads its support off the verification's elimination
    code = RMCode(tower(4), 1)
    rng = SplitMix64(86)
    C = code.encode(code.random_message(rng))
    E = code.sample_error(rng)
    calls = []
    eliminate = MultiquadraticField.eliminate
    monkeypatch.setattr(MultiquadraticField, "eliminate",
                        lambda self, entries: calls.append(self.m) or eliminate(self, entries))
    rep = code._decode_exact(C + E)
    assert rep.success and rep.codeword == C
    assert len(calls) == 3
    assert rep.error_rows == E.row_space_basis() and rep.error_rows.shape == (code.t, code.size)
    # a zero residual has an empty support of the code's width
    rep = code.decode(C)
    assert rep.success and rep.error_rows.shape == (0, code.size)


def test_error_sampler_contract():
    rng = SplitMix64(85)
    for m, r in [(3, 0), (3, 1), (4, 1)]:
        code = RMCode(tower(m), r)
        E = code.sample_error(rng, 9)
        assert E.rank() == code.t
        assert code.folds_preserve_rank(E)
    # t = 0 orders give the zero matrix
    assert RMCode(tower(3), 2).sample_error(rng, 9).is_zero()


def exact_sample_error(code, rng, bound=50):
    """The error sampler with exact ranks only: the reference that the
    modular certificate of RMCode.sample_error must reproduce draw for draw."""
    t = code.t
    for _ in range(reedmuller._SAMPLE_ATTEMPTS):
        X = [[rng.randint(0, bound) for _ in range(t)] for _ in range(code.size)]
        Z = list(zip(*[[rng.randint(0, bound) for _ in range(code.size)] for _ in range(t)]))
        E = ExactMatrix(code.base_field, [[sum(a * b for a, b in zip(x, z)) for z in Z] for x in X])
        if E.rank() != t:
            continue
        if code.folds_preserve_rank(E, t):
            return E
    raise AssertionError("the reference sampler found no error")


SAMPLER_CODES = [pytest.param(m, r, id=f"m{m}-r{r}") for m in (3, 4, 5) for r in range(m - 1)]


@pytest.mark.parametrize("m, r", SAMPLER_CODES)
def test_certified_sampler_draws_the_exact_samplers_errors(monkeypatch, m, r):
    code = RMCode(tower(m), r)
    kernel = modmat.batch_rank_mod
    ranked = []
    monkeypatch.setattr(modmat, "batch_rank_mod", lambda mats, p: ranked.append(mats.shape) or kernel(mats, p))
    deepest = code.size >> (r + 1)
    for seed in range(4):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        E = code.sample_error(rng)
        assert E == exact_sample_error(code, ref)
        assert rng._state == ref._state
        # one modular rank per draw, of the deepest fold
        assert ranked.pop() == (1, deepest, deepest) and not ranked


def test_certified_sampler_on_a_descended_code(monkeypatch):
    # base height 1: E lives over Q(sqrt 11) and the folds run along 7 and 5;
    # the certificate holds on every draw, so the exact ranks never run
    code = RMCode(tower(5), 1)._descend(1)
    assert (code.base_height, code.m, code.r, code.t) == (1, 4, 1, 3)
    for seed in range(4):
        rng, ref = SplitMix64(seed), SplitMix64(seed)
        with monkeypatch.context() as patch:
            patch.setattr(RMCode, "folds_preserve_rank", lambda *args: pytest.fail("exact fold ranks ran"))
            E = code.sample_error(rng)
        assert E == exact_sample_error(code, ref)
        assert rng._state == ref._state


@pytest.mark.parametrize("m, r, descend", [pytest.param(m, r, False, id=f"{m}-{r}")
                                           for m in (3, 4) for r in range(m - 1)]
                         + [pytest.param(5, 1, True, id="5-1-descended")])
def test_deepest_fold_rank_mod_p_matches_the_exact_fold(m, r, descend):
    code = RMCode(tower(m), r)
    if descend:  # base height 1, whose sign bit is the field's lowest
        code = code._descend(r)
    rng = SplitMix64(88)
    for k in (1, code.t, code.size):
        X = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(code.size)]
        Z = list(zip(*[[rng.randint(-9, 9) for _ in range(code.size)] for _ in range(k)]))
        E = ExactMatrix(code.base_field, [[sum(a * b for a, b in zip(x, z)) for z in Z] for x in X])
        M, sub = E, code
        for _ in range(r + 1):
            M, sub = sub.fold(M), sub.subcode()
        assert code._deepest_fold_rank_mod_p(E) == M.rank()
    # E = [[0, a M], [M, 0]] folds to zero (test_decode_detects_rank_dropping_fold)
    a, n = int(code.field.gens[-1]), code.size
    E = [[0] * n for _ in range(n)]
    E[0][n // 2], E[n // 2][0] = a, 1
    assert code._deepest_fold_rank_mod_p(ExactMatrix(code.base_field, E)) == 0


def test_certified_sampler_reduces_huge_entries_before_numpy():
    # entries near 2^126 would overflow int64 if they reached numpy unreduced
    code = RMCode(tower(3), 1)
    rng, ref = SplitMix64(87), SplitMix64(87)
    E = code.sample_error(rng, 2 ** 62)
    assert E == exact_sample_error(code, ref, 2 ** 62)
    assert max(abs(e.num[0]) for row in E.entries for e in row).bit_length() > 100


@pytest.mark.parametrize("m, r, seed", [(3, 0, 1), (3, 1, 2), (4, 1, 3), (4, 2, 4)])
def test_sampler_falls_back_to_exact_ranks_below_the_modular_certificate(monkeypatch, m, r, seed):
    # a modular rank of t - 1 certifies nothing: the exact ranks decide, with
    # the same error and the same draws as when the certificate holds
    code = RMCode(tower(m), r)
    exact_checks = []
    folds_preserve_rank = RMCode.folds_preserve_rank
    monkeypatch.setattr(RMCode, "folds_preserve_rank",
                        lambda self, E, rank=None: exact_checks.append(rank) or folds_preserve_rank(self, E, rank))
    rng = SplitMix64(seed)
    E = code.sample_error(rng)
    assert not exact_checks  # the certificate held
    monkeypatch.setattr(modmat, "batch_rank_mod", lambda mats, p: np.full(len(mats), code.t - 1))
    fallback = SplitMix64(seed)
    assert code.sample_error(fallback) == E
    assert fallback._state == rng._state
    assert exact_checks and exact_checks[-1] == code.t


# -- soundness over arbitrary received words ---------------------------------------

SOUND_CODES = [pytest.param(m, r, id=f"m{m}-r{r}") for m in (2, 3) for r in range(m)]


def small_ints(data, rows, cols, label):
    cell = st.integers(-3, 3)
    return data.draw(st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows), label=label)


def arbitrary_error(code, data):
    """An error of any rank (up to the full size): X Z with some rows of X
    and columns of Z zeroed, or one whose first fold loses rank.  A
    fold-killing error [[A0, a A1], [A1, A0]] folds to zero; X Z with the
    rows of Z in pairs (u | 0), (0 | a u) folds to rank at most half that
    of Z."""
    n, K = code.size, code.base_field
    h, a = n // 2, code.field.gens[-1]
    kind = data.draw(st.sampled_from(["product", "fold-killing", "fold-dropping"]), label="kind")
    if kind == "fold-killing":
        k = data.draw(st.integers(0, 2), label="inner dimension")
        A0, A1 = [ExactMatrix(K, small_ints(data, h, k, f"X{i}")) @ ExactMatrix(K, small_ints(data, k, h, f"Z{i}"))
                  if k else ExactMatrix.zeros(K, h, h) for i in (0, 1)]
        return ExactMatrix.block([[A0, A1.scale(a)], [A1, A0]])
    k = data.draw(st.one_of(st.integers(0, code.t + 1), st.integers(0, n)), label="inner dimension")
    if not k:
        return ExactMatrix.zeros(K, n, n)
    zero_rows = data.draw(st.sets(st.integers(0, n - 1), max_size=2), label="zero rows")
    X = [[0 if i in zero_rows else e for e in row] for i, row in enumerate(small_ints(data, n, k, "X"))]
    if kind == "product":
        zero_cols = data.draw(st.sets(st.integers(0, n - 1), max_size=2), label="zero columns")
        Z = [[0 if j in zero_cols else e for j, e in enumerate(row)] for row in small_ints(data, k, n, "Z")]
    else:
        U = small_ints(data, (k + 1) // 2, h, "Z")
        Z = ([u + [0] * h for u in U] + [[0] * h + [a * e for e in u] for u in U])[:k]
    return ExactMatrix(K, X) @ ExactMatrix(K, Z)


@pytest.mark.parametrize("m, r", SOUND_CODES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_decode_is_sound_on_arbitrary_errors(m, r, data):
    """For Y = C + E with E from arbitrary_error, decode either reports
    failure or returns C' + E' = Y with C' in the code (zero naive
    syndrome) and rank E' <= t; when rank E <= t and every fold keeps it,
    C' is C."""
    code = RMCode(tower(m), r)
    rng = SplitMix64(data.draw(st.integers(0, 2 ** 64 - 1), label="seed"))
    C = code.encode(code.random_message(rng, 5))
    E = arbitrary_error(code, data)
    rep = code.decode(C + E)
    if rep.success:
        assert rep.codeword + rep.recovered_error == C + E
        assert not any(code.naive_syndrome(code.vector_from_matrix(rep.codeword)))
        assert rep.recovered_error.rank() <= code.t
        assert rep.error_rows == rep.recovered_error.row_space_basis()
    else:
        assert rep.error_rows is None
    rank = E.rank()
    if rank <= code.t and code.folds_preserve_rank(E, rank):
        assert rep.success and rep.codeword == C


@pytest.mark.parametrize("m, r", SOUND_CODES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_erasure_decode_is_sound_on_arbitrary_words(m, r, data):
    """erasure_decode either raises DecodingFailure or returns c with zero
    syndrome and the rows of y - c in the support's row space; whenever the
    embedded solve answers, solve_erasures gives the same word.  Words are
    arbitrary, or a codeword plus tower multiples of the support rows."""
    code = RMCode(tower(m), r)
    n, L = code.size, code.field
    k = data.draw(st.one_of(st.integers(0, code.min_rank - 1), st.integers(0, n)), label="support rows")
    support = ExactMatrix(code.base_field, small_ints(data, k, n, "support"))
    if data.draw(st.booleans(), label="near the code"):
        rng = SplitMix64(data.draw(st.integers(0, 2 ** 64 - 1), label="seed"))
        y = code.vector_from_matrix(code.encode(code.random_message(rng, 5)))
        for g in support.entries:
            xk = L.random_element(rng, 5)
            y = [yj + xk * gj.embed(L) for yj, gj in zip(y, g)]
    else:
        y = [L.element(coords) for coords in small_ints(data, n, L.dim, "word")]
    fast, y, rows = fast_and_rows(code, y, support) if k else (None, y, [])
    if fast is not None:
        assert fast == exact_outcome(code, y, rows)
    try:
        c = code.erasure_decode(y, support)
    except DecodingFailure:
        assert fast is None
        return
    assert not any(code.naive_syndrome(c))
    D = code.matrix_from_vector([a - b for a, b in zip(y, c)])
    assert ExactMatrix(code.base_field, support.rows_list() + D.rows_list()).rank() == support.rank()


# -- the certified modular decode -------------------------------------------------
# RMCode._decode_exact, the exact decoder on every level, is the oracle.


def report_fields(rep):
    return rep.success, rep.codeword, rep.recovered_error, rep.reason, rep.trace, rep.error_rows


@pytest.mark.parametrize("m, r", SOUND_CODES)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_decode_equals_the_exact_decoder_on_arbitrary_errors(m, r, data):
    code = RMCode(tower(m), r)
    rng = SplitMix64(data.draw(st.integers(0, 2 ** 64 - 1), label="seed"))
    Y = code.encode(code.random_message(rng, 5)) + arbitrary_error(code, data)
    assert report_fields(code.decode(Y)) == report_fields(code._decode_exact(Y))


def sampled_word(gens, r, seed):
    code = RMCode(mq_field(gens), r)
    rng = SplitMix64(seed)
    C = code.encode(code.random_message(rng))
    return code, C, code.sample_error(rng)


@pytest.mark.parametrize("gens, r", [(PRIMES[:4], 0), (PRIMES[:4], 1), (PRIMES[:4], 2), (PRIMES[:5], 1),
                                     (PRIMES[:5], 2), (ODD_TOWER, 1)])
def test_certified_decode_equals_the_exact_decoder_on_sampled_errors(gens, r):
    for seed in (1, 2):
        code, C, E = sampled_word(gens, r, 110 + 10 * len(gens) + r + seed)
        Y = C + E
        assert code._decode_certified(Y) is not None
        rep = code.decode(Y)
        assert report_fields(rep) == report_fields(code._decode_exact(Y))
        assert rep.success and rep.codeword == C and rep.recovered_error == E


def entry_pairs(M):
    """Each entry's canonical (num, den), row by row."""
    return [[(e.num, e.den) for e in row] for row in M.entries]


@pytest.mark.parametrize("gens, r", [(PRIMES[:4], 1), (ODD_TOWER, 0), (ODD_TOWER, 1)])
@pytest.mark.parametrize("scale", [Fraction(1, 6), Fraction(1, 35)])
def test_certified_decode_of_a_rational_error_equals_the_exact_decoder(gens, r, scale):
    # E / 6 and E / 35 lift to Fractions: the certificate builds E and
    # Y - E from non-integer lifts, and ODD_TOWER's codewords carry the
    # denominators of its generator 3/5
    code, C, E = sampled_word(gens, r, 130 + len(gens) + r)
    E = E.scale(scale)
    Y = C + E
    d = integer_coords([e for row in Y.entries for e in row])[0]
    assert d > 1 and all(d % code.field.sign_embedding(i).p for i in range(reedmuller._PRIME_BUDGET))
    rep, exact = code._decode_certified(Y), code._decode_exact(Y)
    assert rep is not None and rep.success and rep.codeword == C and rep.recovered_error == E
    assert any(e.den > 1 for row in rep.recovered_error.entries for e in row)
    assert report_fields(code.decode(Y)) == report_fields(rep) == report_fields(exact)
    for M, N in [(rep.codeword, exact.codeword), (rep.recovered_error, exact.recovered_error),
                 (rep.error_rows, exact.error_rows)]:
        assert entry_pairs(M) == entry_pairs(N)


def embedded_word(M, emb):
    """A matrix over Q in the vector form of _decode_mod, mod emb.p."""
    d, ints = integer_coords([e for row in M.entries for e in row])
    coords = np.array([u % emb.p for u in ints], dtype=np.int64).reshape(M.shape) * pow(d, -1, emb.p) % emb.p
    return emb.forward(coords.T).T


def test_certificate_refuses_an_error_beyond_the_radius(monkeypatch):
    # A fold-stable error of rank t + 1 fills the deepest erasure support,
    # so no decoder level gets past it.  A modular decoder that returns C
    # anyway, with the true fold ranks, leaves the refusal to the
    # certificate's rank bound alone.
    code, C, E = sampled_word(PRIMES[:4], 1, 121)
    rng = SplitMix64(122)
    x = ExactMatrix(code.base_field, [[rng.randint(1, 9)] for _ in range(code.size)])
    E = E + x @ ExactMatrix(code.base_field, [[rng.randint(1, 9) for _ in range(code.size)]])
    assert E.rank() == code.t + 1 and code.folds_preserve_rank(E)
    Y = C + E

    def past_the_radius(self, Yv, top, i, ranks):
        ranks.extend([code.t + 1] * (code.r + 1))
        return embedded_word(C, top.sign_embedding(i))

    monkeypatch.setattr(RMCode, "_decode_mod", past_the_radius)
    assert code._decode_certified(Y) is None
    rep = code.decode(Y)
    assert not rep.success and report_fields(rep) == report_fields(code._decode_exact(Y))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_decode_at_radius_zero_reports_a_codeword_without_the_modular_decode(m, monkeypatch):
    # r = m - 1 has radius 0: a word with zero syndrome gets the exact
    # decoder's report from the syndrome alone, and a corrupted word takes
    # the certified path, which fails as the exact decoder does
    code = RMCode(mq_field((2, 3, 5, 7, 11, 13)[:m]), m - 1)
    rng = SplitMix64(140 + m)
    C = code.encode(code.random_message(rng))
    x = ExactMatrix(code.base_field, [[rng.randint(-3, 3)] for _ in range(code.size)])
    Y = C + x @ ExactMatrix(code.base_field, [[rng.randint(1, 3) for _ in range(code.size)]])
    exact = code._decode_exact(C), code._decode_exact(Y)
    with monkeypatch.context() as patch:
        patch.setattr(RMCode, "_decode_certified", lambda self, Y: pytest.fail("the modular decode ran"))
        rep = code.decode(C)
    assert rep.success and rep.codeword == C and report_fields(rep) == report_fields(exact[0])
    rep = code.decode(Y)
    assert not rep.success and report_fields(rep) == report_fields(exact[1])


def test_certified_decode_falls_back_on_a_prime_denominator():
    # every error entry over the first embedding prime: Y does not reduce mod p
    code, C, E = sampled_word(PRIMES[:4], 1, 123)
    Y = C + E.scale(Fraction(1, code.field.sign_embedding(0).p))
    assert code._decode_certified(Y) is None
    rep = code.decode(Y)
    assert rep.success and report_fields(rep) == report_fields(code._decode_exact(Y))


def test_certified_decode_falls_back_on_a_fold_rank_drop():
    # E = X Z with rows (u | 0), (0 | a u) in Z has rank 2 and folds to
    # rank 1.  The exact decoder still decodes it, and its trace records
    # fold rank 1: the certificate's fold ranks refuse the modular answer.
    code = RMCode(tower(4), 1)
    K, h, a = code.base_field, code.size // 2, code.field.gens[-1]
    rng = SplitMix64(127)
    u = [rng.randint(-3, 3) for _ in range(h)]
    X = ExactMatrix(K, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(code.size)])
    E = X @ ExactMatrix(K, [u + [0] * h, [0] * h + [a * e for e in u]])
    assert E.rank() == 2 and code.fold(E).rank() == 1
    Y = code.encode(code.random_message(rng)) + E
    assert code._decode_certified(Y) is None
    rep = code.decode(Y)
    assert rep.success and [step["fold_rank"] for step in rep.trace] == [1, 1]
    assert report_fields(rep) == report_fields(code._decode_exact(Y))


@pytest.mark.parametrize("level", [1, 2])
def test_certified_decode_falls_back_on_a_low_modular_rank(monkeypatch, level):
    # the residual blocks of one level (one per embedding of its base)
    # answer rank t - 1
    code, C, E = sampled_word(PRIMES[:4], 1, 124)
    rref = modmat.batch_rref_mod

    def patched(mats, p):
        R, rank = rref(mats, p)
        return R, np.full_like(rank, code.t - 1) if len(mats) == 1 << level else rank

    monkeypatch.setattr(modmat, "batch_rref_mod", patched)
    Y = C + E
    assert code._decode_certified(Y) is None
    rep = code.decode(Y)
    assert rep.success and report_fields(rep) == report_fields(code._decode_exact(Y))


@pytest.mark.parametrize("perturb", ["double", "shift one entry"])
def test_certified_decode_falls_back_on_a_perturbed_lift(monkeypatch, perturb):
    # 2E keeps the rank and every fold rank of E but is no error of Y
    code, C, E = sampled_word(PRIMES[:4], 1, 125)
    lift = reedmuller.rational_lift

    def perturbed(residues, confirm):
        out = lift(residues, confirm)
        if confirm or out is None:  # the erasure solves of the exact path
            return out
        return [2 * q for q in out] if perturb == "double" else [out[0] + 1] + out[1:]

    monkeypatch.setattr(reedmuller, "rational_lift", perturbed)
    Y = C + E
    assert code._decode_certified(Y) is None
    rep = code.decode(Y)
    assert rep.success and report_fields(rep) == report_fields(code._decode_exact(Y))


def test_certified_decode_eliminates_once_and_never_folds_exactly(monkeypatch):
    code, C, E = sampled_word(PRIMES[:4], 1, 126)
    calls = []
    eliminate = MultiquadraticField.eliminate
    monkeypatch.setattr(MultiquadraticField, "eliminate",
                        lambda self, entries: calls.append("eliminate") or eliminate(self, entries))
    for name in ("fold", "erasure_decode"):
        monkeypatch.setattr(RMCode, name, lambda self, *args, name=name: calls.append(name))
    rep = code.decode(C + E)
    assert rep.success and rep.codeword == C and rep.recovered_error == E
    assert calls == ["eliminate"]


# -- minimum distance sampling ---------------------------------------------------

_P = 1_048_573  # prime; products stay far inside int64 during elimination


def _np_encode(field, masks, coeff_rows, p):
    """Codeword matrix mod p for integer message coordinates.

    Column j of a term's matrix is coeff * (basis monomial j) with the sign
    pattern of the term's flips.  Monomial multiplication is a coordinate
    permutation plus generator scalings, so everything stays in int64.
    """
    N = field.dim
    gens = [int(g) for g in field.gens]
    idx = np.arange(N)
    out = np.zeros((N, N), dtype=np.int64)
    for mask, f in zip(masks, coeff_rows):
        reg = np.zeros((N, N), dtype=np.int64)
        reg[:, 0] = f
        for j in range(1, N):
            i = (j & -j).bit_length() - 1
            bit = 1 << i
            prev = reg[:, j ^ bit]
            factor = np.where((idx & bit) != 0, 1, gens[i])
            reg[:, j] = prev[idx ^ bit] * factor % p
        signs = np.array([p - 1 if bin(v & mask).count("1") & 1 else 1 for v in range(N)])
        out = (out + reg * signs[None, :]) % p
    return out


def test_np_encode_matches_exact_encode():
    rng = SplitMix64(90)
    for m, r in [(2, 1), (3, 1), (3, 2)]:
        L = tower(m)
        code = RMCode(L, r)
        msg = code.random_message(rng, 9)
        exact = code.encode(msg)
        rows = [np.array([int(c) for c in L.coerce(v).coords], dtype=np.int64) for v in msg]
        fast = _np_encode(L, code.exponents(), rows, _P)
        ref = np.array([[int(e.rational_value()) for e in row] for row in exact.entries], dtype=np.int64) % _P
        assert np.array_equal(fast, ref)


def test_sampled_codewords_meet_min_distance():
    # 1000 nonzero samples per (r, m): rank mod p lower-bounds the exact
    # rank, so rank_p >= d certifies the distance; rare shortfalls get an
    # exact recheck.
    nrng = np.random.default_rng(20240817)
    for m in range(1, 5):
        L = tower(m)
        for r in range(0, m):
            code = RMCode(L, r)
            masks = code.exponents()
            words = []
            messages = []
            while len(words) < 1000:
                rows = nrng.integers(0, _P, size=(code.dim, code.size))
                if not rows.any():
                    continue
                words.append(_np_encode(L, masks, rows.astype(np.int64), _P))
                messages.append(rows)
            ranks = batch_rank_mod(np.stack(words), _P)
            short = np.nonzero(ranks < code.min_rank)[0]
            for i in short:
                msg = [L.element([int(c) for c in messages[i][j]]) for j in range(code.dim)]
                assert code.encode(msg).rank() >= code.min_rank
