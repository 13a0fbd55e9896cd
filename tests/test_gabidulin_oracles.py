"""The array path of GabidulinCode against the element path: the Moore
array against ExtField.frobenius, encoding against LinearizedPoly, the
interpolation pair under LinearizedPoly.__call__, left_divide against
LinearizedPoly.compose, the erasure solve against linalg.solve_erasures on
the element-wise syndromes, and a soundness property of decode_errors on
arbitrary received words."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from rankfold import DecodingFailure, SplitMix64
from rankfold.gabidulin import GabidulinCode, LinearizedPoly, left_divide
from rankfold.gf import ExtField, expand_to_base
from rankfold.linalg import ExactMatrix, _syndrome, solve_erasures

FIELDS = [ExtField(p, m) for p, m in ((2, 5), (3, 4), (5, 3), (23, 6), (23, 8))]
SMALL = [F for F in FIELDS if (F.p, F.m) in ((3, 4), (5, 3))]

oracle_settings = settings(max_examples=40, deadline=None, database=None)


def element(draw, field, nonzero=False):
    coeffs = draw(st.lists(st.integers(0, field.p - 1), min_size=field.m, max_size=field.m))
    if nonzero and not any(coeffs):
        coeffs[0] = 1
    return field.element(coeffs)


def vector(draw, field, n):
    return [element(draw, field) for _ in range(n)]


@st.composite
def codes(draw, fields=FIELDS, min_radius=0):
    """A code over one of the fields with n <= m points z x^i, i < n, for a
    nonzero z: GF(q)-independent, and not the polynomial basis unless z = 1."""
    field = draw(st.sampled_from(fields))
    n = draw(st.integers(max(1, 2 * min_radius), field.m))
    k = draw(st.integers(0, n - 2 * min_radius))
    z = element(draw, field, nonzero=True)
    return GabidulinCode(field, k, [z * b for b in field.polynomial_basis()[:n]])


@oracle_settings
@given(codes())
def test_moore_array_is_the_frobenius_powers(code):
    field = code.field
    for i, g in enumerate(code.points):
        for j in range(field.m):
            assert field.from_coeff_array(code._moore[i, j][None])[0] == field.frobenius(g, j)


@oracle_settings
@given(st.data())
def test_encode_matches_linearized_poly(data):
    code = data.draw(codes())
    msg = vector(data.draw, code.field, code.k)
    assert code.encode(msg) == [LinearizedPoly(code.field, msg)(g) for g in code.points]


@oracle_settings
@given(st.data())
def test_parity_checks_annihilate_the_moore_rows(data):
    code = data.draw(codes())
    field, n, k = code.field, code.n, code.k
    H = code.parity_check_matrix()
    assert H.rows == n - k and (H.rows == 0 or H.rank() == n - k)
    for row in H.entries:
        for i in range(k):
            assert not sum((h * field.frobenius(g, i) for h, g in zip(row, code.points)), field.zero)


@oracle_settings
@given(st.data())
def test_interpolation_pair_under_linearized_poly(data):
    code = data.draw(codes())
    y = vector(data.draw, code.field, code.n)
    for t in range(code.radius + 1):
        pair = code._interpolate(code.field.coeff_array(y), t)
        if pair is None:
            # n equations in 2t + k + 1 unknowns; a kernel vector with V = 0
            # would make N, of q-degree below n, vanish on n independent points
            assert 2 * t + code.k + 1 <= code.n
            continue
        V, N = (LinearizedPoly(code.field, code.field.from_coeff_array(X)) for X in pair)
        assert 0 <= V.qdegree <= t and N.qdegree <= t + code.k - 1
        for g, v in zip(code.points, y):
            assert V(v) == N(g)


@oracle_settings
@given(st.data())
def test_left_divide_inverts_compose(data):
    code = data.draw(codes())
    field = code.field
    # V has two nonzero coefficients, so no V o g with g != 0 is a monomial
    t = data.draw(st.integers(1, max(1, code.radius)))
    V = LinearizedPoly(field, [element(data.draw, field, nonzero=True)] + vector(data.draw, field, t - 1)
                       + [element(data.draw, field, nonzero=True)])
    f = LinearizedPoly(field, vector(data.draw, field, code.k))
    N = field.coeff_array(V.compose(f).coeffs)
    quotient = left_divide(field, N, field.coeff_array(V.coeffs))
    assert LinearizedPoly(field, field.from_coeff_array(quotient)) == f
    # N plus a nonzero monomial is V o f + delta x^(q^i): not a left multiple of V
    i = data.draw(st.integers(0, len(N)))
    perturbed = np.zeros((max(len(N), i + 1), field.m), dtype=np.int64)
    perturbed[: len(N)] = N
    perturbed[i] = (perturbed[i] + field.coeff_array([element(data.draw, field, nonzero=True)])[0]) % field.p
    with pytest.raises(ValueError):
        left_divide(field, perturbed, field.coeff_array(V.coeffs))


def erasure_outcome(solve):
    try:
        return solve()
    except DecodingFailure as exc:
        return str(exc)


def reference_erasure_solve(code, y, support):
    """solve_erasures on element-wise syndromes of parity_check_matrix()."""
    field = code.field
    rows = code.parity_check_matrix().entries
    gens = [[field.coerce(e) for e in row] for row in support.entries]
    return erasure_outcome(lambda: solve_erasures(field, lambda v: _syndrome(rows, v, field.zero), y, gens))


@oracle_settings
@given(st.data())
def test_erasure_solve_matches_solve_erasures(data):
    """Supports are empty, span the error's rows, carry extra rows (which
    can hide a codeword), or include the rows of a codeword's expansion;
    words are a codeword plus an error in the support's span, or arbitrary
    (mostly inconsistent)."""
    code = data.draw(codes())
    field, n = code.field, code.n
    base = field.base
    kind = data.draw(st.sampled_from(["empty", "span", "extra", "codeword"]))
    r = 0 if kind == "empty" else data.draw(st.integers(1, n))
    rows = data.draw(st.lists(st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n), min_size=r, max_size=r))
    if kind == "codeword" and code.k:
        w = code.encode(vector(data.draw, field, code.k))
        rows += [[e.val for e in row] for row in expand_to_base(field, w).entries]
    elif kind == "extra":
        rows += data.draw(st.lists(st.lists(st.integers(0, field.p - 1), min_size=n, max_size=n), max_size=2))
    support = ExactMatrix(base, rows, cols=n)
    sent = code.encode(vector(data.draw, field, code.k))
    if data.draw(st.booleans()):
        x = vector(data.draw, field, len(rows))
        y = [c + sum((xk * row[i] for xk, row in zip(x, rows)), field.zero) for i, c in enumerate(sent)]
    else:
        y = vector(data.draw, field, n)
    assert erasure_outcome(lambda: code.decode_erasures(y, support)) == reference_erasure_solve(code, y, support)


def test_erasure_solve_reaches_every_outcome():
    """The four outcomes of a seeded GF(23^8) instance, each equal to the
    reference solve's."""
    field = FIELDS[-1]
    code = GabidulinCode(field, 4)
    rng = SplitMix64(20)
    sent = code.encode(code.random_message(rng))
    error_rows = [[rng.randint(0, 22) for _ in range(code.n)] for _ in range(2)]
    noise = [field.random_element(rng) for _ in range(code.n)]
    x = [field.random_element(rng) for _ in error_rows]
    y = [c + sum((xk * row[i] for xk, row in zip(x, error_rows)), field.zero) for i, c in enumerate(sent)]
    hiding = error_rows + [[e.val for e in row] for row in expand_to_base(field, code.minimum_rank_codeword()).entries]
    cases = [
        (y, error_rows, sent),
        (y, [], "nonzero syndrome with empty erasure support"),
        ([a + b for a, b in zip(sent, noise)], error_rows[:1], "erasure system inconsistent: inconsistent system"),
        (y, hiding, "erasure support hides a codeword"),
    ]
    for word, rows, expected in cases:
        support = ExactMatrix(field.base, rows, cols=code.n)
        got = erasure_outcome(lambda: code.decode_erasures(word, support))
        assert got == expected == reference_erasure_solve(code, word, support)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_decode_errors_is_sound_on_any_word(data):
    code = data.draw(codes(SMALL, min_radius=data.draw(st.integers(0, 1))))
    field = code.field
    t = data.draw(st.sampled_from(range(code.radius + 1)))
    sent = code.encode(vector(data.draw, field, code.k))
    # rank at most r below n, so that decodes also succeed; any word at r = n
    r = data.draw(st.sampled_from(range(code.n + 1)))
    if r == code.n:
        noise = vector(data.draw, field, code.n)
    else:
        span = [element(data.draw, field, nonzero=True) for _ in range(r)]
        coords = data.draw(st.lists(st.integers(0, field.p - 1), min_size=r * code.n, max_size=r * code.n))
        noise = [sum((z * c for z, c in zip(span, coords[i::code.n])), field.zero) for i in range(code.n)]
    y = [a + b for a, b in zip(sent, noise)]
    try:
        c, e = code.decode_errors(y, t)
    except DecodingFailure:
        # within the radius the codeword is unique and must be found
        assert expand_to_base(field, noise).rank() > t
        return
    assert all(not sum((h * v for h, v in zip(row, c)), field.zero) for row in code.parity_check_matrix().entries)
    assert [a + b for a, b in zip(c, e)] == y
    assert expand_to_base(field, e).rank() <= t
    if expand_to_base(field, noise).rank() <= t:
        assert c == sent
