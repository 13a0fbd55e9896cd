"""The array path of GabidulinCode against the element path: the Moore
array against ExtField.frobenius, encoding against LinearizedPoly, the
interpolation pair under LinearizedPoly.__call__, and a soundness property
of decode_errors on arbitrary received words."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from rankfold import DecodingFailure
from rankfold.gabidulin import GabidulinCode, LinearizedPoly
from rankfold.gf import ExtField, expand_to_base

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
        V, N = pair
        assert 0 <= V.qdegree <= t and N.qdegree <= t + code.k - 1
        for g, v in zip(code.points, y):
            assert V(v) == N(g)


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
