"""Golden outputs of tower and finite-field arithmetic, of an
rm-roundtrip fixture dump, of seeded doubled-Gabidulin decodes and of
seeded decodes of a doubled code doubled again.

elements.tsv and rm3_fixtures.jsonl were written by an earlier version of
the package whose towers stored Fraction coordinates, rm5_fixtures.jsonl
by one that encoded term by term, and plotkin_decodes.jsonl by one whose
Gabidulin decoders worked element by element in the erasure solve and the
left division, plotkin_nested.jsonl by one whose matrices over GF(q)
held their entries as tuples of elements, and plotkin_large_q.jsonl by one
whose matrices over GF(q^2) did, and gf_elements.tsv by one with a
separate element class, each with its own arithmetic, for each of GF(p),
GF(p^2) and GF(p^m), and rm_decodes.jsonl by one whose matrices over Q
held their entries as tuples of tower elements; the current code must
reproduce them byte for byte.
Regenerate them only for a deliberate change of results:
`python tests/test_golden.py` rewrites golden/elements.tsv,
golden/gf_elements.tsv, golden/plotkin_decodes.jsonl, golden/plotkin_nested.jsonl,
golden/plotkin_large_q.jsonl and golden/rm_decodes.jsonl, and `rankfold rm-roundtrip --m M --r R
--trials 3 --seed 3 --jobs 1 --dump-fixtures tests/golden/rmM_fixtures.jsonl`
the fixture files, with (M, R) = (3, 1) and (5, 2).
"""

import json
from fractions import Fraction
from pathlib import Path

from rankfold import DecodingFailure, PlotkinCode, SplitMix64, cli, derive_seed, gabidulin_plotkin, mq_field
from rankfold.gabidulin import GabidulinCode, GabidulinMatrixCode
from rankfold.gf import ExtField, PrimeField, QuadExtField
from rankfold.linalg import ExactMatrix, random_rank_matrix
from rankfold.reedmuller import RMCode

GOLDEN = Path(__file__).parent / "golden"
# fixture file -> (m, r); the m = 5 encodes run a five-level butterfly
RM_FIXTURES = {"rm3_fixtures.jsonl": (3, 1), "rm5_fixtures.jsonl": (5, 2)}
# (q, m, k1, k2, a, trials, seed): the plotkin-square code with its square
# and its non-square twist, and a q = 3 code whose decodes sometimes fail
PLOTKIN_CAMPAIGNS = [(23, 8, 6, 4, 1, 4, 7), (23, 8, 6, 4, 5, 4, 7), (3, 4, 3, 2, 1, 300, 11)]
# (inner code, outer a, t, trials, seed) of PlotkinCode(P, P, a, radius=t)
# with P = gabidulin_plotkin(*inner): its C component is a PlotkinCode, so
# the erasures go through MatrixCode.decode_erasures_ext; a = 5 is a
# non-residue mod 23, which folds over GF(23^2)
NESTED_CAMPAIGNS = [((7, 4, 3, 2), 1, 1, 4, 5), ((23, 6, 4, 2), 1, 1, 2, 5), ((23, 6, 4, 2), 5, 1, 1, 5)]
# (q, m, k1, k2, a, trials, seed) of gabidulin_plotkin: 1518500213 is the
# largest prime with poly_fits_int64(q, 4), so the array sums over GF(q^4)
# reach the edge of int64, at a square and a non-square twist; at
# 2147483659 the sums over GF(q^2) do not fit int64, so its matrices hold
# Python ints in object arrays, through the same kernels
LARGE_Q_CAMPAIGNS = [(1518500213, 4, 2, 0, 1, 20, 9), (1518500213, 4, 2, 0, 2, 20, 9), (2147483659, 1, 1, 1, 2, 5, 9)]
# (m, r, words, seed) of the seeded Reed-Muller decodes on cli.standard_tower(m):
# each trial decodes a word within the radius (at m = 4 also with its error
# scaled by -5/6) and one carrying two sampled errors, which is over the radius
RM_DECODES = [(3, 1, 3, 27), (4, 1, 3, 27), (5, 1, 2, 27), (5, 3, 2, 27)]
# the finite fields of gf_elements.tsv: characteristic 2, a small and a
# large prime (2147483659, whose GF(p^2) matrices hold Python ints), GF(23^2)
# with the twist 5, and the extensions of the benchmark and of the int64 edge
GF_FIELDS = [lambda: PrimeField(2), lambda: PrimeField(23), lambda: PrimeField(2147483659),
             lambda: QuadExtField(23, 5), lambda: QuadExtField(2147483659), lambda: ExtField(2, 5),
             lambda: ExtField(23, 8), lambda: ExtField(1518500213, 4)]


def golden_elements() -> dict:
    """element_to_json of a fixed list of elements and of their sums,
    products, inverses, structured operations and eliminations, keyed by
    tower."""
    out = {}
    for gens in [(), (2,), (2, 3, 5, 7), (Fraction(2, 3), -5, Fraction(7, 2))]:
        F = mq_field(gens)
        x = F.element([Fraction(3 * j - 7, j + 1) for j in range(F.dim)])
        y = F.element([Fraction(j * j - 5, 2 * j + 3) for j in range(F.dim)])
        z = F.element([Fraction(j % 3, 4) for j in range(F.dim)])
        values = [F.zero, F.one, x, y, z, x + y, x - y, -x, y - y, x * y, x * z, z * z,
                  x.inverse(), y.inverse(), x / y, x ** 3, y ** -2, x.scale(Fraction(-3, 4)),
                  x + 2, Fraction(1, 3) - y, Fraction(5, 7) * y]
        for i in range(1, F.m + 1):
            values += [x * F.alpha(i), F.alpha(i).inverse(), (x * y).galois([i])]
        if F.m:
            values += list(x.split()) + x.blocks_over(1) + [x.split()[1].embed(F)]
        M = ExactMatrix(F, [[x, y, z, F.one], [y, z, x * y, x], [x + y, y + z, x * y + z, x + F.one]])
        values += [e for row in M.rref()[0].entries for e in row]
        out[repr(F)] = [F.element_to_json(v) for v in values]
    return out


def _gf_element(F, coeffs: list):
    """The element of GF(p), GF(p^2) or GF(p^m) with these coefficients."""
    if isinstance(F, PrimeField):
        return F.element(coeffs[0])
    return F.element(*coeffs) if isinstance(F, QuadExtField) else F.element(coeffs)


def golden_gf_elements() -> str:
    """One line per value: the field, what was computed, and its
    element_to_json.  The values are a fixed list of elements, their sums,
    differences, negations, products, inverses, quotients and powers
    -3..5, int and base-element coercions and mixed operations, square
    roots, conjugates and Frobenius powers where the field has them, and
    three seeded random_element draws."""
    lines = []
    for make in GF_FIELDS:
        F = make()
        p, m = F.p, F.degree
        named = {"0": F.zero, "1": F.one,
                 "x": _gf_element(F, [(7 * j + 3) % p for j in range(m)]),
                 "y": _gf_element(F, [(p - 1 - 2 * j) % p for j in range(m)]),
                 "z": _gf_element(F, [(j * j * 982451653 + 5) % p for j in range(m)])}
        out = list(named.items())
        for a, x in named.items():
            out.append((f"-{a}", -x))
            for b, y in named.items():
                out += [(f"{a}+{b}", x + y), (f"{a}-{b}", x - y), (f"{a}*{b}", x * y)]
                if y:
                    out.append((f"{a}/{b}", x / y))
            if x:
                out.append((f"1/{a}", x.inverse()))
                out += [(f"{a}^{k}", x ** k) for k in range(-3, 6)]
        x = named["x"]
        for k in (0, 1, -1, 5, p, 2 * p + 3, -(p + 2), 10 ** 30):
            out += [(f"coerce({k})", F.coerce(k)), (f"x+{k}", x + k), (f"{k}+x", k + x), (f"x-{k}", x - k),
                    (f"{k}-x", k - x), (f"x*{k}", x * k), (f"{k}*x", k * x)]
            if k % p:
                out += [(f"x/{k}", x / k), (f"{k}/x", k / x)]
        if hasattr(F, "base"):
            for k in (0, 1, p - 1, 12345):
                b = F.base.element(k)
                out += [(f"coerce(b{k})", F.coerce(b)), (f"x+b{k}", x + b), (f"b{k}+x", b + x),
                        (f"x-b{k}", x - b), (f"b{k}-x", b - x), (f"x*b{k}", x * b), (f"b{k}*x", b * x)]
                if k % p:
                    out += [(f"x/b{k}", x / b), (f"b{k}/x", b / x)]
        if isinstance(F, PrimeField):
            for a, v in named.items():
                out += [(f"sqrt({a}*{a})", F.sqrt(v * v))]
                if F.is_square(v):
                    out.append((f"sqrt({a})", F.sqrt(v)))
        if isinstance(F, QuadExtField):
            out += [(f"conj({a})", v.conjugate()) for a, v in named.items()]
            out.append(("sqrt_nonresidue", F.sqrt_nonresidue))
        if isinstance(F, ExtField):
            out.append(("reduce", F.element([(5 * j + 1) % p for j in range(2 * m + 1)])))
            out += [(f"frob({a},{i})", F.frobenius(v, i)) for a, v in named.items() for i in range(m + 1)]
        rng = SplitMix64(7)
        out += [(f"random{i}", F.random_element(rng)) for i in range(3)]
        lines += [f"{F!r}\t{label}\t{json.dumps(F.element_to_json(v))}\n" for label, v in out]
    return "".join(lines)


def _dump(elements: dict) -> str:
    """One line per element: the tower, then the element's JSON."""
    return "".join(f"{tower}\t{json.dumps(e)}\n" for tower, values in elements.items() for e in values)


def _decode_lines(code, head: dict, trials: int, seed: int, t: int, successes: bool = True) -> list:
    """One JSON line per seeded trial of plotkin-roundtrip's error model,
    `head` then the seed and trial: the decoded codeword and error, or the
    failure reason; `successes` False keeps only the failures."""
    lines = []
    for index in range(trials):
        rng = SplitMix64(derive_seed(seed, index))
        C = code.random_codeword(rng)
        E = random_rank_matrix(code.field, rng, code.rows, code.cols, t)
        line = dict(head, seed=seed, trial=index)
        try:
            got = code.decode(C + E)
        except DecodingFailure as exc:
            line["reason"] = str(exc)
        else:
            if not successes:
                continue
            line["codeword"], line["error"] = map(_rows, got)
        lines.append(json.dumps(line) + "\n")
    return lines


def golden_plotkin_decodes() -> str:
    """Seeded doubled-Gabidulin decodes over GF(23), and the failure
    reasons at q = 3, where only the failures are kept."""
    lines = []
    for q, m, k1, k2, a, trials, seed in PLOTKIN_CAMPAIGNS:
        code = gabidulin_plotkin(q, m, k1, k2, a)
        lines += _decode_lines(code, {"code": [q, m, k1, k2, a]}, trials, seed, code.radius, successes=q != 3)
    return "".join(lines)


def _rows(M) -> list:
    return [[e.val for e in row] for row in M.entries]


def golden_plotkin_nested() -> str:
    """Seeded decodes of a doubled code doubled again."""
    lines = []
    for inner, a, t, trials, seed in NESTED_CAMPAIGNS:
        P = gabidulin_plotkin(*inner)
        lines += _decode_lines(PlotkinCode(P, P, a, radius=t), {"inner": list(inner), "a": a, "t": t}, trials, seed, t)
    return "".join(lines)


def golden_plotkin_large_q() -> str:
    """Seeded doubled-Gabidulin decodes at large primes, and 20 decodes of
    the plotkin-twisted benchmark's code: Gab(6, 5) and Gab(6, 2) over
    GF(23^6) with the non-square twist 5 and radius 1."""
    lines = []
    for q, m, k1, k2, a, trials, seed in LARGE_Q_CAMPAIGNS:
        code = gabidulin_plotkin(q, m, k1, k2, a)
        lines += _decode_lines(code, {"code": [q, m, k1, k2, a]}, trials, seed, code.radius)
    f = ExtField(23, 6)
    twisted = PlotkinCode(GabidulinMatrixCode(GabidulinCode(f, 5)), GabidulinMatrixCode(GabidulinCode(f, 2)), 5,
                          radius=1)
    lines += _decode_lines(twisted, {"code": "plotkin-twisted"}, 20, 9, 1)
    return "".join(lines)


def _rm_decode_line(code, head: dict, Y) -> str:
    """The decode report of Y as one JSON line after `head`."""
    rep = code.decode(Y)
    line = dict(head, success=rep.success, reason=rep.reason, trace=rep.trace)
    for name in ("codeword", "recovered_error", "error_rows"):
        M = getattr(rep, name)
        line[name] = None if M is None else M.to_json()
    return json.dumps(line) + "\n"


def golden_rm_decodes() -> str:
    """Seeded Reed-Muller decodes: per trial a sampled error within the
    radius, the same error scaled by -5/6 at m = 4 (a lift with
    denominators), and the sum of two sampled errors; then the word of
    test_reedmuller's fold-rank-drop test, which the certificate refuses
    and the exact decoder decodes."""
    lines = []
    for m, r, words, seed in RM_DECODES:
        code = RMCode(cli.standard_tower(m), r)
        for index in range(words):
            rng = SplitMix64(derive_seed(seed, index))
            C = code.encode(code.random_message(rng))
            E, E2 = code.sample_error(rng), code.sample_error(rng)
            head = {"m": m, "r": r, "seed": seed, "trial": index}
            lines.append(_rm_decode_line(code, dict(head, error="sampled"), C + E))
            if m == 4:
                lines.append(_rm_decode_line(code, dict(head, error="sampled * -5/6"), C + E.scale(Fraction(-5, 6))))
            lines.append(_rm_decode_line(code, dict(head, error="two sampled"), C + E + E2))
    code = RMCode(cli.standard_tower(4), 1)
    K, h, a = code.base_field, code.size // 2, code.field.gens[-1]
    rng = SplitMix64(127)
    u = [rng.randint(-3, 3) for _ in range(h)]
    X = ExactMatrix(K, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(code.size)])
    E = X @ ExactMatrix(K, [u + [0] * h, [0] * h + [a * e for e in u]])
    lines.append(_rm_decode_line(code, {"m": 4, "r": 1, "error": "fold-rank-drop"},
                                 code.encode(code.random_message(rng)) + E))
    return "".join(lines)


def test_element_json_matches_the_golden_file():
    assert _dump(golden_elements()) == (GOLDEN / "elements.tsv").read_text()


def test_finite_field_elements_match_the_golden_file():
    assert golden_gf_elements() == (GOLDEN / "gf_elements.tsv").read_text()


def test_rm_fixture_dump_matches_the_golden_file(tmp_path, capsys):
    for name, (m, r) in RM_FIXTURES.items():
        out = tmp_path / name
        argv = ["rm-roundtrip", "--m", str(m), "--r", str(r), "--trials", "3", "--seed", "3", "--jobs", "1"]
        assert cli.main(argv + ["--dump-fixtures", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), name


def test_plotkin_decodes_match_the_golden_file():
    assert golden_plotkin_decodes() == (GOLDEN / "plotkin_decodes.jsonl").read_text()


def test_nested_plotkin_decodes_match_the_golden_file():
    assert golden_plotkin_nested() == (GOLDEN / "plotkin_nested.jsonl").read_text()


def test_large_prime_plotkin_decodes_match_the_golden_file():
    assert golden_plotkin_large_q() == (GOLDEN / "plotkin_large_q.jsonl").read_text()


def test_rm_decodes_match_the_golden_file():
    assert golden_rm_decodes() == (GOLDEN / "rm_decodes.jsonl").read_text()


if __name__ == "__main__":
    (GOLDEN / "elements.tsv").write_text(_dump(golden_elements()))
    (GOLDEN / "gf_elements.tsv").write_text(golden_gf_elements())
    (GOLDEN / "plotkin_decodes.jsonl").write_text(golden_plotkin_decodes())
    (GOLDEN / "plotkin_nested.jsonl").write_text(golden_plotkin_nested())
    (GOLDEN / "plotkin_large_q.jsonl").write_text(golden_plotkin_large_q())
    (GOLDEN / "rm_decodes.jsonl").write_text(golden_rm_decodes())
