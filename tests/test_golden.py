"""Golden outputs of tower arithmetic and of an rm-roundtrip fixture dump.

The files under tests/golden were written by an earlier version of the
package whose towers stored Fraction coordinates; the integer storage must
reproduce them byte for byte.  Regenerate them only for a deliberate change
of results: `python tests/test_golden.py` rewrites golden/elements.tsv,
and `rankfold rm-roundtrip --m 3 --r 1 --trials 3 --seed 3 --jobs 1
--dump-fixtures tests/golden/rm3_fixtures.jsonl` the fixture file.
"""

import json
from fractions import Fraction
from pathlib import Path

from rankfold import cli, mq_field
from rankfold.linalg import ExactMatrix

GOLDEN = Path(__file__).parent / "golden"
RM_ARGV = ["rm-roundtrip", "--m", "3", "--r", "1", "--trials", "3", "--seed", "3", "--jobs", "1"]


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
            values += [x.mul_by_alpha(i), F.alpha(i).inverse(), (x * y).galois([i])]
        if F.m:
            values += list(x.split()) + x.blocks_over(1) + [x.split()[1].embed(F)]
        M = ExactMatrix(F, [[x, y, z, F.one], [y, z, x * y, x], [x + y, y + z, x * y + z, x + F.one]])
        values += [e for row in M.rref()[0].entries for e in row]
        out[repr(F)] = [F.element_to_json(v) for v in values]
    return out


def _dump(elements: dict) -> str:
    """One line per element: the tower, then the element's JSON."""
    return "".join(f"{tower}\t{json.dumps(e)}\n" for tower, values in elements.items() for e in values)


def test_element_json_matches_the_golden_file():
    assert _dump(golden_elements()) == (GOLDEN / "elements.tsv").read_text()


def test_rm_fixture_dump_matches_the_golden_file(tmp_path, capsys):
    out = tmp_path / "fixtures.jsonl"
    assert cli.main(RM_ARGV + ["--dump-fixtures", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / "rm3_fixtures.jsonl").read_bytes()


if __name__ == "__main__":
    (GOLDEN / "elements.tsv").write_text(_dump(golden_elements()))
