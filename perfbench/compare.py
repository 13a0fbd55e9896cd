"""Summarise and compare benchmark records written by run.py.

    python3 perfbench/compare.py spread DIR
    python3 perfbench/compare.py diff BASE_DIR NEW_DIR

`spread` prints, per workload and end-to-end metric, the median over the
seeds in DIR and the quartile distance as a share of it, next to the
metric's bound from BENCHMARK.json.  `diff` compares two directories (one
per commit) seed by seed.  It refuses to report, with exit code 3, when
a seed's input digests or failure counts differ between the two sides,
or when a run on either side is not correct: then the workload itself
changed, or the program is at fault, and its times mean nothing.
Otherwise it prints each median's change in the "worse" direction and
exits 1 if any metric got worse by more than its bound.  Only untraced
records (trace0) are compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from measure import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{workload: {seed: record}} for the untraced records under directory."""
    out: dict = {}
    for path in sorted(directory.glob("*/seed*-trace0.json")):
        rec = json.loads(path.read_text())
        out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def _values(records, name):
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def _spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    return quartile_spread(values)


def spread(directory: Path, spec) -> int:
    for workload, by_seed in sorted(load(directory).items()):
        recs = list(by_seed.values())
        print(f"{workload}: {len(recs)} seeds, all correct: {all(r['correct'] for r in recs)}")
        for m in spec["end_to_end"]:
            vals = _values(recs, m["name"])
            if not vals:
                continue
            med, q1, q3, share = _spread(vals)
            flag = "" if share <= m["bound"] / 3 else ("  over bound/3" if share <= m["bound"] else "  OVER BOUND")
            print(f"  {m['name']:<18} median {med:12.6g} {m['unit']:<4} q1 {q1:10.6g} q3 {q3:10.6g} "
                  f"spread {share:6.3f} bound {m['bound']}{flag}")
    return 0


def diff(base_dir: Path, new_dir: Path, spec) -> int:
    base, new = load(base_dir), load(new_dir)
    mismatched = []
    for workload in sorted(set(base) & set(new)):
        seeds = set(base[workload]) & set(new[workload])
        if not seeds:
            mismatched.append(f"{workload}: no seed measured on both sides")
        for seed in sorted(seeds):
            a, b = base[workload][seed], new[workload][seed]
            for key in ("digest", "digest_ops", "failed"):
                if a.get(key) != b.get(key):
                    mismatched.append(f"{workload} seed {seed}: {key} differs")
            for side, rec in (("base", a), ("new", b)):
                if not rec["correct"]:
                    mismatched.append(f"{workload} seed {seed}: the {side} run is not correct")
    if mismatched:
        print("refusing to compare: the inputs or the outcomes differ", *mismatched, sep="\n  ")
        return 3
    worse_than_bound = False
    for workload in sorted(set(base) & set(new)):
        print(workload)
        for m in spec["end_to_end"]:
            bv, nv = _values(base[workload].values(), m["name"]), _values(new[workload].values(), m["name"])
            if not bv or not nv:
                continue
            bmed, _, _, bshare = _spread(bv)
            nmed = _spread(nv)[0]
            worse = (nmed - bmed) / bmed if m["better"] == "lower" else (bmed - nmed) / bmed
            if worse > m["bound"]:
                verdict, worse_than_bound = "WORSE THAN BOUND", True
            elif bshare > m["bound"]:
                verdict = "unresolved (base spread exceeds bound)"
            else:
                verdict = "within bound" if worse > 0 else "no worse"
            print(f"  {m['name']:<18} base {bmed:12.6g} new {nmed:12.6g} {m['unit']:<4} "
                  f"worse by {worse:+.3f} (bound {m['bound']}): {verdict}")
    return 1 if worse_than_bound else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 2 and argv[0] == "spread":
        return spread(Path(argv[1]), spec)
    if len(argv) == 3 and argv[0] == "diff":
        return diff(Path(argv[1]), Path(argv[2]), spec)
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
