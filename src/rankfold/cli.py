"""Seeded experiment harness for the rankfold codes.

Subcommands:

* rm-roundtrip: encode / corrupt / decode campaigns for the recursive
  fold decoder over multiquadratic towers, with optional JSON fixture
  dump and replay;
* plotkin-roundtrip: the same campaign for the doubled Gabidulin codes
  over GF(q);
* fold-prob: Monte Carlo estimate of the fold rank-drop probability;
* selftest: quick structural self-checks.

Reports are JSON lines with a "schema" header; all randomness flows from
the --seed through per-trial derived seeds, so identical configurations
produce byte-identical reports except for the final timings line.  Exit
codes: 0 on success, 1 when a validation or round-trip expectation
fails, 2 on I/O problems.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from multiprocessing import Pool

from .errors import DecodingFailure, RankfoldError
from .exactfield import mq_field
from .gf import ExtField, PrimeField, QuadExtField
from .linalg import ExactMatrix, random_rank_matrix
from .plotkin import (
    fold_drop_bound,
    fold_probability_experiment,
    gabidulin_plotkin,
    plotkin_dual_check,
    plotkin_encode,
)
from .reedmuller import DecodeReport, RMCode
from .rng import SplitMix64, derive_seed

SCHEMA = 1
TOWER_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def standard_tower(m: int):
    """Q(sqrt 2, sqrt 3, ..., sqrt p_m): the first m primes."""
    return mq_field(TOWER_PRIMES[:m])


def _write(path, lines) -> int:
    """Write `lines` as JSON lines to `path`: 0, or 2 after an error line."""
    try:
        with open(path, "w") as fh:
            fh.writelines(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 2
    return 0


def _emit(lines, out_path=None) -> int:
    sys.stdout.write("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    return _write(out_path, lines) if out_path else 0


def _campaign_args_ok(args) -> bool:
    """False, after an error line, when --jobs or --trials is out of range."""
    if args.jobs < 1 or args.trials < 0:
        print("error: need --jobs >= 1 and --trials >= 0", file=sys.stderr)
        return False
    return True


def _summary(trial_lines) -> dict:
    """Counts of exact successes, failures and verified-but-wrong answers."""
    successes = sum(1 for l in trial_lines if l["success"] and l["exact"])
    wrong = sum(1 for l in trial_lines if l["success"] and not l["exact"])
    return {
        "successes": successes,
        "failures": len(trial_lines) - successes - wrong,
        "wrong": wrong,
        "trials": len(trial_lines),
    }


def _report(header, trial_lines, summary, elapsed, out_path) -> int:
    """Emit a campaign: header, trial lines, summary and timings."""
    timings = {"total_s": elapsed, "mean_trial_s": elapsed / max(1, len(trial_lines))}
    return _emit([header, *trial_lines, summary, {"timings": timings}], out_path)


def _verdict(line: dict, code, C: ExactMatrix, E: ExactMatrix) -> dict:
    """`line` with the outcome of decoding Y = C + E: success and, on a
    success, exact when (C', E') == (C, E); on a failure, its reason."""
    try:
        got = code.decode(C + E)
        if isinstance(got, DecodeReport):  # RMCode reports a failure instead of raising
            if not got.success:
                raise DecodingFailure(got.reason)
            got = got.codeword, got.recovered_error
    except DecodingFailure as exc:
        return dict(line, success=False, reason=str(exc))
    return dict(line, success=True, exact=got == (C, E))


# Per-process campaign state: the code, the seed and the campaign's options.
_STATE: dict = {}


def _init(make_code, code_args, state):
    _STATE.update(state, code=make_code(*code_args))


def _run_trials(trial, trials, jobs, *initargs):
    """trial(i) for i < trials, in order, on at most `trials` worker
    processes, serially when that is at most one."""
    jobs = min(jobs, trials)
    if jobs <= 1:
        _init(*initargs)
        return [trial(i) for i in range(trials)]
    with Pool(jobs, initializer=_init, initargs=initargs) as pool:
        return pool.map(trial, range(trials))


# -- rm-roundtrip ----------------------------------------------------------------


def _rm_code(m, r):
    return RMCode(standard_tower(m), r)


def _rm_trial(index):
    code, rng = _STATE["code"], SplitMix64(derive_seed(_STATE["seed"], index))
    message = code.random_message(rng)
    C = code.encode(message)
    try:
        E = code.sample_error(rng, bound=_STATE["bound"])
    except RankfoldError as exc:
        return {"trial": index, "success": False, "reason": f"sampler: {exc}"}, None
    fixture = None
    if _STATE["dump"]:
        fixture = {
            "field": code.field.to_json(),
            "r": code.r,
            "m": code.m,
            "message": [code.field.element_to_json(x) for x in message],
            "error": E.to_json(),
            "expected": C.to_json(),
        }
    return _verdict({"trial": index}, code, C, E), fixture


def _rm_replay(path):
    """Decode instances from a fixture file instead of sampling."""
    from .serial import field_from_json

    lines = []
    with open(path) as fh:
        for index, raw in enumerate(fh):
            raw = raw.strip()
            if not raw:
                continue
            rec = json.loads(raw)
            try:
                field = field_from_json(rec["field"])
                code = RMCode(field, int(rec["r"]))
                message = [field.element_from_json(x) for x in rec["message"]]
                C = ExactMatrix.from_json(rec["expected"], code.base_field)
                E = ExactMatrix.from_json(rec["error"], code.base_field)
                C._same_shape(E)  # so that Y = C + E exists
                encodes = code.encode(message) == C
            except (KeyError, TypeError, ZeroDivisionError, RankfoldError) as exc:
                raise ValueError(f"record {index}: {exc!r}") from exc
            line = {"trial": index, "m": code.m, "r": code.r}
            if not encodes:
                lines.append(dict(line, success=False, reason="fixture: message does not encode to expected"))
            else:
                lines.append(_verdict(line, code, C, E))
    return lines


def cmd_rm_roundtrip(args) -> int:
    if not 0 <= args.r <= args.m <= len(TOWER_PRIMES):
        print(f"error: need 0 <= r <= m <= {len(TOWER_PRIMES)}", file=sys.stderr)
        return 1
    if not _campaign_args_ok(args):
        return 1
    least = 1 if args.r <= args.m - 2 else 0  # t > 0 needs a nonzero factor
    if args.bound < least:
        print("error: need --bound >= 1 when r <= m - 2" if least else "error: need --bound >= 0", file=sys.stderr)
        return 1
    if args.bound >= 2 ** 64:  # the sampler draws from [0, bound] by SplitMix64, at most 2^64 values
        print("error: need --bound < 2^64", file=sys.stderr)
        return 1
    header = {"schema": SCHEMA, "command": "rm-roundtrip"}
    t0 = time.perf_counter()
    fixtures = []
    if args.fixtures:
        # A replay decodes each record's own code; the sampling parameters
        # are unused, so the header does not report them.
        try:
            trial_lines = _rm_replay(args.fixtures)
        except OSError as exc:
            print(f"error: cannot read {args.fixtures}: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: malformed fixture file: {exc}", file=sys.stderr)
            return 2
        header["fixtures"] = os.path.basename(args.fixtures)
    else:
        header.update(m=args.m, r=args.r, trials=args.trials, bound=args.bound, seed=args.seed)
        state = {"seed": args.seed, "bound": args.bound, "dump": bool(args.dump_fixtures)}
        results = _run_trials(_rm_trial, args.trials, args.jobs, _rm_code, (args.m, args.r), state)
        trial_lines = [line for line, _ in results]
        fixtures = [fx for _, fx in results if fx is not None]
    elapsed = time.perf_counter() - t0
    if args.dump_fixtures and (rc := _write(args.dump_fixtures, fixtures)):
        return rc
    summary = _summary(trial_lines)
    # every trial is expected to round-trip under the sampled error model
    rc = _report(header, trial_lines, summary, elapsed, args.out)
    return rc or (0 if summary["successes"] == len(trial_lines) else 1)


# -- plotkin-roundtrip ------------------------------------------------------------


def _pk_trial(index):
    code, rng = _STATE["code"], SplitMix64(derive_seed(_STATE["seed"], index))
    C = code.random_codeword(rng)
    E = random_rank_matrix(code.field, rng, code.rows, code.cols, code.radius)
    return _verdict({"trial": index}, code, C, E)


def cmd_plotkin_roundtrip(args) -> int:
    if not _campaign_args_ok(args):
        return 1
    code_args = (args.q, args.m, args.k1, args.k2, args.a)
    try:
        code = gabidulin_plotkin(*code_args)
    except (RankfoldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    t = code.radius
    header = {
        "schema": SCHEMA,
        "command": "plotkin-roundtrip",
        "q": args.q,
        "m": args.m,
        "k1": args.k1,
        "k2": args.k2,
        "a": args.a,
        "t": t,
        "dim": code.dim,
        "trials": args.trials,
        "seed": args.seed,
    }
    t0 = time.perf_counter()
    trial_lines = _run_trials(_pk_trial, args.trials, args.jobs, gabidulin_plotkin, code_args, {"seed": args.seed})
    elapsed = time.perf_counter() - t0
    summary = _summary(trial_lines)
    summary["success_rate"] = summary["successes"] / args.trials if args.trials else 1.0
    summary["paper_bound"] = fold_drop_bound(args.q, args.m, t, code.field.is_square(code.a))
    # failures here are statistically expected (fold rank drops); only a
    # verified-but-different answer is a soundness violation
    rc = _report(header, trial_lines, summary, elapsed, args.out)
    return rc or (0 if summary["wrong"] == 0 else 1)


# -- fold-prob ----------------------------------------------------------------------


def cmd_fold_prob(args) -> int:
    header = {
        "schema": SCHEMA,
        "command": "fold-prob",
        "q": args.q,
        "m": args.m,
        "t": args.t,
        "trials": args.trials,
        "seed": args.seed,
    }
    t0 = time.perf_counter()
    try:
        a = 1 if args.square else PrimeField(args.q).smallest_nonresidue()
        stats = fold_probability_experiment(args.q, args.m, args.t, a, args.trials, args.seed)
    except (RankfoldError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    lines = [header, stats.to_json(), {"timings": {"total_s": elapsed}}]
    return _emit(lines, args.out)


# -- selftest ----------------------------------------------------------------------------


def _suite_structure():
    """Generator times parity-check transpose vanishes; dimensions match."""
    passed = total = 0
    from math import comb

    for m in range(0, 4):
        field = standard_tower(m)
        for r in range(-1, m + 1):
            code = RMCode(field, r)
            G = code.generator_matrix()
            H = code.parity_check_matrix()
            total += 2
            want = sum(comb(m, i) for i in range(r + 1)) if r >= 0 else 0
            if code.dim == want == G.rows:
                passed += 1
            if (G @ H.transpose()).is_zero():
                passed += 1
    return passed, total


def _suite_duality():
    passed = total = 0
    rng = SplitMix64(1718)
    for q in (5, 7):
        field = PrimeField(q)
        for _ in range(3):
            c_gens, d_gens = ([ExactMatrix(field, [[field.random_element(rng) for _ in range(2)] for _ in range(2)])
                               for _ in range(rng.randint(1, 3))] for _ in range(2))
            a = field.element(rng.randint(1, q - 1))
            total += 1
            if plotkin_dual_check(c_gens, d_gens, a, field, 2, 2):
                passed += 1
    return passed, total


def _suite_field_axioms():
    passed = total = 0
    rng = SplitMix64(2930)
    tower = standard_tower(2)
    samplers = [
        (PrimeField(23), lambda f: f.random_element(rng)),
        (QuadExtField(PrimeField(5)), lambda f: f.random_element(rng)),
        (ExtField(5, 3), lambda f: f.random_element(rng)),
        (tower, lambda f: f.random_element(rng, 9)),
        # past the int64 bound, and characteristic 2; appended so the draws above stay
        (QuadExtField(2147483659), lambda f: f.random_element(rng)),
        (ExtField(2, 5), lambda f: f.random_element(rng)),
    ]
    for field, sample in samplers:
        for _ in range(10):
            x, y, z = sample(field), sample(field), sample(field)
            total += 3
            if (x + y) * z == x * z + y * z:
                passed += 1
            if (x * y) * z == x * (y * z):
                passed += 1
            if not x or x * x.inverse() == field.one:
                passed += 1
    return passed, total


def _suite_encoders():
    passed = total = 0
    # vector-form encoding agrees with the generator matrix
    rng = SplitMix64(4142)
    for m, r in ((2, 1), (3, 1), (3, 2)):
        code = RMCode(standard_tower(m), r)
        G = code.generator_matrix()
        msg = code.random_message(rng)
        C = code.encode(msg)
        vec = [
            sum((mi * G.entries[i][j] for i, mi in enumerate(msg)), code.field.zero)
            for j in range(code.size)
        ]
        total += 1
        if code.vector_from_matrix(C) == vec:
            passed += 1
    # doubled-code assembly hits its frozen block patterns
    gf5 = PrimeField(5)
    I = ExactMatrix.identity(gf5, 2)
    Z = ExactMatrix.zeros(gf5, 2, 2)
    total += 2
    if plotkin_encode(2, I, Z, Z, Z) == ExactMatrix.block([[I, Z], [Z, I]]):
        passed += 1
    if plotkin_encode(2, Z, Z, I, Z) == ExactMatrix.block([[I, Z], [Z, I.scale(-1)]]):
        passed += 1
    # Gabidulin: the first-degree map evaluates points to themselves
    from .gabidulin import GabidulinCode

    F53 = ExtField(5, 3)
    gab = GabidulinCode(F53, 2)
    total += 1
    if gab.encode([F53.one, F53.zero]) == list(gab.points):
        passed += 1
    return passed, total


SELFTEST_SUITES = (
    ("structure", _suite_structure),
    ("duality", _suite_duality),
    ("field-axioms", _suite_field_axioms),
    ("encoders", _suite_encoders),
)


def cmd_selftest(args) -> int:
    t0 = time.perf_counter()
    lines = [{"schema": SCHEMA, "command": "selftest"}]
    ok = True
    for name, fn in SELFTEST_SUITES:
        passed, total = fn()
        lines.append({"suite": name, "passed": passed, "total": total})
        ok = ok and passed == total
    lines.append({"timings": {"total_s": time.perf_counter() - t0}})
    rc = _emit(lines, getattr(args, "out", None))
    if rc:
        return rc
    return 0 if ok else 1


# -- argument parsing -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rankfold", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rm-roundtrip", help="fold-decoder round-trip campaign")
    p.add_argument("--m", type=int, required=True, help="tower height (first m primes)")
    p.add_argument("--r", type=int, required=True, help="code order")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--bound", type=int, default=50, help="error entries drawn from [0, bound]")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out", help="also write the JSON-lines report here")
    p.add_argument("--dump-fixtures", help="write sampled instances to this JSON-lines file")
    p.add_argument("--fixtures", help="replay instances from this file instead of sampling")
    p.set_defaults(fn=cmd_rm_roundtrip)

    p = sub.add_parser("plotkin-roundtrip", help="doubled-Gabidulin round-trip campaign")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.add_argument("--a", type=int, default=1, help="twist scalar (default 1, a square)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_plotkin_roundtrip)

    p = sub.add_parser("fold-prob", help="Monte Carlo fold rank-drop estimate")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--square", action=argparse.BooleanOptionalAction, required=True,
                   help="--square folds with a=1; --no-square with the smallest non-residue")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fold_prob)

    p = sub.add_parser("selftest", help="quick structural self-checks")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
