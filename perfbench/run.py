"""rankfold benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload rm-tower --seed 1 --seconds 20 --trace 0

Run from anywhere; the library is taken from `src/` next to this
directory.  With --trace 0 the workload runs untraced in a few fresh
processes, one after the other, and the end-to-end metrics of
BENCHMARK.json are printed; with --trace 1 a separate traced run prints
the per-layer metrics and writes a span file.  Every line but the last is for people; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  A full
record (metadata, input digest, failure tally) goes to
perfbench-out/<workload>/seed<seed>-trace<0|1>.json.  The exit code is 0
only when every output checked out: no wrong result and no decoding
failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import input_digest, min_samples_for, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOAD_NAMES = ("rm-tower", "plotkin-square", "plotkin-twisted", "fold-mc")
# Operations in the traced run: a fixed count, so per-layer counts repeat
# exactly for a seed.  Sized to a few seconds untraced on one core.
TRACE_OPS = {"rm-tower": 20, "plotkin-square": 60, "plotkin-twisted": 20, "fold-mc": 30}
# Fresh worker processes in an untraced run; the median of their set-up
# times is setup_s.
CHUNKS = 5
# Every child process must end by then, so the run ends within 180 s.
BUDGET_S = 170.0
IMPORTS = {"import.rankfold_s": "rankfold", "import.numpy_s": "numpy", "import.scipy_stats_s": "scipy.stats"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # One process, one thread: no BLAS or OpenMP pool competes for the cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(cmd, env, deadline) -> tuple[float, str]:
    """Run a child to completion; returns (launch time, last stdout line)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{cmd[1:]} printed nothing (exit {proc.returncode})")
    if proc.returncode not in (0, 1):
        raise BenchError(f"{cmd[1:]} exited {proc.returncode}")
    return t0, lines[-1]


def run_worker(extra, args, env, deadline) -> tuple[float, dict]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)] + extra
    t0, line = launch(cmd, env, deadline)
    return t0, json.loads(line)


def time_import(module: str, env, deadline) -> float:
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    return float(launch([sys.executable, "-c", code], env, deadline)[1])


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        st = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    if sha.returncode:
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(st.stdout.strip())}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def problems(res) -> list[str]:
    """Why a run's outputs do not check out; empty when all of them do.

    Every workload stays within its decoder's stated conditions, so a
    reported decoding failure is a defect, just as a wrong codeword is.
    """
    out = [res["wrong"]] if res["wrong"] is not None else []
    failed = sum(res.get("failures", {}).values())
    if failed:
        out.append(f"{failed} operations failed: {res['failures']}")
    return out


def timed_run(args, env, deadline) -> dict:
    """The untraced run: CHUNKS fresh worker processes, one after the other,
    each timed for seconds / CHUNKS; the last keeps going until p90 has
    enough samples.  Every chunk's set-up is one setup_s sample, so the
    samples spread over the whole run."""
    need = min_samples_for(90)
    res = {"wrong": None, "op_ms": [], "wall_ms": [], "items": 0, "failures": {}, "input_hashes": [],
           "maxrss_kb": 0, "setup_samples_s": [], "checks": []}
    for k in range(CHUNKS):
        extra = ["--start", str(len(res["op_ms"])), "--seconds", str(args.seconds / CHUNKS)]
        if k == CHUNKS - 1:
            extra += ["--min-ops", str(need - len(res["op_ms"]))]
        t0, part = run_worker(extra, args, env, deadline)
        res["versions"] = part["versions"]
        if part["wrong"] is not None:
            res["wrong"] = part["wrong"]
            return res
        res["setup_samples_s"].append(part["ready"] - t0)
        for key in ("op_ms", "wall_ms", "input_hashes"):
            res[key] += part[key]
        res["items"] += part["items"]
        for reason, n in part["failures"].items():
            res["failures"][reason] = res["failures"].get(reason, 0) + n
        res["maxrss_kb"] = max(res["maxrss_kb"], part["maxrss_kb"])
        res["checks"].append(part["checks"])
    return res


def measure(args, env) -> tuple[dict, dict]:
    """Returns (metric values by name, worker details)."""
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        values = {name: time_import(mod, env, deadline) for name, mod in IMPORTS.items()}
        spans = args.out / args.workload / f"seed{args.seed}-spans.jsonl"
        _, res = run_worker(["--trace-ops", str(TRACE_OPS[args.workload]), "--spans", str(spans)],
                            args, env, deadline)
        if res["wrong"] is None:
            values.update(res["layers"])
        return values, res
    res = timed_run(args, env, deadline)
    if res["wrong"] is not None:
        return {}, res
    lat, wall = res["op_ms"], res["wall_ms"]
    res.update({"samples": len(lat), "op_ms.p50": statistics.median(lat),
                "throughput_per_s": res["items"] / (sum(wall) / 1e3)})
    values = {
        "setup_s": statistics.median(res["setup_samples_s"]),
        "op_ms.p90": percentile(lat, 90),
        "roundtrip_ms.p90": percentile(wall, 90),
        "peak_rss_mb": res["maxrss_kb"] / 1024,
    }
    return values, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rankfold benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=ROOT / "perfbench-out", help="directory for result and span files")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rankfold" / "__init__.py").is_file():
        print(f"error: no rankfold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    (args.out / args.workload).mkdir(parents=True, exist_ok=True)

    try:
        values, res = measure(args, child_env())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed_why = problems(res)
    correct = not failed_why
    if res["wrong"] is None:
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            print(f"error: metrics not produced: {missing}", file=sys.stderr)
            return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    attempted = len(res.get("op_ms", ()))
    failed = sum(res.get("failures", {}).values())
    hashes = res.get("input_hashes", [])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "trace-on" if args.trace else "trace-off",
        "time_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git": git_state(),
        "python": platform.python_version(),
        "versions": res["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "correct": correct,
        "wrong": res["wrong"],
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else None,
        "failures": res.get("failures", {}),
        "digest": input_digest(hashes) if hashes else None,
        "digest_ops": len(hashes),
        "details": {k: v for k, v in res.items()
                    if k not in ("layers", "versions", "failures", "wrong", "input_hashes")},
        "metrics": metrics,
    }
    path = args.out / args.workload / f"seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} {record['mode']} git={record['git']['sha']} "
          f"dirty={record['git']['dirty']} python={record['python']} numpy={res['versions']['numpy']} "
          f"scipy={res['versions']['scipy']} nproc={record['nproc']} cpu={record['cpu']!r}")
    print(f"# digest {record['digest']} over {record['digest_ops']} operations; "
          f"failed {record['failed']}/{attempted} {record['failures']}")
    for why in failed_why:
        print(f"# NOT CORRECT: {why}")
    if "samples" in res:
        print(f"# percentiles over {res['samples']} samples; recorded without a bound: "
              f"op_ms.p50 = {res['op_ms.p50']:.6g} ms, throughput_per_s = {res['throughput_per_s']:.6g} 1/s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"# record: {path}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
