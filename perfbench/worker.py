"""One workload process of the benchmark; run.py launches it.

Prints a single JSON object on its last stdout line.  `ready` is the
CLOCK_MONOTONIC time at which set-up ended (import, building the field and
code, one untimed warm-up operation) and the first timed operation began.

    python3 perfbench/worker.py --workload rm-tower --seed 1 --start 0 --seconds 4
    python3 perfbench/worker.py --workload rm-tower --seed 1 --trace-ops 20 --spans spans.jsonl
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

# A worker keeps going past --seconds until it has --min-ops operations,
# but stops here so the whole benchmark ends within its time limit.
HARD_CAP_S = 120.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, default=0, help="index of the first timed operation")
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--trace-ops", type=int, default=0, help="run this many operations untraced, then traced")
    ap.add_argument("--spans", help="span file written by a traced run")
    args = ap.parse_args(argv)

    import numpy
    import scipy

    from workloads import WARMUP_INDEX, WORKLOADS, Tally, WrongAnswer, run_ops

    out = {"versions": {"numpy": numpy.__version__, "scipy": scipy.__version__}, "wrong": None}
    try:
        workload = WORKLOADS[args.workload](args.seed)
        workload.op(WARMUP_INDEX, False)
        out["ready"] = time.monotonic()
        tally = Tally()
        if args.trace_ops:
            keep_going = lambda done, _: done < args.trace_ops  # noqa: E731
        else:
            keep_going = lambda done, elapsed: (  # noqa: E731
                (elapsed < args.seconds or done < args.min_ops) and elapsed < HARD_CAP_S)
        run_ops(workload, keep_going, tally, digest=True, start=args.start)
        if args.trace_ops:
            out.update(_traced(workload, args.trace_ops, tally, args.spans))
        out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        out["checks"] = workload.finish()
    except WrongAnswer as exc:
        out["wrong"] = str(exc)
        print(json.dumps(out))
        return 1
    out["op_ms"] = [op.latency_s * 1e3 for op in tally.ops]
    out["wall_ms"] = [op.wall_s * 1e3 for op in tally.ops]
    out["items"] = sum(op.items for op in tally.ops)
    out["failures"] = tally.failures
    out["input_hashes"] = tally.input_hashes
    print(json.dumps(out))
    return 0


def _traced(workload, n: int, untraced, spans_path) -> dict:
    """Rerun the same n operations under the tracer; per-layer metrics plus
    the traced/untraced wall-time ratio."""
    from tracing import Tracer
    from workloads import Tally, WrongAnswer, run_ops

    tracer = Tracer()
    traced = Tally()
    tracer.install()
    try:
        run_ops(workload, lambda done, _: done < n, traced, digest=False,
                on_op=lambda index: setattr(tracer, "trial", index))
    finally:
        tracer.uninstall()
    checked, bad = tracer.verify_samples()
    if bad:
        raise WrongAnswer(f"modmat ranks differ from ExactMatrix.rank: {bad[:3]}")
    layers = tracer.layer_metrics()
    untraced_s = sum(op.wall_s for op in untraced.ops)
    layers["trace.overhead_share"] = sum(op.wall_s for op in traced.ops) / untraced_s - 1
    if spans_path:
        tracer.write_spans(spans_path)
    untraced.ops.extend(traced.ops)
    for reason, k in traced.failures.items():
        untraced.failures[reason] = untraced.failures.get(reason, 0) + k
    return {"layers": layers, "trace_ops": n, "spans": len(tracer.spans), "modmat_rank_checks": checked}


if __name__ == "__main__":
    sys.exit(main())
