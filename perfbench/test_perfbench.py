"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from compare import diff  # noqa: E402
from measure import input_digest, min_samples_for, percentile, self_times  # noqa: E402
from rankfold import DecodingFailure, plotkin, reedmuller  # noqa: E402
from run import problems  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import REASON_PREFIX, WORKLOADS, FoldMC, Tally, WrongAnswer, run_ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _make(name, seed=3):
    return FoldMC(seed, trials=64) if name == "fold-mc" else WORKLOADS[name](seed)


def _run(workload, n, digest=True, on_op=None):
    tally = Tally()
    run_ops(workload, lambda done, _: done < n, tally, digest, on_op)
    return tally


def test_p90_needs_ten_samples_beyond():
    assert min_samples_for(90) == 100
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(20)), 50) == 9


def test_self_time_on_synthetic_tree():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("leaf", 15, 25, 1),
        ("b", 50, 90, 0),
    ]
    assert self_times(spans) == [30, 20, 10, 40]


def test_layer_totals_count_recursion_once():
    tracer = Tracer()
    decode = tracer._name_id("reedmuller.decode")
    rank = tracer._name_id("linalg.rank")
    tracer.spans = [
        [decode, 0, 100, -1, 0],
        [decode, 10, 60, 0, 0],  # recursive inner decode
        [rank, 20, 30, 1, 0],  # inner verification
        [rank, 70, 95, 0, 0],  # outermost verification
    ]
    m = tracer.layer_metrics()
    assert m["reedmuller.decode.s"] == pytest.approx(100e-9)
    assert m["reedmuller.decode.self_s"] == pytest.approx((100 - 50 - 25 + 50 - 10) * 1e-9)
    assert m["reedmuller.verify.s"] == pytest.approx(25e-9)


def test_same_seed_same_digest():
    for name in ("plotkin-square", "fold-mc"):
        digests = [input_digest(_run(_make(name, seed), 2).input_hashes) for seed in (5, 5, 6)]
        assert digests[0] == digests[1] != digests[2]


def test_digest_does_not_depend_on_process_boundaries():
    whole = _run(_make("plotkin-square"), 3).input_hashes
    parts = _run(_make("plotkin-square"), 1).input_hashes
    rest = Tally()
    run_ops(_make("plotkin-square"), lambda done, _: done < 2, rest, True, start=1)
    assert input_digest(whole) == input_digest(parts + rest.input_hashes)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_verifies(name):
    workload = _make(name)
    tally = _run(workload, 2)
    assert len(tally.ops) == 2 and tally.failed == 0 and len(tally.input_hashes) == 2
    assert all(op.latency_s > 0 and op.items > 0 for op in tally.ops)
    workload.finish()


def test_wrong_codeword_fails_the_run():
    workload = _make("plotkin-square")
    workload.decode = lambda Y: (Y, Y - Y)
    with pytest.raises(WrongAnswer):
        _run(workload, 1)


def test_failures_tallied_by_reason_prefix_and_fail_the_run():
    workload = _make("plotkin-square")

    def fail(Y):
        raise DecodingFailure("x" * 100)

    workload.decode = fail
    tally = _run(workload, 2)
    assert tally.failures == {"x" * REASON_PREFIX: 2}
    assert problems({"wrong": None, "failures": tally.failures}) != []
    assert problems({"wrong": None, "failures": {}}) == []


def test_untraced_fold_run_checks_kernel_ranks(monkeypatch):
    workload = _make("fold-mc")
    _run(workload, 1)
    assert workload.finish()["rank_checks"] > 0
    # A kernel that answers quickly but wrongly: every fold has full rank.
    monkeypatch.setattr(plotkin, "batch_rank_mod", lambda mats, p: np.full(len(mats), mats.shape[1]))
    workload = _make("fold-mc")
    _run(workload, 1)
    with pytest.raises(WrongAnswer):
        workload.finish()


def _record(digest="d", failed=0, correct=True, setup=1.0):
    return {"workload": "w", "seed": 1, "digest": digest, "digest_ops": 100, "failed": failed,
            "correct": correct, "metrics": {"setup_s": {"value": setup, "unit": "s"}}}


@pytest.mark.parametrize("change", [{"digest": "e"}, {"failed": 1}, {"correct": False}])
def test_diff_refuses_changed_inputs_or_outcomes(tmp_path, change):
    for side, rec in (("a", _record()), ("b", _record(**change))):
        (tmp_path / side / "w").mkdir(parents=True)
        (tmp_path / side / "w" / "seed1-trace0.json").write_text(json.dumps(rec))
    assert diff(tmp_path / "a", tmp_path / "b", SPEC) == 3


@pytest.mark.parametrize("name", ["fold-mc", "plotkin-twisted"])
def test_traced_smoke_run(name):
    original = reedmuller.RMCode.decode
    workload = _make(name)
    workload.op(0, False)
    tracer = Tracer()
    tracer.install()
    try:
        _run(workload, 1, digest=False, on_op=lambda i: setattr(tracer, "trial", i))
    finally:
        tracer.uninstall()
    assert reedmuller.RMCode.decode is original
    checked, bad = tracer.verify_samples()
    assert bad == []
    assert checked > 0 if name == "fold-mc" else checked == 0
    layers = tracer.layer_metrics()
    wanted = {m["name"] for m in SPEC["per_layer"]}
    assert wanted - set(layers) == {n for n in wanted if n.startswith("import.")} | {"trace.overhead_share"}
    busy = "modmat.batch_rank_quad.s" if name == "fold-mc" else "gabidulin.decode_erasures_ext.s"
    assert layers[busy] > 0 and layers["exactfield.mul.count"] == 0
    assert {trial for *_, trial in tracer.spans} == {0}


def test_no_result_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fold-mc", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
