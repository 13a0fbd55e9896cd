"""Experiment harness: exit codes, report shape, determinism, fixtures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankfold
from rankfold import cli


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.splitlines() if l.strip()]
    return code, lines


def drop_timings(lines):
    return [l for l in lines if "timings" not in l]


def test_selftest_passes(capsys):
    code, lines = run_main(["selftest"], capsys)
    assert code == 0
    assert lines[0]["schema"] == 1
    suites = {l["suite"]: l for l in lines if "suite" in l}
    assert set(suites) == {"structure", "duality", "field-axioms", "encoders"}
    assert all(l["passed"] == l["total"] for l in suites.values())


def test_selftest_detects_failure(capsys, monkeypatch):
    broken = cli.SELFTEST_SUITES + (("injected", lambda: (0, 1)),)
    monkeypatch.setattr(cli, "SELFTEST_SUITES", broken)
    code, lines = run_main(["selftest"], capsys)
    assert code == 1
    assert any(l.get("suite") == "injected" and l["passed"] == 0 for l in lines)


def test_rm_roundtrip_report(capsys):
    code, lines = run_main(
        ["rm-roundtrip", "--m", "3", "--r", "1", "--trials", "4", "--seed", "11", "--jobs", "1"],
        capsys,
    )
    assert code == 0
    header = lines[0]
    assert header["command"] == "rm-roundtrip" and header["schema"] == 1
    trials = [l for l in lines if "trial" in l]
    assert len(trials) == 4
    assert all(t["success"] and t["exact"] for t in trials)
    summary = [l for l in lines if "successes" in l][0]
    assert summary == {"successes": 4, "failures": 0, "wrong": 0, "trials": 4}
    assert "timings" in lines[-1]


def test_rm_roundtrip_validates_params(capsys):
    code, _ = run_main(["rm-roundtrip", "--m", "9", "--r", "1", "--jobs", "1"], capsys)
    assert code == 1


def test_rm_roundtrip_deterministic(capsys):
    argv = ["rm-roundtrip", "--m", "3", "--r", "0", "--trials", "3", "--seed", "5", "--jobs", "1"]
    code_a, lines_a = run_main(argv, capsys)
    code_b, lines_b = run_main(argv, capsys)
    assert code_a == code_b == 0
    assert drop_timings(lines_a) == drop_timings(lines_b)
    _, lines_c = run_main(argv[:-4] + ["--seed", "6", "--jobs", "1"], capsys)
    assert drop_timings(lines_c) != drop_timings(lines_a)


def test_rm_fixture_dump_and_replay(tmp_path, capsys):
    fx = tmp_path / "fixtures.jsonl"
    argv = [
        "rm-roundtrip", "--m", "3", "--r", "1", "--trials", "3",
        "--seed", "3", "--jobs", "1", "--dump-fixtures", str(fx),
    ]
    code, lines = run_main(argv, capsys)
    assert code == 0
    records = [json.loads(l) for l in fx.read_text().splitlines()]
    assert len(records) == 3
    assert all(
        set(rec) == {"field", "r", "m", "message", "error", "expected"} for rec in records
    )
    replay = ["rm-roundtrip", "--m", "3", "--r", "1", "--fixtures", str(fx), "--jobs", "1"]
    code, lines = run_main(replay, capsys)
    assert code == 0
    summary = [l for l in lines if "successes" in l][0]
    assert summary["successes"] == 3


def test_rm_fixture_errors(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    code, _ = run_main(
        ["rm-roundtrip", "--m", "3", "--r", "1", "--fixtures", str(missing), "--jobs", "1"],
        capsys,
    )
    assert code == 2
    zero = {"rows": 2, "cols": 2, "entries": [[["0"], ["0"]], [["0"], ["0"]]]}
    bad_records = [
        {"field": {"p": 5}},
        {"field": {"generators": ["2", "8"]}, "r": 0},  # 8 = 2 * 2^2 is a square in Q(sqrt 2)
        {"field": None, "r": 0},
        {"field": {"generators": ["2"]}, "r": 0, "message": [["0", "0"]],
         "expected": zero, "error": dict(zero, rows=3)},  # declared shape disagrees with the entries
    ]
    bad = tmp_path / "bad.jsonl"
    for record in bad_records:
        bad.write_text(json.dumps(record) + "\n")
        code = cli.main(["rm-roundtrip", "--m", "3", "--r", "1", "--fixtures", str(bad), "--jobs", "1"])
        captured = capsys.readouterr()
        assert code == 2, record
        assert captured.err.startswith("error: malformed fixture file")


def test_rm_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = [
        "rm-roundtrip", "--m", "3", "--r", "2", "--trials", "2",
        "--seed", "1", "--jobs", "1", "--out", str(out),
    ]
    code, lines = run_main(argv, capsys)
    assert code == 0
    file_lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert file_lines == lines


def test_out_write_failure_is_io_error(capsys):
    code, _ = run_main(
        ["rm-roundtrip", "--m", "3", "--r", "2", "--trials", "1", "--jobs", "1",
         "--out", "/nonexistent-dir/report.json"],
        capsys,
    )
    assert code == 2


def test_plotkin_roundtrip_report(capsys):
    code, lines = run_main(
        ["plotkin-roundtrip", "--q", "5", "--m", "4", "--k1", "3", "--k2", "2",
         "--trials", "5", "--seed", "7", "--jobs", "1"],
        capsys,
    )
    assert code == 0
    header = lines[0]
    assert header["t"] == 1 and header["dim"] == 40
    summary = [l for l in lines if "success_rate" in l][0]
    assert summary["paper_bound"] == pytest.approx(5.0 ** (1 - 4 - 1))
    assert summary["successes"] + summary["failures"] + summary["wrong"] == 5
    assert summary["wrong"] == 0


def test_plotkin_roundtrip_nonsquare_twist(capsys):
    code, lines = run_main(
        ["plotkin-roundtrip", "--q", "23", "--m", "8", "--k1", "6", "--k2", "4", "--a", "5",
         "--trials", "4", "--seed", "3", "--jobs", "1"],
        capsys,
    )
    assert code == 0
    assert lines[0]["t"] == 1
    summary = [l for l in lines if "successes" in l][0]
    assert summary["successes"] == summary["trials"] == 4 and summary["wrong"] == 0
    assert summary["paper_bound"] == pytest.approx(23.0 ** (2 * 1 - 2 * 8 - 2))


def test_plotkin_roundtrip_validates_params(capsys):
    code, _ = run_main(
        ["plotkin-roundtrip", "--q", "5", "--m", "8", "--k1", "6", "--k2", "2", "--jobs", "1"],
        capsys,
    )
    assert code == 1


RM_ARGS = ["rm-roundtrip", "--m", "3", "--r", "1"]
PK_ARGS = ["plotkin-roundtrip", "--q", "5", "--m", "4", "--k1", "3", "--k2", "2"]


@pytest.mark.parametrize("argv", [
    RM_ARGS + ["--jobs", "0"],
    RM_ARGS + ["--trials", "-3", "--jobs", "1"],
    PK_ARGS + ["--jobs", "0"],
    PK_ARGS + ["--trials", "-2", "--jobs", "1"],
])
def test_campaign_bad_counts_are_error_lines(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_fold_prob_report(capsys):
    code, lines = run_main(
        ["fold-prob", "--q", "5", "--m", "4", "--t", "0", "--trials", "200",
         "--square", "--seed", "7"],
        capsys,
    )
    assert code == 0
    stats = [l for l in lines if "drops" in l][0]
    assert stats["drops"] == 0 and stats["trials"] == 200
    assert stats["ci95"][0] == 0.0
    assert stats["square"] is True


def test_fold_prob_nonsquare(capsys):
    code, lines = run_main(
        ["fold-prob", "--q", "5", "--m", "4", "--t", "1", "--trials", "500",
         "--no-square", "--seed", "7"],
        capsys,
    )
    assert code == 0
    stats = [l for l in lines if "drops" in l][0]
    assert stats["square"] is False and stats["a"] == 2
    assert stats["paper_bound"] == pytest.approx(5.0 ** (2 - 8 - 2))


def test_fold_prob_validates_params(capsys):
    code, _ = run_main(
        ["fold-prob", "--q", "5", "--m", "4", "--t", "4", "--trials", "10",
         "--square", "--seed", "7"],
        capsys,
    )
    assert code == 1


@pytest.mark.parametrize("bad", [["--trials", "-5"], ["--q", "21"]])
def test_fold_prob_bad_input_is_an_error_line(capsys, bad):
    argv = ["fold-prob", "--q", "5", "--m", "4", "--t", "1", "--no-square"]
    code = cli.main(argv + bad)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_fold_prob_deterministic(capsys):
    argv = ["fold-prob", "--q", "5", "--m", "4", "--t", "1", "--trials", "2000",
            "--square", "--seed", "9"]
    _, lines_a = run_main(argv, capsys)
    _, lines_b = run_main(argv, capsys)
    assert drop_timings(lines_a) == drop_timings(lines_b)


def test_syndrome_bench(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, lines = run_main(
        ["syndrome-bench", "--m-max", "3", "--reps", "3", "--out", str(out)],
        capsys,
    )
    assert code == 0
    ratios = [l for l in lines if "median_ratio" in l][0]
    assert ratios["mismatches"] == 0
    assert set(ratios["median_ratio"]) == {"1", "2", "3"}
    rows = out.read_text().splitlines()
    assert rows[0] == "m,rep,naive_s,fast_s"
    assert len(rows) == 1 + 3 * 3


def test_console_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "rankfold.cli", "fold-prob", "--q", "5", "--m", "4",
         "--t", "0", "--trials", "50", "--square", "--seed", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert '"drops": 0' in proc.stdout


def test_import_leaves_scipy_out():
    src = str(Path(rankfold.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rankfold; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_parallel_jobs_match_serial(capsys):
    serial = ["rm-roundtrip", "--m", "3", "--r", "1", "--trials", "4", "--seed", "2", "--jobs", "1"]
    parallel = serial[:-1] + ["2"]
    _, lines_s = run_main(serial, capsys)
    _, lines_p = run_main(parallel, capsys)
    assert drop_timings(lines_s) == drop_timings(lines_p)
