import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_summary.py"
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)


def fake_record(workload, seed, points_per_s, correct=True, failed=0):
    """A result record as bench/run.py writes it, with two metrics."""
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "environment": {"nproc": 2, "numpy": "x"},
        "faults": [],
        "result": {"correct": correct, "attempted": 40, "failed": failed,
                   "metrics": {"points_per_s": {"value": points_per_s,
                                                "unit": "points/s"},
                               "round_s": {"value": 1 / points_per_s,
                                           "unit": "s"}}},
    }


def test_summary_takes_median_and_quartiles_per_workload_and_metric():
    records = [fake_record("point-fine", s, v) for s, v in enumerate([10, 40, 20, 30, 50], 1)]
    records.append(fake_record("sweep-grid", 1, 4.0, correct=False, failed=2))
    tier1 = {"wall_s": 30.0, "passed": 311, "failed": 1}
    git = {"commit": "abc", "dirty": False}
    out = bench_summary.summarize("x", records, tier1, git)
    assert json.loads(json.dumps(out)) == out
    assert list(out["workloads"]) == ["point-fine", "sweep-grid"]
    fine = out["workloads"]["point-fine"]
    assert fine["metrics"]["points_per_s"] == {
        "unit": "points/s", "median": 30, "q1": 20, "q3": 40, "n": 5}
    assert fine["metrics"]["round_s"]["median"] == pytest.approx(1 / 30)
    assert [r["seed"] for r in fine["runs"]] == [1, 2, 3, 4, 5]
    grid = out["workloads"]["sweep-grid"]
    assert grid["metrics"]["points_per_s"] == {
        "unit": "points/s", "median": 4.0, "q1": 4.0, "q3": 4.0, "n": 1}
    assert grid["runs"] == [{"seed": 1, "correct": False, "attempted": 40,
                             "failed": 2}]
    assert out["environment"] == records[0]["environment"]
    assert (out["label"], out["git"], out["tier1"]) == ("x", git, tier1)


@pytest.mark.parametrize("text, counts", [
    ("....\n311 passed, 1 failed in 28.52s\n", {"passed": 311, "failed": 1}),
    ("== 3 passed, 2 skipped, 1 error in 0.50s ==",
     {"passed": 3, "skipped": 2, "errors": 1}),
    ("no summary", {}),
])
def test_pytest_summary_line_is_parsed(text, counts):
    assert bench_summary.parse_pytest_summary(text) == counts


def test_main_writes_the_run_length_and_count(tmp_path, monkeypatch):
    """A benchmark run that exits non-zero is recorded by its seed and exit
    code, and its stale result file is not read; the other runs are kept,
    the file is written with the run length and count, and the tool exits 1."""
    out = tmp_path / "bench" / "out"
    out.mkdir(parents=True)
    monkeypatch.setattr(bench_summary, "ROOT", tmp_path)
    monkeypatch.setattr(bench_summary, "run_tier1", lambda: {"passed": 1})
    monkeypatch.setattr(bench_summary, "git_state", lambda: {"commit": "abc"})
    # left by an earlier run of the seed that fails
    (out / "result-sweep-grid-seed2-trace0.json").write_text(
        json.dumps(fake_record("sweep-grid", 2, 1000.0)))

    def fake_run(cmd, **kwargs):
        arg = {cmd[i]: cmd[i + 1] for i in range(2, len(cmd), 2)}
        workload, seed = arg["--workload"], int(arg["--seed"])
        assert arg["--seconds"] == "7.0"
        if (workload, seed) == ("sweep-grid", 2):
            return bench_summary.subprocess.CompletedProcess(cmd, 1)
        (out / f"result-{workload}-seed{seed}-trace0.json").write_text(
            json.dumps(fake_record(workload, seed, 10.0 * seed)))
        return bench_summary.subprocess.CompletedProcess(cmd, 0)

    monkeypatch.setattr(bench_summary.subprocess, "run", fake_run)
    assert bench_summary.main(["--label", "t", "--runs", "3", "--seconds", "7"]) == 1
    summary = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert (summary["seconds"], summary["runs"]) == (7.0, 3)
    grid = summary["workloads"]["sweep-grid"]
    assert grid["runs"][1] == {"seed": 2, "exit_code": 1}
    assert [r["seed"] for r in grid["runs"]] == [1, 2, 3]
    assert grid["metrics"]["points_per_s"] == {
        "unit": "points/s", "median": 20.0, "q1": 15.0, "q3": 25.0, "n": 2}
    assert summary["workloads"]["point-fine"]["metrics"]["points_per_s"]["n"] == 3
    assert summary["environment"] == fake_record("point-fine", 1, 10.0)["environment"]
