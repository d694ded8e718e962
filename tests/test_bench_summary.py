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
