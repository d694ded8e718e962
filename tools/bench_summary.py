"""Write BENCH_<label>.json: the benchmark and the Tier-1 suite, summarized.

    python3 tools/bench_summary.py --label pr27 --runs 5 [--seconds 20]

Run from any directory; it works on the checkout it lives in. It runs
`bench/run.py --trace 0` for each workload with seeds 1..N, reads each run's
`bench/out/result-<workload>-seed<N>-trace0.json`, and runs the Tier-1 suite
once. The JSON holds, per workload and end-to-end metric, the median, the
quartiles and n; `correct`, `attempted` and `failed` of each run; the first
run's environment block; the Tier-1 wall time and its outcome counts; and
the git commit with a flag for uncommitted changes to tracked files.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("point-fine", "sweep-grid")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def spread(values: list[float]) -> dict:
    """Median, quartiles and count of one metric's values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(label: str, records: list[dict], tier1: dict, git: dict) -> dict:
    """The BENCH file's content from bench/run.py result records (each as
    its result JSON reads), the Tier-1 outcome and the git state."""
    workloads = {}
    for name in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == name]
        metrics = {}
        for run in runs:
            for key, metric in run["result"]["metrics"].items():
                metrics.setdefault(key, {"unit": metric["unit"], "values": []})
                metrics[key]["values"].append(metric["value"])
        workloads[name] = {
            "metrics": {key: {"unit": m["unit"], **spread(m["values"])}
                        for key, m in metrics.items()},
            "runs": [{"seed": r["seed"],
                      **{k: r["result"][k] for k in ("correct", "attempted", "failed")}}
                     for r in runs],
        }
    return {"label": label, "git": git,
            "environment": records[0]["environment"],
            "workloads": workloads, "tier1": tier1}


def parse_pytest_summary(text: str) -> dict:
    """Outcome counts from pytest's last summary line, such as
    '311 passed, 1 failed in 28.52s'."""
    lines = [ln for ln in text.splitlines() if re.search(r" in [\d.]+s", ln)]
    found = re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)",
                       lines[-1] if lines else "")
    return {("errors" if kind == "error" else kind): int(count)
            for count, kind in found}


def run_tier1() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    return {"command": "PYTHONPATH=src python " + " ".join(TIER1[1:]),
            "wall_s": time.perf_counter() - start,
            **parse_pytest_summary(done.stdout)}


def git_state() -> dict:
    def git(*args):
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=45.0)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    records = []
    for seed in range(1, args.runs + 1):
        for workload in WORKLOADS:
            subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                            "--seed", str(seed), "--seconds", str(args.seconds),
                            "--trace", "0"], cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            path = ROOT / "bench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
            records.append(json.loads(path.read_text()))
    summary = summarize(args.label, records, run_tier1(), git_state())
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
