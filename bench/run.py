"""Benchmark of teleportsim, measured from outside the package.

    python3 bench/run.py --workload point-fine|sweep-grid --seed N \\
        --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The line before
it records the thread environment, BLAS build, CPU model, nproc and load.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and every child: with the default
# pools, CPU time was twice the wall time and runs did not repeat.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import procs  # noqa: E402
from reference import ReferenceModel  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("point-fine", "sweep-grid")
SETUP_STARTS = 4  # before and again after the timed part
FINE_DT = 0.01
FINE_GAMMA_MAX = 0.06
FINE_MAX_ROUNDS = 40  # keeps the reference checks of one run under a minute
WARMUP = [("scrambling", 0.5, 0.03, 0.25), ("swap", 0.5, 0.03, 0.25)]
SWEEP_DT = 0.04
SWEEP_ALPHAS = (0.0, 0.5, 1.0)
POLL_S = 0.005
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s", "points_per_s": "points/s", "point_s.scrambling": "s",
    "point_s.swap": "s", "round_s": "s", "cpu_s_per_point": "s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> (unit, span whose self time it is, or counter)
PER_LAYER = {
    "cli.import_s": ("s/point", "cli.import"),
    "cli.main_s": ("s/point", "cli.main"),
    "cli.parse_config_s": ("s/point", "cli.parse_config"),
    "sweep.run_sweep_s": ("s/point", "sweep.run_sweep"),
    "sweep.compute_row_s": ("s/point", "sweep.compute_row"),
    "sweep.write_rows_s": ("s/point", "sweep.write_rows"),
    "sweep.write_rows_calls": ("count/point", "sweep.write_rows_calls"),
    "sweep.bytes_written": ("B/point", "sweep.bytes_written"),
    "sweep.emit_figure_s": ("s/point", "sweep.emit_figure"),
    "metrics.average_over_inputs_s": ("s/point", "metrics.average_over_inputs"),
    "metrics.total_negativity_s": ("s/point", "metrics.total_negativity"),
    "metrics.log_negativity_s": ("s/point", "metrics.log_negativity"),
    "protocol.build_schedule_s": ("s/point", "protocol.build_schedule"),
    "protocol.project_pair_s": ("s/point", "protocol.project_pair"),
    "gates.load_schedule_s": ("s/point", "gates.load_schedule"),
    "gates.step_unitary_s": ("s/point", "gates.step_unitary"),
    "gates.step_unitary_calls": ("count/point", "gates.step_unitary_calls"),
    "evolution.evolve_s.bell": ("s/point", "evolution.evolve.bell"),
    "evolution.evolve_s.encode": ("s/point", "evolution.evolve.encode"),
    "evolution.evolve_s.rotate": ("s/point", "evolution.evolve.rotate"),
    "evolution.slot_unitary_s": ("s/point", "evolution.slot_unitary"),
    "evolution.trotter_steps": ("count/point", "evolution.trotter_steps"),
    "evolution.gflop": ("GFLOP/point", "evolution.gflop"),
    "tensor_core.eigvalsh_s": ("s/point", "tensor_core.eigvalsh"),
    "tensor_core.eigvalsh_calls": ("count/point", "tensor_core.eigvalsh_calls"),
    "tensor_core.partial_transpose_s": ("s/point", "tensor_core.partial_transpose"),
    "tensor_core.partial_trace_s": ("s/point", "tensor_core.partial_trace"),
    "trace.overhead_s": ("s/point", None),
    "trace.accounted_share": ("ratio", None),
}

SETUP_CODE = (
    "import teleportsim.cli\n"
    "from teleportsim.protocol import EncodingKind, build_schedule\n"
    "for kind in EncodingKind:\n"
    "    build_schedule(kind, 0.5)\n"
)


class Run:
    """State of one benchmark run: its children, checks and counts."""

    def __init__(self, args):
        self.args = args
        self.work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.faults: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), self.env.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.env.pop("SIM_THREADS", None)
        self.cpus = os.sched_getaffinity(0)

    def child(self, cmd, pin=None, **kwargs) -> subprocess.CompletedProcess:
        """Run a program process to its end on the least contended CPU."""
        return subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                              preexec_fn=pin or self.pinned(), **kwargs)

    def pinned(self):
        """A preexec_fn pinning the child to the CPU that is fastest now."""
        cpu = procs.fastest_cpu(self.cpus)
        return lambda: os.sched_setaffinity(0, {cpu})


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh
                       if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def measure_setup(run: Run) -> list[float]:
    """Wall times of fresh interpreters importing the CLI and building both
    schedules."""
    times = []
    for _ in range(SETUP_STARTS):
        pin = run.pinned()
        t0 = time.perf_counter()
        run.child([sys.executable, "-c", SETUP_CODE], pin=pin, check=True)
        times.append(time.perf_counter() - t0)
    return times


def children_cpu_s() -> float:
    """User plus system CPU seconds of all waited-for children so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# --------------------------------------------------------------------- inputs

def fine_rounds(seed: int, count: int) -> list[list[tuple[str, float, float]]]:
    """Seeded, non-repeating (protocol, alpha, gamma) points, in rounds of
    one scrambling and one SWAP point."""
    rng = random.Random(seed)
    seen = set()
    rounds = []
    while len(rounds) < count:
        pair = []
        for protocol in ("scrambling", "swap"):
            point = (protocol, rng.uniform(0.0, 1.0),
                     FINE_GAMMA_MAX * (1.0 - rng.random()))
            if point in seen:
                break
            pair.append(point)
        if len(pair) == 2:
            seen.update(pair)
            rounds.append(pair)
    return rounds


def sweep_gamma(seed: int) -> float:
    return round(random.Random(seed).uniform(0.005, FINE_GAMMA_MAX), 6)


def sweep_config(gamma: float) -> str:
    return "\n".join([
        "protocols = scrambling,swap",
        f"alpha_min = {SWEEP_ALPHAS[0]}", f"alpha_max = {SWEEP_ALPHAS[-1]}",
        f"alpha_count = {len(SWEEP_ALPHAS)}",
        f"gamma_min = {gamma}", f"gamma_max = {gamma}", "gamma_count = 1",
        f"dt = {SWEEP_DT}",
        "output = sweep.csv",
    ]) + "\n"


# ------------------------------------------------------------------ workloads

def check_records(run: Run, model, labelled, dt: float) -> None:
    for point, record in labelled:
        protocol, alpha, gamma = point
        label = f"{protocol} alpha={alpha!r} gamma={gamma!r}"
        ref = model.record(protocol, alpha, gamma, dt)
        run.faults += checks.against_reference(label, record, ref)
        run.faults += checks.method_properties(label, record)


def point_fine(run: Run) -> tuple[dict, dict | None]:
    spec = {
        "rounds": fine_rounds(run.args.seed, FINE_MAX_ROUNDS),
        "max_rounds": FINE_MAX_ROUNDS, "warmup": WARMUP, "dt": FINE_DT,
        "seconds": run.args.seconds, "trace": bool(run.args.trace),
        "cpus": sorted(run.cpus),
    }
    spec_path = run.work / "points.json"
    spec_path.write_text(json.dumps(spec))
    proc = run.child([sys.executable, str(BENCH / "child.py"), "points",
                      str(spec_path)], check=True, capture_output=True, text=True)
    out = json.loads(proc.stdout.splitlines()[-1])

    results = out["results"] + out["traced"]
    run.attempted += len(results)
    run.failed += sum(1 for r in results if "error" in r["record"])
    good = []
    for r in out["results"]:
        if "error" in r["record"]:
            continue
        if r["record"]["failed_inputs"]:
            run.faults.append(f"{r['point']}: inputs {r['record']['failed_inputs']}"
                              " could not be heralded")
        good.append((tuple(r["point"]), r["record"]))
    for u, t in zip(out["results"], out["traced"]):
        if u["record"] != t["record"]:
            run.faults.append(f"{u['point']}: traced record differs from untraced")
    check_records(run, ReferenceModel(), good, FINE_DT)

    timed = out["results"]
    walls = {p: [r["wall"] for r in timed if r["point"][0] == p]
             for p in ("scrambling", "swap")}
    rounds = [a["wall"] + b["wall"] for a, b in zip(timed[::2], timed[1::2])]
    e2e = {
        "points_per_s": len(timed) / out["timed_wall"],
        "point_s.scrambling": statistics.median(walls["scrambling"]),
        "point_s.swap": statistics.median(walls["swap"]),
        "round_s": statistics.median(rounds),
        "cpu_s_per_point": out["cpu_s"] / len(timed),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    layers = None
    if run.args.trace:
        n = len(out["traced"])
        layers = layer_metrics(out["trace"], n)
        layers["trace.overhead_s"] = (out["traced_wall"] - out["timed_wall"]) / n
        layers["trace.accounted_share"] = (
            sum(out["trace"]["self_s"].values()) / out["traced_wall"])
    return e2e, layers


class SweepResult:
    def __init__(self, out_dir: Path, wall: float, row_times: list[float],
                 cpu_s: float, peak_rss_mb: float):
        self.out_dir = out_dir
        self.wall = wall
        self.row_times = row_times
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.csv = (out_dir / "sweep.csv").read_bytes()


def run_sweep_once(run: Run, cfg_path: Path, index: int, spans: Path | None):
    """One `simulate --figure fig7` invocation; the write time of each row is
    read from the CSV, which the program rewrites after every row."""
    out_dir = run.work / f"sweep-{index}"
    cmd = ["-m", "teleportsim.cli"] if spans is None else [
        str(BENCH / "child.py"), "simulate", str(spans)]
    cmd = [sys.executable, *cmd, "--config", str(cfg_path), "--figure", "fig7",
           "--out", str(out_dir)]
    env = dict(run.env, SIM_THREADS="1")
    csv = out_dir / "sweep.csv"
    cpu0 = children_cpu_s()
    row_times: list[float] = []
    last_mtime = None
    rss = 0.0
    pin = run.pinned()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            preexec_fn=pin)
    try:
        while True:
            try:  # the last reading is after exec, since VmHWM only grows
                rss = procs.peak_rss_mb(proc.pid)
            except (OSError, ValueError):  # exited; a zombie has no memory
                pass
            done = proc.poll() is not None
            try:
                st = csv.stat()
            except FileNotFoundError:
                st = None
            if st is not None and st.st_mtime_ns != last_mtime:
                last_mtime = st.st_mtime_ns
                rows = sum(1 for ln in csv.read_text().splitlines()
                           if ln and not ln.startswith(("#", "protocol,")))
                row_times += [st.st_mtime_ns / 1e9] * (rows - len(row_times))
            if done:
                break
            if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                raise TimeoutError(f"sweep {index} exceeded {CHILD_TIMEOUT_S} s")
            time.sleep(POLL_S)
        wall = time.perf_counter() - t0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"simulate exited with {proc.returncode}")
    return SweepResult(out_dir, wall, row_times, children_cpu_s() - cpu0, rss)


def row_intervals(results: list[SweepResult], grid, protocol: str) -> list[float]:
    """Time between the write of each of the protocol's rows and the row before
    it, over all sweeps; the first row of a sweep also carries start-up."""
    return [r.row_times[i] - r.row_times[i - 1] for r in results
            for i, p in enumerate(grid) if p[0] == protocol and i > 0]


def sweep_grid(run: Run) -> tuple[dict, dict | None]:
    gamma = sweep_gamma(run.args.seed)
    cfg_path = run.work / "grid.cfg"
    cfg_path.write_text(sweep_config(gamma))
    grid = [(p, float(a), gamma) for p in ("scrambling", "swap")
            for a in np.linspace(SWEEP_ALPHAS[0], SWEEP_ALPHAS[-1], len(SWEEP_ALPHAS))]

    untraced, traced = [], []
    spans = []
    budget = run.args.seconds
    elapsed = last = 0.0
    while not untraced or elapsed + last <= budget:
        t0 = time.perf_counter()
        untraced.append(run_sweep_once(run, cfg_path, len(untraced), None))
        if run.args.trace:
            span_path = run.work / f"spans-{len(traced)}.json"
            traced.append(run_sweep_once(run, cfg_path, 1000 + len(traced), span_path))
            spans.append(json.loads(span_path.read_text()))
        last = time.perf_counter() - t0
        elapsed += last

    results = untraced + traced
    run.attempted += len(grid) * len(results)
    first = results[0]
    rows = checks.parse_sweep_csv(first.csv.decode())
    run.failed += sum(1 for r in rows if r["error"]) * len(results)
    run.faults += checks.sweep_rows(rows, grid, SWEEP_DT)
    run.faults += checks.t1_shared_per_gamma(rows)
    run.faults += checks.fig7_panels(str(first.out_dir), rows)
    for r in results[1:]:
        if r.csv != first.csv:
            run.faults.append(f"{r.out_dir.name}: CSV differs from {first.out_dir.name}")
        for panel in sorted(first.out_dir.glob("fig7_*.csv")):
            if (r.out_dir / panel.name).read_bytes() != panel.read_bytes():
                run.faults.append(f"{r.out_dir.name}: {panel.name} differs")
    good = [r for r in rows if not r["error"]]
    check_records(run, ReferenceModel(),
                  [((r["protocol"], r["alpha"], r["gamma"]), r) for r in good],
                  SWEEP_DT)

    n_points = len(grid) * len(untraced)
    total_wall = sum(r.wall for r in untraced)
    e2e = {
        "points_per_s": n_points / total_wall,
        "point_s.scrambling": statistics.median(row_intervals(untraced, grid,
                                                              "scrambling")),
        "point_s.swap": statistics.median(row_intervals(untraced, grid, "swap")),
        "round_s": statistics.median(r.wall for r in untraced),
        "cpu_s_per_point": sum(r.cpu_s for r in untraced) / n_points,
        "peak_rss_mb": max(r.peak_rss_mb for r in untraced),
    }
    layers = None
    if run.args.trace:
        merged = {"self_s": {}, "counts": {}}
        for s in spans:
            for kind in merged:
                for k, v in s[kind].items():
                    merged[kind][k] = merged[kind].get(k, 0.0) + v
        n = len(grid) * len(traced)
        traced_wall = sum(r.wall for r in traced)
        layers = layer_metrics(merged, n)
        layers["trace.overhead_s"] = (traced_wall - total_wall) / n
        layers["trace.accounted_share"] = (
            sum(merged["self_s"].values()) / traced_wall)
    return e2e, layers


def layer_metrics(totals: dict, points: int) -> dict:
    out = {}
    for name, (_, source) in PER_LAYER.items():
        if source is None:
            continue
        value = totals["self_s"].get(source, totals["counts"].get(source, 0.0))
        out[name] = value / points
    return out


# ----------------------------------------------------------------------- main

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in (ROOT / "src" / "teleportsim", ROOT / "tests" / "oracle.py")
               if not p.exists()]
    if missing:
        print(f"cannot run: {', '.join(map(str, missing))} not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "tests"))
    import oracle

    run = Run(args)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        run.faults += checks.oracle_agreement(oracle)
        setup = measure_setup(run)
        workload = point_fine if args.workload == "point-fine" else sweep_grid
        e2e, layers = workload(run)
        setup += measure_setup(run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    e2e["setup_s"] = statistics.median(setup)
    if args.trace:
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": not run.faults, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    for fault in run.faults[:20]:
        print(f"FAULT {fault}", file=sys.stderr)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "faults": run.faults, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
