"""Program side of the benchmark: runs teleportsim in a process of its own.

    child.py points SPEC.json      library calls, one JSON result on stdout
    child.py simulate SPANS.json ARGS...
                                   the `simulate` CLI with spans installed

The parent sets the thread environment and PYTHONPATH before starting it.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_point(point, dt):
    """One average_over_inputs call: (wall s, CPU s, record dict or error)."""
    from teleportsim import EncodingKind, EvolutionConfig, metrics

    protocol, alpha, gamma = point
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        # looked up on the module each call, so installed spans take effect
        rec = metrics.average_over_inputs(EncodingKind(protocol), alpha, gamma,
                                          EvolutionConfig(dt))
    except Exception as exc:  # counted as a failed point by the parent
        return (time.perf_counter() - t0, _cpu_s() - cpu0,
                {"error": f"{type(exc).__name__}: {exc}"})
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    out = {f: getattr(rec, f) for f in rec.__dataclass_fields__
           if isinstance(getattr(rec, f), float)}
    out["failed_inputs"] = list(rec.failed_inputs)
    return wall, cpu, out


def points(spec_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import procs
    from tracer import Tracer

    for protocol, alpha, gamma, dt in spec["warmup"]:
        _run_point((protocol, alpha, gamma), dt)

    dt, budget, trace = spec["dt"], spec["seconds"], spec["trace"]
    allowed = set(spec["cpus"])
    results, traced_results = [], []
    tracer = Tracer()
    timed_wall = traced_wall = timed_cpu = 0.0
    last = 0.0
    for round_points in spec["rounds"][:spec["max_rounds"]]:
        if results and timed_wall + traced_wall + last > budget:
            break
        start = timed_wall + traced_wall
        for p in round_points:
            procs.pin(0, allowed)
            wall, cpu, rec = _run_point(p, dt)
            timed_wall += wall
            timed_cpu += cpu
            results.append({"point": p, "wall": wall, "record": rec})
        if trace:
            tracer.install()
            try:
                for p in round_points:
                    procs.pin(0, allowed)
                    wall, _, rec = _run_point(p, dt)
                    traced_wall += wall
                    traced_results.append({"point": p, "wall": wall, "record": rec})
            finally:
                tracer.uninstall()
        last = timed_wall + traced_wall - start
    json.dump({"results": results, "traced": traced_results,
               "timed_wall": timed_wall, "traced_wall": traced_wall,
               "cpu_s": timed_cpu, "peak_rss_mb": procs.peak_rss_mb(),
               "trace": tracer.totals()}, sys.stdout)
    sys.stdout.write("\n")


def simulate(spans_path: str, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    t0 = time.perf_counter()
    from teleportsim import cli
    tracer.self_s["cli.import"] += time.perf_counter() - t0
    tracer.install()
    try:
        rc = tracer.span("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w") as fh:
        json.dump(tracer.totals(), fh)
    return rc


if __name__ == "__main__":
    if sys.argv[1] == "points":
        points(sys.argv[2])
    elif sys.argv[1] == "simulate":
        sys.exit(simulate(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
