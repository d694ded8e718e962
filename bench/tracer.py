"""Spans around calls into teleportsim's modules, installed from outside.

Each wrapped function records its self time (its duration minus the part its
traced callees cover) under a ``<module>.<function>`` name, plus a few counts
taken from the call's arguments. Totals stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

EVOLVE_PHASES = ("bell", "encode", "rotate")


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._stack: list[list[float]] = []
        self._evolve_calls = 0
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            stack.append([0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child_s = stack.pop()[0]
                self.self_s[span] += dur - child_s
                if stack:
                    stack[-1][0] += dur
                else:
                    self.root_s += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, after=None):
        fn = getattr(owner, attr)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, after))

    def _evolve_name(self, args):
        # average_over_inputs evolves the three protocol phases in order
        phase = EVOLVE_PHASES[self._evolve_calls % len(EVOLVE_PHASES)]
        self._evolve_calls += 1
        return f"evolution.evolve.{phase}"

    def _count_evolve(self, args, result):
        rho, _, _, cfg, t_from, t_to = args[:6]
        steps = round((t_to - t_from) / cfg.dt)
        d = rho.shape[-1]
        batch = rho.size // (d * d)
        self.counts["evolution.trotter_steps"] += steps
        # two complex d x d matmuls per input and step, 8 d^3 flop each
        self.counts["evolution.gflop"] += steps * batch * 2 * 8 * d ** 3 / 1e9

    def _count(self, key):
        def after(args, result):
            self.counts[key] += 1
        return after

    def _count_write(self, args, result):
        self.counts["sweep.write_rows_calls"] += 1
        self.counts["sweep.bytes_written"] += os.path.getsize(args[0])

    def install(self) -> None:
        from teleportsim import cli, evolution, gates, metrics, protocol, sweep

        self._patch(metrics, "average_over_inputs", "metrics.average_over_inputs")
        self._patch(sweep, "average_over_inputs", "metrics.average_over_inputs")
        self._patch(metrics, "total_negativity", "metrics.total_negativity")
        self._patch(metrics, "log_negativity", "metrics.log_negativity")
        self._patch(metrics, "hermitian_eigenvalues", "tensor_core.eigvalsh",
                    self._count("tensor_core.eigvalsh_calls"))
        self._patch(metrics, "partial_transpose", "tensor_core.partial_transpose")
        self._patch(metrics, "partial_trace", "tensor_core.partial_trace")
        self._patch(metrics, "evolve_array", self._evolve_name, self._count_evolve)
        self._patch(evolution, "slot_unitary", "evolution.slot_unitary")
        self._patch(protocol, "build_schedule", "protocol.build_schedule")
        self._patch(protocol, "project_pair", "protocol.project_pair")
        self._patch(gates, "load_schedule", "gates.load_schedule")
        self._patch(gates.GateSegment, "step_unitary", "gates.step_unitary",
                    self._count("gates.step_unitary_calls"))
        self._patch(sweep, "_compute_row", "sweep.compute_row")
        self._patch(sweep, "_write_rows", "sweep.write_rows", self._count_write)
        self._patch(cli, "parse_config", "cli.parse_config")
        self._patch(cli, "run_sweep", "sweep.run_sweep")
        self._patch(cli, "emit_figure_data", "sweep.emit_figure")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span of the given name."""
        return self._wrap(fn, name)(*args, **kwargs)

    def totals(self) -> dict:
        return {"self_s": dict(self.self_s), "counts": dict(self.counts),
                "root_s": self.root_s}
