"""The benchmark's tracer (bench/tracer.py) patches names in the package's
modules; a rename or deletion there must fail here, not only in traced
benchmark runs."""

import importlib.util
from pathlib import Path

from teleportsim import metrics
from teleportsim.evolution import EvolutionConfig
from teleportsim.protocol import EncodingKind

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
tracer_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_module)


def test_tracer_installs_every_span_and_uninstalls():
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patched = list(tracer._undo)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
        metrics.average_over_inputs(EncodingKind.SCRAMBLING, 0.6, 0.03,
                                    EvolutionConfig(0.25))
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    # one call per state, for all its cuts: 4 at t2 (X+, Y+, Z+, Z-), 1 at
    # t1 on qubits 2..7, 6 on the heralded states
    assert tracer.totals()["counts"]["tensor_core.eigvalsh_calls"] == 4 + 1 + 6
    # three evolutions per point: the Bell pairs, the encode, the rotations
    assert tracer._evolve_calls == 3
    # each evolution span records time, so an engine refactor that stops
    # calling a patched name cannot empty a per-layer metric unnoticed
    self_s = tracer.totals()["self_s"]
    for span in ("evolution.evolve.bell", "evolution.evolve.encode",
                 "evolution.evolve.rotate", "evolution.slot_unitary"):
        assert self_s.get(span, 0.0) > 0, span
    assert "metrics.total_negativity" in tracer.totals()["self_s"]
    # cut_negativities calls the public log_negativity, so its span records
    assert "metrics.log_negativity" in tracer.totals()["self_s"]
