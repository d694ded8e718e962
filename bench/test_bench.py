"""Tests of the benchmark's own checks, reference and spans.

    python3 -m pytest bench

Points run at dt = 0.5, so the whole file takes seconds.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import checks  # noqa: E402
import oracle  # noqa: E402
import reference  # noqa: E402
from run import sweep_config  # noqa: E402
from teleportsim import EncodingKind, EvolutionConfig, average_over_inputs  # noqa: E402
from teleportsim import cli  # noqa: E402
from tracer import Tracer  # noqa: E402

DT = 0.5
POINT = ("swap", 0.63, 0.047)


def _package_record(protocol, alpha, gamma, dt=DT) -> dict:
    rec = average_over_inputs(EncodingKind(protocol), alpha, gamma,
                              EvolutionConfig(dt))
    return {f: getattr(rec, f) for f in reference.FIELDS}


@pytest.fixture(scope="module")
def pair():
    return _package_record(*POINT), reference.ReferenceModel().record(*POINT, DT)


def test_reference_matches_oracle_noiseless():
    assert checks.oracle_agreement(oracle) == []


@pytest.mark.parametrize("protocol", ["scrambling", "swap"])
def test_reference_matches_package(protocol):
    point = (protocol, 0.2, 0.031)
    got = _package_record(*point)
    assert checks.against_reference(protocol, got,
                                    reference.ReferenceModel().record(*point, DT)) == []
    assert checks.method_properties(protocol, got) == []


@pytest.mark.parametrize("field", reference.FIELDS)
def test_perturbed_record_fails(pair, field):
    got, ref = pair
    bad = dict(got, **{field: got[field] + 1e-9})
    faults = checks.against_reference("p", bad, ref)
    assert len(faults) == 1 and field in faults[0]


def test_method_properties_catch_violations(pair):
    got, _ = pair
    assert checks.method_properties("p", dict(got, success_prob_avg=1.5))
    assert checks.method_properties("p", dict(got, success_prob_avg=0.0))
    assert checks.method_properties("p", dict(got, delta_E_U=got["delta_E_U"] + 1e-8))
    rows = [dict(got, gamma=0.047), dict(got, gamma=0.047,
                                         neg_total_t1=got["neg_total_t1"] + 1e-8)]
    assert checks.t1_shared_per_gamma(rows)
    assert checks.t1_shared_per_gamma(rows[:1]) == []


def test_spans_account_for_the_point():
    tracer = Tracer()
    original = average_over_inputs
    tracer.install()
    try:
        from teleportsim import metrics
        metrics.average_over_inputs(EncodingKind.SCRAMBLING, 0.4, 0.02,
                                    EvolutionConfig(DT))
    finally:
        tracer.uninstall()
    from teleportsim import metrics
    assert metrics.average_over_inputs is original
    totals = tracer.totals()
    assert totals["counts"]["tensor_core.eigvalsh_calls"] == 114
    assert totals["counts"]["evolution.trotter_steps"] == 12 / DT
    assert sum(totals["self_s"].values()) == pytest.approx(totals["root_s"])
    assert {"evolution.evolve.bell", "evolution.evolve.encode",
            "evolution.evolve.rotate"} <= set(totals["self_s"])


def test_sweep_checks_pass_then_catch_a_changed_panel(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(sweep_config(0.05).replace("dt = 0.04", f"dt = {DT}"))
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--figure", "fig7", "--out", str(out)]) == 0
    rows = checks.parse_sweep_csv((out / "sweep.csv").read_text())
    grid = [(p, a, 0.05) for p in ("scrambling", "swap") for a in (0.0, 0.5, 1.0)]
    assert checks.sweep_rows(rows, grid, DT) == []
    assert checks.t1_shared_per_gamma(rows) == []
    assert checks.fig7_panels(str(out), rows) == []

    panel = out / "fig7_purity_avg_swap.csv"
    lines = panel.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-6)
    panel.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    faults = checks.fig7_panels(str(out), rows)
    assert len(faults) == 1 and "fig7_purity_avg_swap.csv" in faults[0]
