"""The pipeline against bench/reference.py, a transcription of both noisy
circuits that shares no code with the package: its own gate matrices, times
and checkpoints, its own evolution engine, and scipy's eigensolver. Tier-1's
other noisy references read the schedule files through the package, so a
wrong START, DUR or gate-table entry would move them with it; this one
would not. It also solves every input's t2 state, so it checks the inputs
that take another's t2 cuts."""

import importlib.util
import itertools
from dataclasses import fields
from pathlib import Path

import pytest

from teleportsim.evolution import EvolutionConfig
from teleportsim.metrics import MetricsRecord, average_over_inputs
from teleportsim.protocol import EncodingKind

_spec = importlib.util.spec_from_file_location(
    "bench_reference", Path(__file__).resolve().parents[1] / "bench" / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)

# the benchmark's tolerance for a field against the reference
TOLERANCE = 1e-10
DT = 0.25


@pytest.fixture(scope="module")
def model():
    return reference.ReferenceModel()


def test_reference_covers_every_float_field():
    assert set(reference.FIELDS) == {
        f.name for f in fields(MetricsRecord) if f.type == "float"} - {"alpha", "gamma"}


@pytest.mark.parametrize("kind, alpha, gamma", list(itertools.product(
    EncodingKind, (0.0, 0.6, 1.0), (0.0, 0.03, 0.5))))
def test_every_field_matches_the_reference(model, kind, alpha, gamma):
    rec = average_over_inputs(kind, alpha, gamma, EvolutionConfig(DT))
    ref = model.record(kind.value, alpha, gamma, DT)
    assert (rec.kind, rec.alpha, rec.gamma, rec.failed_inputs) == (kind, alpha, gamma, [])
    for name in reference.FIELDS:
        assert abs(getattr(rec, name) - ref[name]) <= TOLERANCE, name
