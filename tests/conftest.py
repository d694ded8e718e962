import functools
import os
import sys
from pathlib import Path

# one BLAS thread per process, unless set: a threaded BLAS slows these small
# solves down on a few cores. numpy reads these when it is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from teleportsim import EncodingKind, EvolutionConfig, average_over_inputs, gates


@functools.lru_cache(maxsize=None)
def _record(kind_value, alpha, gamma, dt, rate_convention, measurement_pair):
    return average_over_inputs(
        EncodingKind(kind_value), alpha, gamma, EvolutionConfig(dt),
        rate_convention=rate_convention, measurement_pair=measurement_pair,
    )


def record(kind, alpha, gamma, dt=0.01, rate_convention="kraus",
           measurement_pair=(3, 4)):
    """Session-cached input-averaged metrics for one grid point."""
    kind_value = kind.value if isinstance(kind, EncodingKind) else kind
    return _record(kind_value, float(alpha), float(gamma), dt,
                   rate_convention, tuple(measurement_pair))


@pytest.fixture(scope="session", name="record")
def record_fixture():
    return record


SCHEDULE_TIMES = "TIME t1 2\nTIME t2 10\nTIME t3 12\n"


def with_schedule(monkeypatch, schedule):
    """Make gates.load_schedule return the schedule for every kind: a
    ParsedSchedule, or gate lines, parsed with the checkpoints t1 = 2,
    t2 = 10 and t3 = 12."""
    if isinstance(schedule, str):
        schedule = gates.parse_schedule_text(SCHEDULE_TIMES + schedule)
    monkeypatch.setattr(gates, "load_schedule", lambda kind: schedule)


ACCEPTANCE_RESULTS: list[str] = []


def acceptance(num: int, name: str, ok: bool, detail: str = "") -> None:
    """Record one acceptance-criterion verdict, then assert it."""
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} ({name}): {verdict}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_RESULTS.append(line)
    assert ok, line


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)
