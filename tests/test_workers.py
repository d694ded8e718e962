import os

import pytest

from teleportsim import sweep


@pytest.mark.parametrize("env, cpus, want", [
    (None, 4, 4), ("", 4, 4), ("1", 4, 1), ("3", 4, 3), ("4", 4, 4),
    ("100000", 4, 4), ("2", None, 1), (None, None, 1),
])
def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, env, cpus, want):
    """SIM_THREADS lowers the worker count but never raises it above the CPU
    count, so a huge value cannot start thousands of spawn workers. Checked
    through worker_count() alone: no pool starts."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if env is None:
        monkeypatch.delenv("SIM_THREADS", raising=False)
    else:
        monkeypatch.setenv("SIM_THREADS", env)
    assert sweep.worker_count() == want
