"""Process helpers: the least contended CPU, and peak memory of a process.

On a shared virtual machine one virtual CPU is at times slowed about 1.6x
for tens of seconds by work outside the machine, while the other runs at
full speed. Before each measured operation the benchmark times a short
matrix-product probe, like the program's inner loop, on every CPU it may use
and pins the measuring process to the fastest. Only the benchmark's own
processes are pinned.
"""

from __future__ import annotations

import os
import time

import numpy as np

PROBE_REPEATS = 3


def _probe() -> float:
    a = np.ones((6, 128, 128), dtype=complex)
    u = np.eye(128, dtype=complex)
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for _ in range(5):
            a = u @ a @ u
        best = min(best, time.perf_counter() - t0)
    return best


def fastest_cpu(cpus: set[int]) -> int:
    """The CPU of `cpus` on which the probe runs fastest right now."""
    original = os.sched_getaffinity(0)
    timings = {}
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            timings[cpu] = _probe()
    finally:
        os.sched_setaffinity(0, original)
    return min(timings, key=timings.get)


def pin(pid: int, cpus: set[int]) -> int:
    """Pin process `pid` (0: this one) to the fastest CPU; returns it."""
    cpu = fastest_cpu(cpus)
    os.sched_setaffinity(pid, {cpu})
    return cpu


def peak_rss_mb(pid="self") -> float:
    """High-water resident set size of a process since its last exec.

    Unlike ru_maxrss, VmHWM does not count the memory of the parent that the
    process was forked from.
    """
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise ValueError(f"no VmHWM line for process {pid}")
