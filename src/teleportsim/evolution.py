"""Trotterized Lindblad time stepping.

Each time bin applies a unitary sandwich update followed by a dephasing
channel on every qubit. The dephasing channel is applied in closed form:
conjugating by the per-qubit Kraus pair on all n qubits multiplies the
matrix element rho[a, b] by exp(-r * dt * hamming(a, b)), where r is the
per-step coherence decay rate. This is exact, not an approximation, since
the local Kraus operators are diagonal and commute.

Both halves of a bin factor over qubits, and the gates of one time slot act
on disjoint qubit groups, so the engine never forms a 2^n x 2^n operator: a
slot is one small local superoperator per group, raised to its step count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import SCHEDULE_TIME_ATOL, GateSegment
from .tensor_core import check_sites

_RATE_FACTOR = {"kraus": 1.0, "lindblad": 0.5}


@dataclass(frozen=True)
class KrausPair:
    """The two single-qubit dephasing Kraus operators for one time bin."""

    k1: np.ndarray
    k2: np.ndarray


def dephasing_kraus(gamma: float, dt: float) -> KrausPair:
    """Kraus pair K1 = diag(e^{-gamma dt}, 1), K2 = diag(sqrt(1-e^{-2 gamma dt}), 0).

    Completeness K1'K1 + K2'K2 = I holds exactly in closed form.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    decay = np.exp(-gamma * dt)
    k1 = np.diag([decay, 1.0]).astype(complex)
    k2 = np.diag([np.sqrt(max(0.0, 1.0 - decay ** 2)), 0.0]).astype(complex)
    return KrausPair(k1, k2)


@dataclass(frozen=True)
class NoiseModel:
    """Uniform per-qubit dephasing with jump operators n_i = (1 + Z_i)/2.

    rate_convention fixes how gamma maps to the coherence decay rate:
    'kraus' gives e^{-gamma t}, 'lindblad' gives e^{-gamma t / 2}.
    """

    gamma: float
    num_qubits: int = 7
    rate_convention: str = "kraus"

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        if self.rate_convention not in _RATE_FACTOR:
            raise ValueError(
                f"rate_convention must be one of {sorted(_RATE_FACTOR)}, "
                f"got {self.rate_convention!r}"
            )

    @property
    def coherence_rate(self) -> float:
        """Decay rate r of single-qubit coherences, rho_01(t) ~ e^{-r t}."""
        return self.gamma * _RATE_FACTOR[self.rate_convention]


@dataclass(frozen=True)
class EvolutionConfig:
    """Trotter step size; segments must begin and end on the step grid."""

    dt: float = 0.01

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    def on_grid(self, t: float) -> bool:
        return abs(t / self.dt - round(t / self.dt)) * self.dt <= SCHEDULE_TIME_ATOL

    def steps_between(self, t_from: float, t_to: float) -> int:
        for t in (t_from, t_to):
            if not self.on_grid(t):
                raise ValueError(f"time {t} is not on the dt={self.dt} step grid")
        return round((t_to - t_from) / self.dt)


def _check_disjoint(segments) -> None:
    seen: set[int] = set()
    for seg in segments:
        overlap = seen & set(seg.sites)
        if overlap:
            raise ValueError(
                f"concurrent segments share qubit(s) {sorted(overlap)}"
            )
        seen |= set(seg.sites)


def slot_unitary(segments: list[GateSegment], dt: float,
                 n: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Local factors of one time slot's step unitary: (sites, exp(-i H dt))
    per segment. The segments must act on disjoint sites of an n-qubit
    register; the slot's step unitary is the tensor product of the factors."""
    _check_disjoint(segments)
    return [(check_sites(seg.sites, n), seg.step_unitary(dt)) for seg in segments]


def _dephasing_diagonal(k: int, decay: float) -> np.ndarray:
    """Diagonal of one k-qubit dephasing step on the flattened (row, col)
    index: rho[a, b] picks up decay ** hamming(a, b)."""
    bits = (np.arange(4 ** k)[:, None] >> np.arange(2 * k)[::-1]) & 1
    return decay ** np.count_nonzero(bits[:, :k] != bits[:, k:], axis=1)


def _apply_local(state: np.ndarray, superop: np.ndarray, sites, n: int) -> np.ndarray:
    """Apply a superoperator on the (row, col) indices of the listed sites of
    a batched (B, 2, ..., 2) density tensor; axis 0 is the batch."""
    k = len(sites)
    axes = list(sites) + [n + s for s in sites]
    m = superop.reshape((2,) * (4 * k))
    out = np.tensordot(m, state, axes=(list(range(2 * k, 4 * k)), axes))
    return np.moveaxis(out, list(range(2 * k)), axes)


def _dephase_idle(state: np.ndarray, sites, factor: float, n: int) -> np.ndarray:
    """Multiply the coherences of each listed qubit by factor, in one pass
    over the state with a mask over the listed qubits' axes only."""
    mask = np.ones((1,) * (2 * n + 1))
    for q in sites:
        shape = [1] * (2 * n + 1)
        shape[q] = shape[n + q] = 2
        mask = mask * np.array([[1.0, factor], [factor, 1.0]]).reshape(shape)
    return state * mask


def _slot_edges(segments, t_from: float, t_to: float) -> list[float]:
    edges = {t_from, t_to}
    for seg in segments:
        for t in (seg.start_time, seg.end_time):
            if t_from + SCHEDULE_TIME_ATOL < t < t_to - SCHEDULE_TIME_ATOL:
                edges.add(t)
    return sorted(edges)


def evolve_array(rho: np.ndarray, segments, noise: NoiseModel,
                 cfg: EvolutionConfig, t_from: float, t_to: float) -> np.ndarray:
    """Batched raw-array evolution; rho has shape (..., 2^n, 2^n).

    One Trotter step is the unitary sandwich U rho U' followed by dephasing of
    every qubit. Both factor over the disjoint qubit groups of a time slot, so
    the slot's nsteps steps are applied group by group: D (U (x) U*) raised
    to nsteps for each gate on k qubits (a 4^k x 4^k map, D the k-qubit
    dephasing diagonal), and dephasing alone for each idle qubit.
    """
    if t_from >= t_to:
        raise ValueError(f"need t_from < t_to, got {t_from} >= {t_to}")
    n = noise.num_qubits
    d = 2 ** n
    if rho.shape[-2:] != (d, d):
        raise ValueError(f"expected (..., {d}, {d}) states, got {rho.shape}")
    decay = np.exp(-noise.coherence_rate * cfg.dt)
    state = rho.reshape((-1,) + (2,) * (2 * n))
    edges = _slot_edges(segments, t_from, t_to)
    for a, b in zip(edges, edges[1:]):
        nsteps = cfg.steps_between(a, b)
        factors = slot_unitary([s for s in segments if s.active_at(a)], cfg.dt, n)
        idle = set(range(1, n + 1))
        for sites, u in factors:
            dephase = _dephasing_diagonal(len(sites), decay)[:, None]
            step = np.linalg.matrix_power(dephase * np.kron(u, u.conj()), nsteps)
            state = _apply_local(state, step, sites, n)
            idle -= set(sites)
        if idle and noise.gamma > 0:
            state = _dephase_idle(state, sorted(idle), decay ** nsteps, n)
    return state.reshape(rho.shape)

