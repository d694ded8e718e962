"""Trotterized Lindblad time stepping.

Each time bin applies a unitary sandwich update followed by a dephasing
channel on every qubit. The dephasing channel is applied in closed form:
conjugating by the per-qubit Kraus pair on all n qubits multiplies the
matrix element rho[a, b] by exp(-r * dt * hamming(a, b)), where r is the
per-step coherence decay rate. This is exact, not an approximation, since
the local Kraus operators are diagonal and commute.

Both halves of a bin factor over qubits, and the gates of one time slot act
on disjoint qubit groups, so the engine never forms a 2^n x 2^n operator.
Consecutive slots are grouped into windows: the gate sites of a window join
into connected qubit components of at most MAX_COMPONENT_QUBITS qubits.
Each component's steps compose into one 4^k x 4^k map at component size,
applied to the state once; the qubits in no component are only dephased,
by one factor for the whole window. The maps are built by the same two
operations that act on the state, _apply_local and _dephase_idle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import SCHEDULE_TIME_ATOL, GateSegment
from .tensor_core import check_sites, num_qubits

_RATE_FACTOR = {"kraus": 1.0, "lindblad": 0.5}
# The largest qubit component a window composes into one map: a k-qubit map
# is 4^k x 4^k, so a fourth qubit would make each pass 4x dearer, and the
# packaged schedules never need it.
MAX_COMPONENT_QUBITS = 3


@dataclass(frozen=True)
class NoiseModel:
    """Uniform per-qubit dephasing with jump operators n_i = (1 + Z_i)/2.

    rate_convention fixes how gamma maps to the coherence decay rate:
    'kraus' gives e^{-gamma t}, 'lindblad' gives e^{-gamma t / 2}.
    """

    gamma: float
    rate_convention: str = "kraus"

    def __post_init__(self):
        # written so that a NaN gamma fails it
        if not self.gamma >= 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
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
        # written so that a NaN dt fails it
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    def on_grid(self, t: float) -> bool:
        # a quotient that overflows (a tiny dt) is off the grid
        q = t / self.dt
        return abs(q) < np.inf and abs(q - round(q)) * self.dt <= SCHEDULE_TIME_ATOL

    def steps_between(self, t_from: float, t_to: float) -> int:
        for t in (t_from, t_to):
            if not self.on_grid(t):
                raise ValueError(f"time {t} is not on the dt={self.dt} step grid")
        return round((t_to - t_from) / self.dt)


def slot_unitary(segments: list[GateSegment], dt: float,
                 n: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Local factors of one time slot's step unitary: (sites, exp(-i H dt))
    per segment. The segments must act on disjoint sites of an n-qubit
    register; the slot's step unitary is the tensor product of the factors."""
    check_sites([q for seg in segments for q in seg.sites], n)
    return [(seg.sites, seg.step_unitary(dt)) for seg in segments]


def _apply_local(state: np.ndarray, superop: np.ndarray, sites, n: int) -> np.ndarray:
    """Apply a superoperator on the (row, col) indices of the listed sites of
    a batched (B, 2, ..., 2) density tensor; axis 0 is the batch."""
    k = len(sites)
    axes = list(sites) + [n + s for s in sites]
    m = superop.reshape((2,) * (4 * k))
    out = np.tensordot(m, state, axes=(list(range(2 * k, 4 * k)), axes))
    return np.moveaxis(out, list(range(2 * k)), axes)


def _dephase_idle(state: np.ndarray, sites, factor: float, n: int) -> np.ndarray:
    """Multiply the coherences of each listed qubit of a batched (B, 2, ...,
    2) density tensor by factor, in one pass with a mask over the listed
    qubits' axes only."""
    mask = np.ones((1,) * (2 * n + 1))
    for q in sites:
        shape = [1] * (2 * n + 1)
        shape[q] = shape[n + q] = 2
        mask = mask * np.array([[1.0, factor], [factor, 1.0]]).reshape(shape)
    return state * mask


def _join(components: list[frozenset], factors) -> list[frozenset]:
    """The qubit components once each gate of a slot has joined every
    component it touches."""
    for sites, _ in factors:
        touched = [c for c in components if c & set(sites)]
        components = ([c for c in components if c not in touched]
                      + [frozenset(sites).union(*touched)])
    return components


def _windows(slots):
    """Group consecutive (nsteps, factors) slots greedily into windows, each
    with its connected qubit components: a slot joins the open window unless
    that grows a component past MAX_COMPONENT_QUBITS. A window always takes
    its first slot, so a gate larger than the bound gets a window alone."""
    window, components = [], []
    for slot in slots:
        joined = _join(components, slot[1])
        if window and any(len(c) > MAX_COMPONENT_QUBITS for c in joined):
            yield window, components
            window, joined = [], _join([], slot[1])
        window.append(slot)
        components = joined
    if window:
        yield window, components


def _component_map(window, sites, step_map, decay: float) -> np.ndarray:
    """The map of one qubit component over a window, on its ascending sites.
    It is composed by the engine's own state operations, on a batch of the
    4^k basis operators |a><b| of the component: each slot applies the step
    maps of its gates on the component, and dephases the component's other
    qubits. Image j of the batch is column j of the map."""
    k = len(sites)
    local = {q: i + 1 for i, q in enumerate(sites)}
    images = np.eye(4 ** k, dtype=complex).reshape((-1,) + (2,) * (2 * k))
    for nsteps, factors in window:
        gates = [(s, u) for s, u in factors if set(s) <= set(sites)]
        for s, u in gates:
            images = _apply_local(images, step_map(u, nsteps), [local[q] for q in s], k)
        idle = [local[q] for q in sites if not any(q in s for s, _ in gates)]
        images = _dephase_idle(images, idle, decay ** nsteps, k)
    return images.reshape(4 ** k, 4 ** k).T


def evolve_array(rho: np.ndarray, segments, noise: NoiseModel,
                 cfg: EvolutionConfig, t_from: float, t_to: float) -> np.ndarray:
    """Batched raw-array evolution; rho has shape (..., 2^n, 2^n).

    One Trotter step is the unitary sandwich U rho U' followed by dephasing of
    every qubit. Both factor over the disjoint qubit groups of a time slot: a
    slot's nsteps steps are D (U (x) U*) raised to nsteps for each gate on k
    qubits (a 4^k x 4^k map, D the k-qubit dephasing diagonal), and
    dephasing alone for each idle qubit. Within a window (see _windows) the
    slot maps of each component compose at component size and reach the
    state as one map; the qubits in no component get one dephasing pass.
    """
    if t_from >= t_to:
        raise ValueError(f"need t_from < t_to, got {t_from} >= {t_to}")
    # n from the trailing axes; num_qubits rejects any shape but 2^n x 2^n
    n = num_qubits(np.empty(rho.shape[-2:], dtype=bool))
    decay = np.exp(-noise.coherence_rate * cfg.dt)
    state = rho.reshape((-1,) + (2,) * (2 * n))
    total = cfg.steps_between(t_from, t_to)

    def steps_to(t: float) -> int:
        # whole steps from t_from to t, clamped to the evolved span
        return min(max(cfg.steps_between(t_from, t), 0), total)

    spans = [(steps_to(s.start_time), steps_to(s.end_time), s) for s in segments]
    edges = sorted({0, total}.union(*((lo, hi) for lo, hi, _ in spans)))
    slots = [(b - a, slot_unitary([s for lo, hi, s in spans if lo <= a < hi],
                                  cfg.dt, n)) for a, b in zip(edges, edges[1:])]
    step_maps: dict[tuple[int, bytes], np.ndarray] = {}

    def step_map(u: np.ndarray, nsteps: int) -> np.ndarray:
        key = (nsteps, u.tobytes())
        if key not in step_maps:
            k = num_qubits(u)
            # D (U (x) U*): each column, an operator, dephased on all k qubits
            images = np.kron(u, u.conj()).T.reshape((-1,) + (2,) * (2 * k))
            step = _dephase_idle(images, range(1, k + 1), decay, k).reshape(4 ** k, -1)
            step_maps[key] = np.linalg.matrix_power(step.T, nsteps)
        return step_maps[key]

    for window, components in _windows(slots):
        for component in components:
            sites = sorted(component)
            state = _apply_local(
                state, _component_map(window, sites, step_map, decay), sites, n)
        idle = set(range(1, n + 1)).difference(*components)
        if idle and noise.gamma > 0:
            steps = sum(nsteps for nsteps, _ in window)
            state = _dephase_idle(state, sorted(idle), decay ** steps, n)
    return state.reshape(rho.shape)
