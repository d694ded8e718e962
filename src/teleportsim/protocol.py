"""Full 7-qubit teleportation schedules and the heralding projection.

Protocol phases: Bell-pair creation on qubit pairs (2,5), (3,4), (6,7)
during [0, t1]; encoding on qubits 1-3 with the conjugate decoding on
qubits 4-6 during [t1, t2]; measurement-basis rotations (CNOT then HAD)
during [t2, t3]; then projection of the measured pair onto |00>, which
heralds the Bell state (|00> + |11>)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import gates

NUM_QUBITS = 7
POSTSELECTION_EPS = 1e-12

MEASUREMENT_PAIRS = ((3, 4), (2, 5), (1, 6))


class EncodingKind(Enum):
    SCRAMBLING = "scrambling"
    SWAP = "swap"


class PostselectionImpossibleError(RuntimeError):
    """The heralded outcome has (numerically) zero probability."""


@dataclass(frozen=True)
class InputState:
    """A labeled single-qubit pure state to teleport."""

    label: str
    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex)
        if v.shape != (2,):
            raise ValueError("input state must be a single-qubit vector")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError(f"input state {self.label!r} is not normalized")
        object.__setattr__(self, "vector", v)


_SQ = 1 / np.sqrt(2)
PAULI_EIGENSTATES = (
    InputState("X+", np.array([_SQ, _SQ])),
    InputState("X-", np.array([_SQ, -_SQ])),
    InputState("Y+", np.array([_SQ, 1j * _SQ])),
    InputState("Y-", np.array([_SQ, -1j * _SQ])),
    InputState("Z+", np.array([1.0, 0.0])),
    InputState("Z-", np.array([0.0, 1.0])),
)


@dataclass
class ProtocolSchedule:
    """Ordered gate segments plus the protocol checkpoints."""

    segments: list[gates.GateSegment]
    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        if not 0 < self.t1 < self.t2 < self.t3:
            raise ValueError("checkpoints must satisfy 0 < t1 < t2 < t3")
        for seg in self.segments:
            # written so that a NaN time fails it
            if not (-gates.SCHEDULE_TIME_ATOL <= seg.start_time
                    and seg.end_time <= self.t3 + gates.SCHEDULE_TIME_ATOL):
                raise ValueError(
                    f"segment on sites {seg.sites} lies outside [0, t3]"
                )
        self._check_no_overlap()

    def _check_no_overlap(self):
        for i, a in enumerate(self.segments):
            for b in self.segments[i + 1:]:
                if not set(a.sites) & set(b.sites):
                    continue
                if (a.start_time < b.end_time - gates.SCHEDULE_TIME_ATOL
                        and b.start_time < a.end_time - gates.SCHEDULE_TIME_ATOL):
                    raise ValueError(
                        f"segments on sites {a.sites} and {b.sites} overlap "
                        f"in time"
                    )


def build_schedule(kind: EncodingKind, alpha: float,
                   measurement_pair: tuple[int, int] = (3, 4)) -> ProtocolSchedule:
    """Instantiate the packaged schedule for one protocol at a given alpha.

    measurement_pair retargets the CNOT/HAD rotations (and the subsequent
    projection) to one of the pairs (3,4), (2,5), (1,6).
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    pair = tuple(measurement_pair)
    if pair not in MEASUREMENT_PAIRS:
        raise ValueError(f"measurement pair must be one of {MEASUREMENT_PAIRS}")
    parsed = gates.load_schedule(kind.value)
    segments = []
    for entry in parsed.entries:
        if max(entry.sites) > NUM_QUBITS:
            raise gates.ScheduleError(
                f"{entry.name} gate on sites {entry.sites} names site "
                f"{max(entry.sites)}, outside the {NUM_QUBITS}-qubit register")
        if entry.name in ("CNOT", "HAD"):
            entry = replace(entry, sites=pair[:len(entry.sites)])
        segments.append(gates.entry_segment(entry, alpha))
    return ProtocolSchedule(segments, parsed.t1, parsed.t2, parsed.t3)


def check_channel_structure(sched: ProtocolSchedule) -> None:
    """Raise ValueError unless no segment that starts before t1 acts on
    qubit 1, and every segment that starts before t2 has a generator that
    commutes with the parity Z (x) ... (x) Z of its sites. metrics relies on
    both: it evolves qubits 2..n alone until t1, and relates the t2 states
    of opposite X and Y inputs by the global parity Z^(x)n."""
    for seg in sched.segments:
        if seg.start_time < sched.t1 - gates.SCHEDULE_TIME_ATOL and 1 in seg.sites:
            raise ValueError(
                f"segment on sites {seg.sites} starts at {seg.start_time:g}, "
                f"before t1 = {sched.t1:g}, and acts on qubit 1, which must "
                f"be idle until t1")
        if seg.start_time < sched.t2 - gates.SCHEDULE_TIME_ATOL:
            parity = np.array([bin(i).count("1") % 2
                               for i in range(len(seg.generator))])
            mixed = seg.generator[parity[:, None] != parity]
            if np.any(np.abs(mixed) > gates.GENERATOR_ATOL):
                raise ValueError(
                    f"segment on sites {seg.sites} starts at "
                    f"{seg.start_time:g}, before t2 = {sched.t2:g}, and its "
                    f"generator does not commute with the parity Z on its "
                    f"sites")


def pair_block(matrix: np.ndarray, pair: tuple[int, int]) -> np.ndarray:
    """The pair's |00> block of a NUM_QUBITS-qubit matrix, or of each in a
    batch: the [keep, keep] entries where both qubits of the pair read |0>,
    indexed by the other qubits in ascending order."""
    idx = np.arange(2 ** NUM_QUBITS)
    pair_bits = sum(1 << (NUM_QUBITS - q) for q in pair)
    keep = idx[idx & pair_bits == 0]
    return matrix[..., keep[:, None], keep]


def project_pair(block: np.ndarray, pair: tuple[int, int]) -> tuple[np.ndarray, float]:
    """Project a state onto |00> of the pair, given its pair_block. Returns
    the heralded state, the renormalized block: the state of the other
    qubits, in ascending order; and the outcome's probability."""
    d = 2 ** (NUM_QUBITS - 2)
    if block.shape != (d, d):
        raise ValueError(f"expected the pair's {d} x {d} block, got shape "
                         f"{block.shape}")
    prob = float(np.real(np.trace(block)))
    if prob < POSTSELECTION_EPS:
        raise PostselectionImpossibleError(
            f"heralded outcome on pair {pair} has probability {prob:.3e}"
        )
    return block / prob, prob
