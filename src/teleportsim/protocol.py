"""Full 7-qubit teleportation schedules and the heralding projection.

Protocol phases: Bell-pair creation on qubit pairs (2,5), (3,4), (6,7)
during [0, t1]; encoding on qubits 1-3 with the conjugate decoding on
qubits 4-6 during [t1, t2]; measurement-basis rotations (CNOT then HAD)
during [t2, t3]; then projection of the measured pair onto |00>, which
heralds the Bell state (|00> + |11>)/sqrt(2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import gates
from .tensor_core import commutes_with_parity

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


@dataclass(frozen=True)
class ProtocolSchedule:
    """Ordered gate segments plus the protocol checkpoints."""

    segments: list[gates.GateSegment]
    t1: float
    t2: float
    t3: float


@functools.lru_cache(maxsize=16)
def _check_schedule(parsed: gates.ParsedSchedule) -> None:
    """Raise ValueError unless 0 < t1 < t2 < t3 and each gate lies in [0, t3]
    on the register, overlaps no gate on a shared qubit, spares qubit 1 if
    it starts before t1, and if before t2 is of a kind that commutes with the
    parity of its sites: metrics evolves qubits 2..n alone until t1, and
    relates opposite X and Y inputs at t2 by the global parity Z^(x)n."""
    atol = gates.SCHEDULE_TIME_ATOL
    if not 0 < parsed.t1 < parsed.t2 < parsed.t3:
        raise ValueError("checkpoints must satisfy 0 < t1 < t2 < t3")
    for i, e in enumerate(parsed.entries):
        if max(e.sites) > NUM_QUBITS:
            raise gates.ScheduleError(
                f"{e.name} gate on sites {e.sites} names site "
                f"{max(e.sites)}, outside the {NUM_QUBITS}-qubit register")
        # written so that a NaN time fails it
        if not (-atol <= e.start and e.start + e.duration <= parsed.t3 + atol):
            raise ValueError(f"segment on sites {e.sites} lies outside [0, t3]")
        for b in parsed.entries[i + 1:]:
            if (set(e.sites) & set(b.sites) and b.start < e.start + e.duration - atol
                    and e.start < b.start + b.duration - atol):
                raise ValueError(f"segments on sites {e.sites} and {b.sites} "
                                 f"overlap in time")
        if e.start < parsed.t1 - atol and 1 in e.sites:
            raise ValueError(
                f"segment on sites {e.sites} starts at {e.start:g}, before "
                f"t1 = {parsed.t1:g}, and acts on qubit 1, which must be idle "
                f"until t1")
        if e.start < parsed.t2 - atol:
            if not commutes_with_parity(gates.gate_generator(e.name, 1.0, 1.0)):
                raise ValueError(
                    f"segment on sites {e.sites} starts at {e.start:g}, "
                    f"before t2 = {parsed.t2:g}, and its generator does not "
                    f"commute with the parity Z on its sites")


def build_schedule(kind: EncodingKind, alpha: float,
                   measurement_pair: tuple[int, int] = (3, 4)) -> ProtocolSchedule:
    """Instantiate the packaged schedule for one protocol at a given alpha.

    measurement_pair retargets the CNOT/HAD rotations (and the subsequent
    projection) to one of the pairs (3,4), (2,5), (1,6). _check_schedule
    judges each distinct schedule once, before any PARAM is evaluated.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    pair = tuple(measurement_pair)
    if pair not in MEASUREMENT_PAIRS:
        raise ValueError(f"measurement pair must be one of {MEASUREMENT_PAIRS}")
    parsed = gates.load_schedule(kind.value)
    _check_schedule(parsed)
    segments = []
    for entry in parsed.entries:
        if entry.name in ("CNOT", "HAD"):
            entry = replace(entry, sites=pair[:len(entry.sites)])
        segments.append(gates.entry_segment(entry, alpha))
    return ProtocolSchedule(segments, parsed.t1, parsed.t2, parsed.t3)


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
