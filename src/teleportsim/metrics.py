"""The protocol pipeline and its observables: the protocol evolved as a
linear channel on qubit 1's input, teleportation fidelity, purity,
logarithmic negativity (of each cut in a list, and summed over all
contiguous cuts), entanglement deltas, and their averages over the six
Pauli-eigenstate inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .evolution import EvolutionConfig, NoiseModel, evolve_array
from .protocol import (EncodingKind, InputState, PAULI_EIGENSTATES,
                       PostselectionImpossibleError, ProtocolSchedule)
# bench/tracer.py patches partial_transpose here, by name
from .tensor_core import (hermitian_eigenvalues, num_qubits, parity_blocks,
                          partial_trace, partial_transpose)

NEGATIVITY_EIGENVALUE_CUTOFF = 1e-12


def fidelity(rho7: np.ndarray, phi: InputState) -> float:
    """Overlap <phi| rho7 |phi> of the teleported qubit with the input."""
    if num_qubits(rho7) != 1:
        raise ValueError("fidelity expects a single-qubit state")
    v = phi.vector
    return float(np.real(v.conj() @ rho7 @ v))


def purity(rho: np.ndarray) -> float:
    """Tr rho^2, in [1/d, 1]."""
    # Tr rho^2 = sum_ij rho_ij rho_ji = sum_ij |rho_ij|^2 for Hermitian rho
    return float(np.sum(np.abs(rho) ** 2))


def log_negativity(rho: np.ndarray, cuts, log_base: float = 2) -> list[float]:
    """log(1 + 2N) for each subsystem B in cuts, with N the absolute sum of
    the negative eigenvalues of rho^T_B, all from one solver call;
    eigenvalues smaller than 1e-12 in magnitude are treated as zero."""
    if not (0 < log_base < math.inf and log_base != 1):  # a NaN fails it
        raise ValueError(f"log_base must be positive, finite and not 1, got {log_base}")
    log = math.log2 if log_base == 2 else lambda x: math.log(x, log_base)
    out = []
    for ev in hermitian_eigenvalues(rho, cuts):
        ev = ev[np.abs(ev) >= NEGATIVITY_EIGENVALUE_CUTOFF]
        out.append(log(1 + float(np.sum(np.abs(ev) - ev))))  # log(1 + 2N)
    return out


def cut_negativities(sigma: np.ndarray, sites, n: int,
                     log_base: float = 2) -> list[float]:
    """Log negativities of the cuts (1..k | k+1..n), k = 1..n-1, of an
    n-qubit state that is sigma on the ascending `sites` and a product of
    single-qubit states on the other qubits. A single-qubit factor adds
    nothing to a cut, so each is sigma's cut at its sites left of k (zero if
    sigma stays whole); sigma's distinct cuts take one solver call."""
    m = num_qubits(sigma)
    splits = [sum(q <= k for q in sites) for k in range(1, n)]
    cut = sorted(set(splits) - {0, m})
    negs = log_negativity(sigma, [tuple(range(s + 1, m + 1)) for s in cut], log_base)
    by_split = {0: 0.0, m: 0.0, **dict(zip(cut, negs))}
    return [by_split[s] for s in splits]


def total_negativity(rho: np.ndarray, log_base: float = 2) -> float:
    """Sum of log negativities over the contiguous cuts (1..k | k+1..n)."""
    n = num_qubits(rho)
    return sum(cut_negativities(rho, range(1, n + 1), n, log_base))


def _parity_cut(packed: np.ndarray) -> np.ndarray:
    """The images of A, B and C, stacked as (3, d, d), cut out of the packed
    A + B + C by its even-even, odd-odd and even-odd parity blocks."""
    ops = np.zeros((3,) + packed.shape, dtype=complex)
    for image, block in zip(ops, parity_blocks(num_qubits(packed))[1][:3]):
        image.put(block, packed.take(block))
    return ops


def _evolve_channel(sched: ProtocolSchedule, gamma: float,
                    cfg: EvolutionConfig | None, rate_convention: str
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The protocol up to the heralding projection is a linear channel on
    qubit 1's input. A = |0><0|, B = |1><1| and C = |0><1| on qubit 1, with
    qubits 2..n in |0...0>, lie in the even-even, odd-odd and even-odd parity
    blocks, which the channel keeps until t2, so A + B + C is evolved from 0
    to t2 as one operator. Returns it at t1, its top-left quadrant sigma1
    the t1 state of qubits 2..n, and the (3, 128, 128) images of A, B and C
    at t2 and t3; the image of C' is that of C, daggered. Raises
    protocol.InvariantError if an image's trace is not kept."""
    cfg = cfg or EvolutionConfig()
    d = 2 ** protocol.NUM_QUBITS
    packed = np.zeros((1, d, d), dtype=complex)
    packed[0, [0, d // 2, 0], [0, d // 2, d // 2]] = 1.0
    noise = NoiseModel(gamma, rate_convention)
    packed1 = evolve_array(packed, sched.segments, noise, cfg, 0.0, sched.t1)
    ops2 = _parity_cut(evolve_array(packed1, sched.segments, noise, cfg,
                                    sched.t1, sched.t2)[0])
    ops3 = evolve_array(ops2, sched.segments, noise, cfg, sched.t2, sched.t3)
    # the channel keeps traces: A and B have trace 1 and C trace 0
    for t, ops in (("t2", ops2), ("t3", ops3)):
        dev = np.max(np.abs(np.trace(ops, axis1=1, axis2=2) - [1, 1, 0]))
        if not dev <= protocol.TRACE_ATOL:  # written so that a NaN fails it
            raise protocol.InvariantError(f"the traces of the images of A, B, C "
                                          f"at {t} are off (1, 1, 0) by {dev:.3e}")
    return packed1[0], ops2, ops3


def _input_states(ops: np.ndarray, inputs=PAULI_EIGENSTATES) -> np.ndarray:
    """The (k, d, d) states of the k inputs from the channel's (3, d, d)
    images of A, B, C, or from the same block of each: input a|0> + b|1>
    gives |a|^2 A + |b|^2 B + a b* C + a* b C'."""
    v = np.array([phi.vector for phi in inputs])
    a, b = v[:, 0], v[:, 1]
    weights = np.stack([abs(a) ** 2, abs(b) ** 2, a * b.conj(), a.conj() * b],
                       axis=1)
    images = np.concatenate([ops, ops[2:].conj().swapaxes(-1, -2)])
    return np.tensordot(weights, images, axes=1)


def run_protocol(kind: EncodingKind, alpha: float, gamma: float,
                 cfg: EvolutionConfig | None = None,
                 rate_convention: str = "kraus",
                 measurement_pair: tuple[int, int] = (3, 4)
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve the six PAULI_EIGENSTATES inputs through the protocol, as
    three channel operators; deterministic. Returns the states at t1, t2 and
    t3 (before the heralding projection), each of shape (6, 128, 128) in
    input order."""
    sched = protocol.build_schedule(kind, alpha, measurement_pair)
    packed1, ops2, ops3 = _evolve_channel(sched, gamma, cfg, rate_convention)
    return tuple(_input_states(ops) for ops in (_parity_cut(packed1), ops2, ops3))


@dataclass
class MetricsRecord:
    """Input-averaged observables of one (protocol, alpha, gamma) point."""

    kind: EncodingKind
    alpha: float
    gamma: float
    fidelity_avg: float
    purity_avg: float
    purity_of_mean: float
    neg_cut34: float
    neg_total_t1: float
    neg_total_t2: float
    neg_total_t3: float
    delta_E_U: float
    delta_E_M: float
    success_prob_avg: float
    failed_inputs: list[str] = field(default_factory=list)


def average_over_inputs(kind: EncodingKind, alpha: float, gamma: float,
                        cfg: EvolutionConfig | None = None,
                        rate_convention: str = "kraus",
                        log_base: float = 2,
                        measurement_pair: tuple[int, int] = (3, 4)) -> MetricsRecord:
    """Run all six Pauli-eigenstate inputs and average each observable.

    Inputs whose heralded outcome is impossible are excluded from the
    averages and listed in failed_inputs.
    """
    sched = protocol.build_schedule(kind, alpha, measurement_pair)
    packed1, ops2, ops3 = _evolve_channel(sched, gamma, cfg, rate_convention)
    n = protocol.NUM_QUBITS
    sigma1 = packed1[:2 ** (n - 1), :2 ** (n - 1)]
    pair = tuple(measurement_pair)
    kept = tuple(q for q in range(1, n + 1) if q not in pair)
    # each possible input's index maps to its heralded state, on the kept
    # qubits, and probability, from the pair's |00> block of its t3 state,
    # cut from the three images before the inputs are combined
    heralded, failed = {}, []
    blocks = _input_states(protocol.pair_block(ops3, pair))
    for i, (phi, block) in enumerate(zip(PAULI_EIGENSTATES, blocks)):
        try:
            heralded[i] = protocol.project_pair(block, pair)
        except PostselectionImpossibleError:
            failed.append(phi.label)
    if not heralded:
        raise PostselectionImpossibleError(
            "heralded outcome impossible for every input state"
        )
    sigmas, probs = zip(*heralded.values())
    cuts3 = [cut_negativities(sigma, kept, n, log_base) for sigma in sigmas]
    # qubit 1 is idle until t1 (protocol._check_schedule), so every input's
    # t1 state is its qubit-1 state times sigma1, the same state of qubits
    # 2..n, whose cuts are the input average
    rest = range(2, n + 1)
    n1a = sum(cut_negativities(sigma1, rest, n, log_base))
    # Up to t2 the channel commutes with the parity P = Z^(x)n
    # (protocol._check_schedule), so rho2(X-) = P rho2(X+) P and
    # rho2(Y-) = P rho2(Y+) P. If a phase pattern V of the schedule also
    # fixes sigma1, V A V^dag = A, V B V^dag = B and V C V^dag = -i C, so
    # rho2(Y+) = V rho2(X+) V^dag. P and V are products of single-qubit
    # unitaries, which keep every cut's negativity.
    # scrambling has no pattern, and so no per-point test
    fixed = len(sched.phases) and len(
        protocol.commuting_phases(sched.phases, sigma1, rest))
    # X+, and Y+ unless V ties it to X+, are combined with the weights every
    # input gets, so their bits match run_protocol's; Z+ and Z- are A and B
    xy = PAULI_EIGENSTATES[0:1] if fixed else PAULI_EIGENSTATES[0:3:2]
    *nxy, nzp, nzm = [total_negativity(m, log_base)
                      for m in (*_input_states(ops2, xy), *ops2[:2])]
    # the t2 cuts in input order: X+, X-, Y+, Y-, Z+, Z-
    n2 = [nxy[0], nxy[0], nxy[-1], nxy[-1], nzp, nzm]
    n2a = float(np.mean([n2[i] for i in heralded]))
    n3a = float(np.mean([sum(cuts) for cuts in cuts3]))
    # qubit n, the teleported qubit, is sigma's last
    fids = [fidelity(partial_trace(sigma, (len(kept),)), PAULI_EIGENSTATES[i])
            for i, sigma in zip(heralded, sigmas)]
    return MetricsRecord(
        kind=kind,
        alpha=alpha,
        gamma=gamma,
        fidelity_avg=float(np.mean(fids)),
        purity_avg=float(np.mean([purity(sigma) for sigma in sigmas])),
        purity_of_mean=purity(np.mean(sigmas, axis=0)),
        # the cut (1..p2-1 | p2..n), with p2 the pair's second qubit
        neg_cut34=float(np.mean([cuts[pair[1] - 2] for cuts in cuts3])),
        neg_total_t1=n1a,
        neg_total_t2=n2a,
        neg_total_t3=n3a,
        delta_E_U=n2a - n1a,
        delta_E_M=n3a - n2a,
        success_prob_avg=float(np.mean(probs)),
        failed_inputs=failed,
    )
