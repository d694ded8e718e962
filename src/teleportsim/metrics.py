"""The protocol pipeline and its observables: the protocol evolved as a
linear channel on qubit 1's input, teleportation fidelity, purity,
logarithmic negativity (single-cut and summed over all contiguous cuts),
entanglement deltas, and their averages over the six Pauli-eigenstate
inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import gates, protocol
from .evolution import EvolutionConfig, NoiseModel, evolve_array
from .protocol import (EncodingKind, InputState, PAULI_EIGENSTATES,
                       PostselectionImpossibleError)
# bench/tracer.py patches partial_transpose here, by name
from .tensor_core import (hermitian_eigenvalues, num_qubits, partial_trace,
                          partial_transpose)

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


def log_negativity(rho: np.ndarray, subsystem_b, log_base: float = 2) -> float:
    """log(1 + 2N) with N the absolute sum of negative eigenvalues of rho^T_B;
    eigenvalues smaller than 1e-12 in magnitude are treated as zero."""
    return _log_negativities(rho, [subsystem_b], log_base)[0]


def _log_negativities(rho: np.ndarray, cuts, log_base: float) -> list[float]:
    """log_negativity of rho for each subsystem B in cuts, one solver call."""
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
    negs = _log_negativities(sigma, [tuple(range(s + 1, m + 1)) for s in cut], log_base)
    by_split = {0: 0.0, m: 0.0, **dict(zip(cut, negs))}
    return [by_split[s] for s in splits]


def total_negativity(rho: np.ndarray, log_base: float = 2) -> float:
    """Sum of log negativities over the contiguous cuts (1..k | k+1..n)."""
    n = num_qubits(rho)
    return sum(cut_negativities(rho, range(1, n + 1), n, log_base))


def _evolve_channel(kind: EncodingKind, alpha: float, gamma: float,
                    cfg: EvolutionConfig | None, rate_convention: str,
                    measurement_pair: tuple[int, int]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The protocol up to the heralding projection is a linear channel on
    qubit 1's input. Returns its images at t1, t2 and t3 of
    A = |0><0| (x) sigma, B = |1><1| (x) sigma and
    C = e^{-r t1} |0><1| (x) sigma, each stacked as (3, 128, 128), with
    sigma the t1 state of qubits 2..n and r the coherence decay rate; the
    image of C' is that of C, daggered.
    """
    cfg = cfg or EvolutionConfig()
    sched = protocol.build_schedule(kind, alpha, measurement_pair)
    n = protocol.NUM_QUBITS
    # qubit 1 is idle until t1: evolve qubits 2..n alone, sites shifted down
    early = [replace(s, sites=tuple(q - 1 for q in s.sites))
             for s in sched.segments
             if s.start_time < sched.t1 - gates.SCHEDULE_TIME_ATOL]
    rest = np.zeros((1, 2 ** (n - 1), 2 ** (n - 1)), dtype=complex)
    rest[0, 0, 0] = 1.0
    noise = NoiseModel(gamma, rate_convention)
    sigma = evolve_array(rest, early, noise, cfg, 0.0, sched.t1)[0]
    coherence = math.exp(-noise.coherence_rate * sched.t1)
    qubit1 = ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, coherence], [0, 0]])
    ops1 = np.stack([np.kron(q1, sigma) for q1 in qubit1])
    ops2 = evolve_array(ops1, sched.segments, noise, cfg, sched.t1, sched.t2)
    ops3 = evolve_array(ops2, sched.segments, noise, cfg, sched.t2, sched.t3)
    return ops1, ops2, ops3


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
    return tuple(_input_states(ops) for ops in _evolve_channel(
        kind, alpha, gamma, cfg, rate_convention, measurement_pair))


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
    ops1, ops2, ops3 = _evolve_channel(kind, alpha, gamma, cfg,
                                       rate_convention, measurement_pair)
    n = protocol.NUM_QUBITS
    pair = tuple(measurement_pair)
    kept = tuple(q for q in range(1, n + 1) if q not in pair)
    fids, purs, negs, probs, n3s, sigmas, heralded = [], [], [], [], [], [], []
    failed = []
    # the pair's |00> block of each input's t3 state, cut from the three
    # images before the inputs are combined
    blocks = _input_states(protocol.pair_block(ops3, pair))
    for i, (phi, block) in enumerate(zip(PAULI_EIGENSTATES, blocks)):
        try:
            # the heralded state, on the kept qubits
            sigma, prob = protocol.project_pair(block, pair)
        except PostselectionImpossibleError:
            failed.append(phi.label)
            continue
        # qubit n, the teleported qubit, is sigma's last
        fids.append(fidelity(partial_trace(sigma, (len(kept),)), phi))
        purs.append(purity(sigma))
        cuts = cut_negativities(sigma, kept, n, log_base)
        # the cut (1..p2-1 | p2..n), with p2 the pair's second qubit
        negs.append(cuts[pair[1] - 2])
        probs.append(prob)
        n3s.append(sum(cuts))
        sigmas.append(sigma)
        heralded.append(i)
    if not fids:
        raise PostselectionImpossibleError(
            "heralded outcome impossible for every input state"
        )
    # The t2 cuts, in input order X+, X-, Y+, Y-, Z+, Z-. Up to t2 the
    # channel commutes with the parity P = Z^(x)n (protocol._check_schedule),
    # so rho2(X-) = P rho2(X+) P and rho2(Y-) = P rho2(Y+) P have the cuts of
    # X+ and Y+, as P is a product of local unitaries. Only those two inputs
    # are combined, with the weights every input gets, so their bits match
    # run_protocol's; Z+ and Z- are A and B.
    xy = _input_states(ops2, (PAULI_EIGENSTATES[0], PAULI_EIGENSTATES[2]))
    x, y, *z = (total_negativity(m, log_base) for m in (*xy, *ops2[:2]))
    n2s = [x, x, y, y, *z]
    # every input's t1 state is its qubit-1 state times sigma, the same
    # state of qubits 2..n, whose cuts are the input average; A's top-left
    # block is sigma
    rest = tuple(range(2, n + 1))
    d = 2 ** (n - 1)
    n1a = sum(cut_negativities(ops1[0, :d, :d], rest, n, log_base))
    n2a = float(np.mean([n2s[i] for i in heralded]))
    n3a = float(np.mean(n3s))
    return MetricsRecord(
        kind=kind,
        alpha=alpha,
        gamma=gamma,
        fidelity_avg=float(np.mean(fids)),
        purity_avg=float(np.mean(purs)),
        purity_of_mean=purity(np.mean(sigmas, axis=0)),
        neg_cut34=float(np.mean(negs)),
        neg_total_t1=n1a,
        neg_total_t2=n2a,
        neg_total_t3=n3a,
        delta_E_U=n2a - n1a,
        delta_E_M=n3a - n2a,
        success_prob_avg=float(np.mean(probs)),
        failed_inputs=failed,
    )
