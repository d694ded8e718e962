"""The protocol pipeline and its observables: the six Pauli-eigenstate
inputs evolved as one batch, teleportation fidelity, purity, logarithmic
negativity (single-cut and summed over all contiguous cuts), entanglement
deltas, and their averages over the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .evolution import EvolutionConfig, NoiseModel, evolve_array
from .protocol import (EncodingKind, InputState, PAULI_EIGENSTATES,
                       PostselectionImpossibleError)
from .tensor_core import (DensityMatrix, hermitian_eigenvalues,
                          partial_trace, partial_transpose)

NEGATIVITY_EIGENVALUE_CUTOFF = 1e-12


def fidelity(rho7: DensityMatrix, phi: InputState) -> float:
    """Overlap <phi| rho7 |phi> of the teleported qubit with the input."""
    if rho7.num_qubits != 1:
        raise ValueError("fidelity expects a single-qubit state")
    v = phi.vector
    return float(np.real(v.conj() @ rho7.matrix @ v))


def purity(rho: DensityMatrix) -> float:
    """Tr rho^2, in [1/d, 1]."""
    m = rho.matrix
    # Tr rho^2 = sum_ij rho_ij rho_ji = sum_ij |rho_ij|^2 for Hermitian rho
    return float(np.sum(np.abs(m) ** 2))


def _neg_log(two_n_plus_1: float, log_base: float) -> float:
    if log_base == 2:
        return math.log2(two_n_plus_1)
    return math.log(two_n_plus_1) / math.log(log_base)


def log_negativity(rho: DensityMatrix, subsystem_b, log_base: float = 2) -> float:
    """log(1 + 2N) with N the absolute sum of negative eigenvalues of rho^T_B.

    Eigenvalues smaller than 1e-12 in magnitude are treated as zero.
    """
    ev = hermitian_eigenvalues(partial_transpose(rho, subsystem_b))
    ev = ev[np.abs(ev) >= NEGATIVITY_EIGENVALUE_CUTOFF]
    n = float(np.sum((np.abs(ev) - ev) / 2))
    return _neg_log(1 + 2 * n, log_base)


def cut_negativities(sigma: DensityMatrix, sites, n: int,
                     log_base: float = 2) -> list[float]:
    """Log negativities of the cuts (1..k | k+1..n), k = 1..n-1, of an
    n-qubit state that is sigma on the ascending `sites` and a product of
    single-qubit states on the other qubits. A single-qubit factor adds
    nothing to a cut, so each is sigma's cut at its sites left of k (zero if
    sigma stays whole), and equal cuts share one solve on sigma."""
    m = sigma.num_qubits
    by_split: dict[int, float] = {0: 0.0, m: 0.0}
    out = []
    for k in range(1, n):
        split = sum(q <= k for q in sites)
        if split not in by_split:
            by_split[split] = log_negativity(
                sigma, tuple(range(split + 1, m + 1)), log_base)
        out.append(by_split[split])
    return out


def total_negativity(rho: DensityMatrix, log_base: float = 2) -> float:
    """Sum of log negativities over the contiguous cuts (1..k | k+1..n)."""
    n = rho.num_qubits
    return sum(cut_negativities(rho, range(1, n + 1), n, log_base))


def run_protocol(kind: EncodingKind, alpha: float, gamma: float,
                 cfg: EvolutionConfig | None = None,
                 rate_convention: str = "kraus",
                 measurement_pair: tuple[int, int] = (3, 4)
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evolve the six PAULI_EIGENSTATES inputs through the protocol as one
    batch; deterministic. Returns the states at t1, t2 and t3 (before the
    heralding projection), each of shape (6, 128, 128) in input order."""
    cfg = cfg or EvolutionConfig()
    sched = protocol.build_schedule(kind, alpha, measurement_pair)
    noise = NoiseModel(gamma, protocol.NUM_QUBITS, rate_convention)
    batch = np.stack([protocol.initial_state(phi).matrix
                      for phi in PAULI_EIGENSTATES])
    rho1 = evolve_array(batch, sched.segments, noise, cfg, 0.0, sched.t1)
    rho2 = evolve_array(rho1, sched.segments, noise, cfg, sched.t1, sched.t2)
    rho3 = evolve_array(rho2, sched.segments, noise, cfg, sched.t2, sched.t3)
    return rho1, rho2, rho3


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
    rho1, rho2, rho3 = run_protocol(kind, alpha, gamma, cfg, rate_convention,
                                    measurement_pair)
    n = protocol.NUM_QUBITS
    pair = tuple(measurement_pair)
    kept = tuple(q for q in range(1, n + 1) if q not in pair)
    fids, purs, negs, probs, n2s, n3s, sigmas = [], [], [], [], [], [], []
    failed = []
    for i, phi in enumerate(PAULI_EIGENSTATES):
        try:
            post, prob = protocol.project_pair(rho3[i], pair)
        except PostselectionImpossibleError:
            failed.append(phi.label)
            continue
        # the projection leaves |00><00| on the pair times sigma on the rest
        sigma = partial_trace(DensityMatrix(post, n), kept)
        # qubit n, the teleported qubit, is sigma's last
        fids.append(fidelity(partial_trace(sigma, (len(kept),)), phi))
        purs.append(purity(sigma))
        cuts = cut_negativities(sigma, kept, n, log_base)
        # the cut (1..p2-1 | p2..n), with p2 the pair's second qubit
        negs.append(cuts[pair[1] - 2])
        probs.append(prob)
        n2s.append(total_negativity(DensityMatrix(rho2[i], n), log_base))
        n3s.append(sum(cuts))
        sigmas.append(sigma.matrix)
    if not fids:
        raise PostselectionImpossibleError(
            "heralded outcome impossible for every input state"
        )
    # qubit 1 is idle until t1, so every input's t1 state is its qubit-1
    # state times one state of qubits 2..n, whose cuts are the input average
    rest = tuple(range(2, n + 1))
    n1a = sum(cut_negativities(partial_trace(DensityMatrix(rho1[0], n), rest),
                               rest, n, log_base))
    n2a, n3a = float(np.mean(n2s)), float(np.mean(n3s))
    return MetricsRecord(
        kind=kind,
        alpha=alpha,
        gamma=gamma,
        fidelity_avg=float(np.mean(fids)),
        purity_avg=float(np.mean(purs)),
        purity_of_mean=purity(DensityMatrix(np.mean(sigmas, axis=0), n - 2)),
        neg_cut34=float(np.mean(negs)),
        neg_total_t1=n1a,
        neg_total_t2=n2a,
        neg_total_t3=n3a,
        delta_E_U=n2a - n1a,
        delta_E_M=n3a - n2a,
        success_prob_avg=float(np.mean(probs)),
        failed_inputs=failed,
    )
