"""Dense references the package no longer carries, for the tests.

The dense Trotter stepper is the noisy reference the local-superoperator
engine of `teleportsim.evolution` is checked against: every bin embeds the
slot's step unitaries into one 2^n x 2^n matrix U, applies rho -> U rho U',
and then multiplies rho elementwise by the dephasing mask
exp(-r dt hamming(a, b)). This is the same Trotterized model the package
computes, written the slow and obvious way. `scrambling_unitary` composes
the encoder from the packaged schedule lines the same way, and
`initial_state` is the 7-qubit state each input starts from.
`dephasing_kraus` is the per-qubit Kraus pair whose conjugation the mask
reproduces, and `check_density_matrix` the trace, Hermiticity and PSD check
the tests apply to evolved and heralded states.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from teleportsim.evolution import EvolutionConfig, NoiseModel
from teleportsim.gates import ParsedSchedule, entry_segment, load_schedule
from teleportsim.protocol import NUM_QUBITS, InputState
from teleportsim.tensor_core import (check_sites, hermitian_eigenvalues,
                                     num_qubits)

TRACE_ATOL = 1e-8
PSD_ATOL = 1e-8


def check_density_matrix(m: np.ndarray) -> None:
    """Check that m is a 2^n x 2^n density matrix: Hermitian, unit trace
    and PSD within the tolerances; raise ValueError on violation."""
    lo = float(hermitian_eigenvalues(m, [()])[0][0])
    tr = abs(np.trace(m) - 1.0)
    if tr > TRACE_ATOL:
        raise ValueError(f"trace deviates from 1 by {tr:.3e}")
    if lo < -PSD_ATOL:
        raise ValueError(f"not PSD: min eigenvalue {lo:.3e}")


def dephasing_kraus(gamma: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Kraus pair K1 = diag(e^{-gamma dt}, 1), K2 = diag(sqrt(1-e^{-2 gamma dt}), 0).

    Completeness K1'K1 + K2'K2 = I holds exactly in closed form.
    """
    # written so that a NaN setting fails them
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    decay = np.exp(-gamma * dt)
    k1 = np.diag([decay, 1.0]).astype(complex)
    k2 = np.diag([np.sqrt(max(0.0, 1.0 - decay ** 2)), 0.0]).astype(complex)
    return k1, k2


def embed(op: np.ndarray, sites, n: int) -> np.ndarray:
    """Lift a k-site operator to the full 2^n space.

    The operator acts on the listed sites (in listed order) and as the
    identity elsewhere. Sites need not be contiguous or sorted.
    """
    op = np.asarray(op, dtype=complex)
    sites = check_sites(sites, n)
    k = len(sites)
    if op.shape != (2 ** k, 2 ** k):
        raise ValueError(
            f"operator of shape {op.shape} does not act on {k} site(s)"
        )
    if k == n and sites == tuple(range(1, n + 1)):
        return op.copy()
    rest = [q for q in range(1, n + 1) if q not in sites]
    big = np.kron(op, np.eye(2 ** (n - k))).reshape((2,) * (2 * n))
    # row/col axes are currently ordered (sites..., rest...); permute to 1..n
    current = list(sites) + rest
    perm = [current.index(q) for q in range(1, n + 1)]
    big = big.transpose(perm + [p + n for p in perm])
    return np.ascontiguousarray(big.reshape(2 ** n, 2 ** n))


def compose_window(parsed: ParsedSchedule, alpha: float, sites_subset,
                   site_map) -> np.ndarray:
    """Compose the encode-window gates on a 3-qubit register."""
    window = [e for e in parsed.entries
              if parsed.t1 - 1e-9 <= e.start < parsed.t2 - 1e-9
              and set(e.sites) <= set(sites_subset)]
    window.sort(key=lambda e: e.start)
    u = np.eye(8, dtype=complex)
    for e in window:
        seg = entry_segment(e, alpha)
        local = tuple(site_map[s] for s in seg.sites)
        u = embed(expm(-1j * seg.generator * seg.duration), local, 3) @ u
    return u


def scrambling_unitary(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The 3-qubit scrambling encoder U(alpha) and its conjugate U*(alpha).

    The encoder acts on qubits (1,2,3); in the teleportation circuit the
    conjugate acts on qubits (6,5,4), i.e. in mirrored site order.
    """
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    parsed = load_schedule("scrambling")
    u = compose_window(parsed, alpha, (1, 2, 3), {1: 1, 2: 2, 3: 3})
    return u, u.conj()


def initial_state(phi: InputState) -> np.ndarray:
    """rho(0) = |phi><phi| on qubit 1, all other qubits in |0>."""
    rest = np.zeros(2 ** (NUM_QUBITS - 1), dtype=complex)
    rest[0] = 1.0
    psi = np.kron(phi.vector, rest)
    return np.outer(psi, psi.conj())


_HAMMING_CACHE: dict[int, np.ndarray] = {}


def hamming_matrix(n: int) -> np.ndarray:
    """Pairwise Hamming distances between all n-bit basis indices."""
    h = _HAMMING_CACHE.get(n)
    if h is None:
        idx = np.arange(2 ** n)
        h = np.zeros((2 ** n, 2 ** n))
        for b in range(n):
            bit = (idx >> b) & 1
            h += bit[:, None] != bit[None, :]
        _HAMMING_CACHE[n] = h
    return h


def dephasing_mask(noise: NoiseModel, dt: float, n: int) -> np.ndarray:
    """Elementwise factor applied to an n-qubit rho by one dissipative step
    on all qubits."""
    return np.exp(-noise.coherence_rate * dt * hamming_matrix(n))


def dissipative_step(rho: np.ndarray, noise: NoiseModel, dt: float) -> np.ndarray:
    """One dephasing bin on every qubit; populations are left unchanged."""
    return rho * dephasing_mask(noise, dt, num_qubits(rho))


def slot_unitary(segments, dt: float, n: int) -> np.ndarray:
    """Product of the embedded per-segment step unitaries for one time slot."""
    sites = [q for seg in segments for q in seg.sites]
    if len(set(sites)) != len(sites):
        raise ValueError(f"concurrent segments share a qubit: {sorted(sites)}")
    u = np.eye(2 ** n, dtype=complex)
    for seg in segments:
        u = embed(expm(-1j * seg.generator * dt), seg.sites, n) @ u
    return u


def unitary_step(rho: np.ndarray, segments, dt: float) -> np.ndarray:
    """One unitary bin: rho -> U rho U' with U the product of step unitaries."""
    u = slot_unitary(segments, dt, num_qubits(rho))
    return u @ rho @ u.conj().T


def evolve_array(rho: np.ndarray, segments, noise: NoiseModel,
                 cfg: EvolutionConfig, t_from: float, t_to: float) -> np.ndarray:
    """Batched dense evolution; rho has shape (..., 2^n, 2^n).

    Each bin [t, t + dt) applies the segments active at its start t, found
    bin by bin: start <= t < end, compared at the bin's midpoint as schedule
    times lie on the step grid."""
    if t_from >= t_to:
        raise ValueError(f"need t_from < t_to, got {t_from} >= {t_to}")
    n, dt = num_qubits(rho[(0,) * (rho.ndim - 2)]), cfg.dt
    mask = dephasing_mask(noise, dt, n) if noise.gamma > 0 else None
    unitaries = {}  # (U, U') per set of active segments
    for k in range(round((t_to - t_from) / dt)):
        t = t_from + k * dt
        active = tuple(i for i, s in enumerate(segments)
                       if s.start_time < t + dt / 2 < s.start_time + s.duration)
        if active:
            if active not in unitaries:
                u = slot_unitary([segments[i] for i in active], dt, n)
                unitaries[active] = (u, u.conj().T)
            u, udag = unitaries[active]
            rho = u @ rho @ udag
        if mask is not None:
            rho = rho * mask
    return rho
