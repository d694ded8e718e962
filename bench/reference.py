"""Independent reference for the benchmark's correctness checks.

Shares no code with teleportsim. The two circuits are transcribed here from
the circuit description (gate, sites, start, duration, angle), each step
unitary is written in closed form, and one Trotter step is the same model the
package documents: the unitary sandwich U rho U^dagger, then dephasing that
multiplies rho[a, b] by exp(-r dt hamming(a, b)).

The engine differs from the package's: the step factors over disjoint qubit
groups, so a whole time slot is one small local superoperator per group,
raised to the number of steps and applied with tensordot to the 14-index
density tensor. Partial transposes are reshapes of that tensor, and the
eigenvalues come from scipy's ``eigvalsh`` rather than numpy's. The result
is the same Trotterized model to rounding error.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigvalsh

N = 7
DIM = 2 ** N
PI = math.pi
FIELDS = (
    "fidelity_avg", "purity_avg", "purity_of_mean", "neg_cut34",
    "neg_total_t1", "neg_total_t2", "neg_total_t3", "delta_E_U",
    "delta_E_M", "success_prob_avg",
)
NEGATIVITY_CUTOFF = 1e-12
CHECKPOINTS = (0.0, 2.0, 10.0, 12.0)
MEASURED_PAIR = (3, 4)

_SQ = 1 / math.sqrt(2)
INPUTS = (
    ("X+", (_SQ, _SQ)), ("X-", (_SQ, -_SQ)),
    ("Y+", (_SQ, 1j * _SQ)), ("Y-", (_SQ, -1j * _SQ)),
    ("Z+", (1.0, 0.0)), ("Z-", (0.0, 1.0)),
)

# (gate, sites, start, duration, angle as a function of alpha)
_BELL = [
    ("XX", (2, 5), 0, 1, lambda a: PI / 2),
    ("XX", (3, 4), 0, 1, lambda a: PI / 2),
    ("XX", (6, 7), 0, 1, lambda a: PI / 2),
    ("RZ", (2,), 1, 1, lambda a: PI / 2),
    ("RZ", (3,), 1, 1, lambda a: PI / 2),
    ("RZ", (6,), 1, 1, lambda a: PI / 2),
]
_ROTATE = [
    ("CNOT", MEASURED_PAIR, 10, 1, lambda a: 1.0),
    ("HAD", (MEASURED_PAIR[0],), 11, 1, lambda a: 1.0),
]


def _scrambling_encoder():
    gates = []
    for block, start in ((0, 2), (1, 6)):
        sign = -1 if block == 0 else 1
        for offset, pair in enumerate(((1, 2), (2, 3), (1, 3))):
            mirror = (7 - pair[0], 7 - pair[1])
            gates.append(("XX", pair, start + offset, 1, lambda a: -PI / 2))
            gates.append(("XX", mirror, start + offset, 1, lambda a: PI / 2))
        for q in (1, 2, 3):
            gates.append(("RZ", (q,), start + 3, 1,
                          lambda a, s=sign: s * a * PI / 2))
            gates.append(("RZ", (7 - q,), start + 3, 1,
                          lambda a, s=sign: -s * a * PI / 2))
    return gates


_SWAP_ENCODER = [
    ("PSWAP", (1, 2), 2, 4, lambda a: a),
    ("PSWAP", (2, 3), 6, 4, lambda a: a),
    ("PSWAP", (6, 5), 2, 4, lambda a: -a),
    ("PSWAP", (5, 4), 6, 4, lambda a: -a),
]

CIRCUITS = {
    "scrambling": _BELL + _scrambling_encoder() + _ROTATE,
    "swap": _BELL + _SWAP_ENCODER + _ROTATE,
}

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_XX = np.kron(_X, _X)
_P1_PMINUS = np.kron(np.diag([0.0, 1.0]), np.array([[1, -1], [-1, 1]]) / 2)
_SWAP_CORE = np.array(
    [[0, 0, 0, 0], [0, 1, -1, 0], [0, -1, 1, 0], [0, 0, 0, 0]], dtype=complex)


def step_unitary(name: str, angle: float, duration: float, dt: float) -> np.ndarray:
    """Closed form of the gate's evolution over one step dt of its duration."""
    f = dt / duration
    if name == "XX":  # exp[(i phi/2) XX]
        th = angle * f / 2
        return math.cos(th) * np.eye(4) + 1j * math.sin(th) * _XX
    if name == "RZ":  # exp[(i phi/2) Z]
        th = angle * f / 2
        return np.diag([np.exp(1j * th), np.exp(-1j * th)])
    if name == "CNOT":  # projector P1 (x) P- picks up the phase e^{i pi}
        return np.eye(4) + (np.exp(1j * PI * angle * f) - 1) * _P1_PMINUS
    if name == "HAD":  # exp[(i pi / (2 sqrt 2)) (X + Z)]
        th = PI * angle * f / 2
        return math.cos(th) * np.eye(2) + 1j * math.sin(th) * (_X + _Z) / math.sqrt(2)
    if name == "PSWAP":  # exp[c ln SWAP]; the core S obeys S^2 = 2S
        return np.eye(4) + (np.exp(1j * PI * angle * f) - 1) / 2 * _SWAP_CORE
    raise ValueError(f"unknown gate {name!r}")


def _decoherence(k: int, factor: float) -> np.ndarray:
    """Diagonal of the k-qubit dephasing superoperator on (rows, cols) bits."""
    bits = (np.arange(2 ** (2 * k))[:, None] >> np.arange(2 * k)[::-1]) & 1
    differ = (bits[:, :k] != bits[:, k:]).sum(axis=1)
    return factor ** differ


def _apply_local(state: np.ndarray, superop: np.ndarray, sites) -> np.ndarray:
    """Apply a superoperator on the (row, col) indices of the given sites."""
    k = len(sites)
    axes = list(sites) + [N + s for s in sites]  # axis 0 is the batch
    m = superop.reshape((2,) * (4 * k))
    out = np.tensordot(m, state, axes=(list(range(2 * k, 4 * k)), axes))
    return np.moveaxis(out, list(range(2 * k)), axes)


def evolve(state: np.ndarray, gates, rate: float, dt: float,
           t_from: float, t_to: float) -> np.ndarray:
    """Trotter steps of size dt from t_from to t_to on a batched tensor."""
    edges = {t_from, t_to}
    for _, _, start, dur, _ in gates:
        edges |= {t for t in (start, start + dur) if t_from < t < t_to}
    edges = sorted(edges)
    for a, b in zip(edges, edges[1:]):
        nsteps = round((b - a) / dt)
        decay = math.exp(-rate * dt)
        idle = set(range(1, N + 1))
        for _, sites, start, dur, u in gates:
            if not start <= a < start + dur:
                continue
            idle -= set(sites)
            step = _decoherence(len(sites), decay)[:, None] * np.kron(u, u.conj())
            state = _apply_local(state, np.linalg.matrix_power(step, nsteps), sites)
        for q in idle:
            state = _apply_local(state, np.diag(_decoherence(1, decay ** nsteps)), (q,))
    return state


def _instantiate(kind: str, alpha: float, dt: float):
    return [(name, sites, start, dur, step_unitary(name, angle(alpha), dur, dt))
            for name, sites, start, dur, angle in CIRCUITS[kind]]


def initial_states() -> np.ndarray:
    """Batched |phi><phi| (x) |0..0><0..0| for the six Pauli inputs."""
    psi = np.zeros((len(INPUTS), DIM), dtype=complex)
    for i, (_, vec) in enumerate(INPUTS):
        psi[i, 0], psi[i, DIM // 2] = vec
    rho = psi[:, :, None] * psi[:, None, :].conj()
    return rho.reshape((len(INPUTS),) + (2,) * (2 * N))


def checkpoint_states(kind: str, alpha: float, gamma: float, dt: float):
    """Batched 128 x 128 states at t1, t2, t3 (before projection), with the
    coherence decay rate equal to gamma (the program's default convention)."""
    gates = _instantiate(kind, alpha, dt)
    state = initial_states()
    out = []
    for t_from, t_to in zip(CHECKPOINTS, CHECKPOINTS[1:]):
        state = evolve(state, gates, gamma, dt, t_from, t_to)
        out.append(state.reshape(-1, DIM, DIM))
    return out


def project(rho: np.ndarray):
    """Project the measured pair onto |00>; (renormalized states, probs)."""
    t = rho.reshape((-1,) + (2,) * (2 * N)).copy()
    for q in MEASURED_PAIR:
        for axis in (q, N + q):
            idx = [slice(None)] * t.ndim
            idx[axis] = 1
            t[tuple(idx)] = 0
    post = t.reshape(-1, DIM, DIM)
    prob = np.real(np.trace(post, axis1=1, axis2=2))
    return post / prob[:, None, None], prob


def log_negativity(rho: np.ndarray, cut: int) -> float:
    """log2(1 + 2N) across the cut (1..cut | cut+1..7)."""
    a, b = 2 ** cut, 2 ** (N - cut)
    pt = rho.reshape(a, b, a, b).transpose(0, 3, 2, 1).reshape(DIM, DIM)
    ev = eigvalsh(pt)
    ev = ev[np.abs(ev) >= NEGATIVITY_CUTOFF]
    return math.log2(1 + 2 * float(np.sum(np.abs(ev) - ev) / 2))


def total_negativity(rho: np.ndarray) -> float:
    return sum(log_negativity(rho, k) for k in range(1, N))


def _purity(m: np.ndarray) -> float:
    return float(np.sum(np.abs(m) ** 2))


class ReferenceModel:
    """Computes reference records; t1 negativities are shared per (gamma, dt),
    since the state at t1 does not depend on protocol or alpha."""

    def __init__(self):
        self._t1 = {}

    def record(self, kind: str, alpha: float, gamma: float, dt: float) -> dict:
        rho1, rho2, rho3 = checkpoint_states(kind, alpha, gamma, dt)
        post, prob = project(rho3)
        n1 = self._t1.get((gamma, dt))
        if n1 is None:
            n1 = self._t1[(gamma, dt)] = [total_negativity(r) for r in rho1]
        n2 = [total_negativity(r) for r in rho2]
        n3 = [total_negativity(r) for r in post]
        fid, pur, cut = [], [], []
        for i, (_, vec) in enumerate(INPUTS):
            v = np.asarray(vec, dtype=complex)
            last = np.einsum("aiaj->ij", post[i].reshape(DIM // 2, 2, DIM // 2, 2))
            fid.append(float(np.real(v.conj() @ last @ v)))
            pur.append(_purity(post[i]))
            cut.append(log_negativity(post[i], MEASURED_PAIR[0]))
        n1a, n2a, n3a = (float(np.mean(n)) for n in (n1, n2, n3))
        return {
            "fidelity_avg": float(np.mean(fid)),
            "purity_avg": float(np.mean(pur)),
            "purity_of_mean": _purity(post.mean(axis=0)),
            "neg_cut34": float(np.mean(cut)),
            "neg_total_t1": n1a,
            "neg_total_t2": n2a,
            "neg_total_t3": n3a,
            "delta_E_U": n2a - n1a,
            "delta_E_M": n3a - n2a,
            "success_prob_avg": float(np.mean(prob)),
        }
