"""Plain-array primitives on multi-qubit density matrices.

Qubit convention: qubits are numbered 1..n and qubit 1 is the most
significant tensor factor, i.e. basis index b of the 2^n space decodes to
the bit string (q1 q2 ... qn).
"""

from __future__ import annotations

import numpy as np

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-8
PSD_ATOL = 1e-8


class NonHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix but got none."""


def check_sites(sites, n: int) -> tuple[int, ...]:
    """Validate a subset of qubit sites against an n-qubit register."""
    sites = tuple(int(s) for s in sites)
    if len(set(sites)) != len(sites):
        raise ValueError(f"qubit sites must be unique, got {sites}")
    for s in sites:
        if not 1 <= s <= n:
            raise ValueError(f"qubit site {s} out of range 1..{n}")
    return sites


def num_qubits(m: np.ndarray) -> int:
    """The qubit count n of a 2^n x 2^n matrix; ValueError for any other shape."""
    shape = np.shape(m)
    n = (shape[-1] - 1).bit_length() if shape else 0
    if shape != (2 ** n, 2 ** n):
        raise ValueError(f"expected a 2^n x 2^n matrix, got shape {shape}")
    return n


def check_density_matrix(m: np.ndarray) -> None:
    """Check that m is a 2^n x 2^n density matrix: Hermitian, unit trace
    and PSD within the tolerances; raise ValueError on violation."""
    num_qubits(m)
    lo = float(hermitian_eigenvalues(m)[0])
    tr = abs(np.trace(m) - 1.0)
    if tr > TRACE_ATOL:
        raise ValueError(f"trace deviates from 1 by {tr:.3e}")
    if lo < -PSD_ATOL:
        raise ValueError(f"not PSD: min eigenvalue {lo:.3e}")


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Trace out all qubits not in `keep`."""
    n = num_qubits(rho)
    keep = check_sites(keep, n)
    if not keep:
        raise ValueError("keep set must be nonempty")
    keep = tuple(sorted(keep))
    t = rho.reshape((2,) * (2 * n))
    row = list(range(n))
    # traced-out qubits share their row index in the column slot
    col = [n + q - 1 if q in keep else q - 1 for q in range(1, n + 1)]
    out = [q - 1 for q in keep] + [n + q - 1 for q in keep]
    reduced = np.einsum(t, row + col, out)
    return reduced.reshape(2 ** len(keep), 2 ** len(keep))


def partial_transpose(rho: np.ndarray, subsystem_b) -> np.ndarray:
    """Transpose the indices of subsystem B, leaving A untouched."""
    n = num_qubits(rho)
    b = check_sites(subsystem_b, n)
    if not b or len(b) == n:
        raise ValueError("subsystem B must be a nonempty proper subset")
    t = rho.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for q in b:
        perm[q - 1], perm[n + q - 1] = perm[n + q - 1], perm[q - 1]
    return np.ascontiguousarray(t.transpose(perm).reshape(rho.shape))


def _odd_parity(d: int) -> np.ndarray:
    """Whether each basis index 0..d-1 has an odd number of 1 bits. The
    indices 2^k..2^(k+1)-1 are those below 2^k with bit k set, so each has
    the opposite parity."""
    odd = np.zeros(1, dtype=bool)
    while len(odd) < d:
        odd = np.concatenate([odd, ~odd])
    return odd[:d]


def commutes_with_parity(m: np.ndarray) -> bool:
    """Whether the square matrix m has no nonzero entry between basis indices
    of opposite bit parity: for a 2^n x 2^n m, whether it commutes exactly
    with the parity Z^(x)n."""
    odd = _odd_parity(len(m))
    return not (m[odd][:, ~odd].any() or m[~odd][:, odd].any())


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending. A matrix that
    commutes with the parity is the direct sum of its even and odd blocks,
    so it is solved as those two."""
    m = np.asarray(m)
    dev = np.max(np.abs(m - m.conj().T))
    if dev > HERMITICITY_ATOL:
        raise NonHermitianError(f"matrix not Hermitian: max deviation {dev:.3e}")
    if not commutes_with_parity(m):
        return np.linalg.eigvalsh(m)
    odd = _odd_parity(len(m))
    return np.sort(np.concatenate(
        [np.linalg.eigvalsh(m[np.ix_(block, block)]) for block in (~odd, odd)]))
