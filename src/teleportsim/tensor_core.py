"""Plain-array primitives on multi-qubit density matrices.

Qubit convention: qubits are numbered 1..n and qubit 1 is the most
significant tensor factor, i.e. basis index b of the 2^n space decodes to
the bit string (q1 q2 ... qn).
"""

from __future__ import annotations

import functools

import numpy as np

HERMITICITY_ATOL = 1e-10


class NonHermitianError(ValueError):
    """Raised when an operation requires a Hermitian matrix but got none."""


def check_sites(sites, n: int) -> tuple[int, ...]:
    """Validate a subset of qubit sites against an n-qubit register."""
    sites = tuple(int(s) for s in sites)
    repeated = sorted({s for s in sites if sites.count(s) > 1})
    if repeated:
        raise ValueError(f"qubit site(s) {repeated} repeat in {sites}")
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


@functools.cache
def parity_blocks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Whether each basis index of n >= 1 qubits has odd bit parity, and the
    flat indices of a 2^n x 2^n matrix's four parity blocks, stacked:
    even-even, odd-odd, even-odd and odd-even."""
    if n < 1:
        raise ValueError("expected a 2^n x 2^n matrix with n >= 1, got 1 x 1")
    odd = np.array([bin(k).count("1") % 2 for k in range(2 ** n)], dtype=bool)
    e, o = np.flatnonzero(~odd), np.flatnonzero(odd)
    return odd, np.stack([r[:, None] * 2 ** n + c
                          for r, c in ((e, e), (o, o), (e, o), (o, e))])


@functools.cache
def _quarters(n: int, b: tuple[int, ...], s: int) -> np.ndarray:
    """Flat indices into a 2^n x 2^n matrix in parity block s (0 even) of the
    q x q quarters, q = 2^(n-2), holding its partial transpose over b: two on
    the diagonal and X of [[0, X], [X', 0]]. Labelled by twice the parity of
    its bits outside b plus that of those in b, an index of m reads s or 3 - s."""
    pt = partial_transpose(np.arange(4 ** n).reshape(2 ** n, 2 ** n), b)
    idx, odd = np.arange(2 ** n), parity_blocks(n)[0]
    in_b = sum(1 << (n - q) for q in b)
    at = [np.flatnonzero(2 * odd[idx & ~in_b] + odd[idx & in_b] == k) for k in range(4)]
    return np.stack([pt[np.ix_(at[r], at[c])]
                     for r, c in ((s, s), (3 - s, 3 - s), (1 - s, 2 + s))])


def hermitian_eigenvalues(m: np.ndarray, transposed) -> list[np.ndarray]:
    """Ascending eigenvalues of the partial transpose of the Hermitian
    2^n x 2^n m, n >= 1, over each qubit set in `transposed`, () being m. A
    transpose keeps mirror pairs and the parity of i + j, so m's checks hold
    for each: if m lies in one parity block, each proper cut is solved as
    _quarters, and every other transpose in one full solve."""
    m = np.asarray(m)
    n = num_qubits(m)
    blocks = parity_blocks(n)[1]
    dev = np.max(np.abs(m - m.conj().T))
    # written so that a NaN fails it
    if not dev <= HERMITICITY_ATOL:
        raise NonHermitianError(f"matrix not Hermitian: max deviation {dev:.3e}")
    flat = m.ravel()
    # the parity block m lies in, if m is zero outside it; the off-diagonal
    # blocks are read first, and once, as most states fail there
    split = not flat.take(blocks[2:]).any()
    sector = next((s for s in (0, 1) if split and not flat.take(blocks[1 - s]).any()), None)
    spectra = []
    for b in transposed:
        if sector is not None and len(b):
            x = flat.take(_quarters(n, tuple(b), sector))
            sv = np.linalg.svd(x[2], compute_uv=False)
            ev = np.concatenate([np.linalg.eigvalsh(x[:2]).ravel(), sv, -sv])
        else:
            ev = np.linalg.eigvalsh(partial_transpose(m, b) if len(b) else m)
        spectra.append(np.sort(ev))
    return spectra
