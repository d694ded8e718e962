import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim.gates import I2, X, Z
from teleportsim.tensor_core import (NonHermitianError,
                                     hermitian_eigenvalues, num_qubits,
                                     partial_trace, partial_transpose)

from dense_reference import check_density_matrix, embed

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_RHO = np.outer(BELL, BELL.conj())


def random_density(rng, n):
    d = 2 ** n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


def test_kron_identities():
    """np.kron puts its first factor on the most significant qubit."""
    assert np.array_equal(np.kron(I2, I2), np.eye(4))
    assert np.array_equal(np.kron(Z, Z), np.diag([1, -1, -1, 1.0]))
    assert np.array_equal(np.kron(Z, I2), np.diag([1, 1, -1, -1.0]))


def test_kron_xx_flips_00():
    v00 = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(np.kron(X, X) @ v00, [0, 0, 0, 1])


def test_embed_single_site():
    assert np.allclose(embed(Z, (1,), 2), np.kron(Z, I2))
    assert np.allclose(embed(Z, (2,), 2), np.kron(I2, Z))


def test_embed_full_register_identity_case():
    op = np.arange(16).reshape(4, 4).astype(complex)
    assert np.array_equal(embed(op, (1, 2), 2), op)


def test_embed_noncontiguous_swap_permutes_basis():
    big = embed(SWAP, (1, 3), 3)
    # |100> (index 4) <-> |001> (index 1); |010> fixed
    for src, dst in [(4, 1), (1, 4), (2, 2), (5, 5), (0, 0), (7, 7)]:
        v = np.zeros(8)
        v[src] = 1
        out = big @ v
        assert np.argmax(np.abs(out)) == dst
        assert np.isclose(out[dst], 1)


def test_embed_site_order_matters():
    cnot_like = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
        dtype=complex,
    )
    a = embed(cnot_like, (1, 2), 2)
    b = embed(cnot_like, (2, 1), 2)
    assert not np.allclose(a, b)
    # control on qubit 2: |01> -> |11>
    v = np.zeros(4)
    v[1] = 1
    assert np.isclose((b @ v)[3], 1)


def test_embed_rejects_bad_dims():
    with pytest.raises(ValueError):
        embed(SWAP, (1,), 3)
    with pytest.raises(ValueError):
        embed(Z, (1, 1), 3)
    with pytest.raises(ValueError):
        embed(Z, (4,), 3)


def test_partial_trace_product_state():
    v = np.array([1, 0, 0, 0], dtype=complex)
    red = partial_trace(np.outer(v, v.conj()), (1,))
    assert np.allclose(red, [[1, 0], [0, 0]])


def test_partial_trace_bell_is_maximally_mixed():
    red = partial_trace(BELL_RHO, (2,))
    assert np.allclose(red, np.eye(2) / 2)


def test_partial_trace_keep_all_is_identity():
    rng = np.random.default_rng(1)
    rho = random_density(rng, 3)
    assert np.allclose(partial_trace(rho, (1, 2, 3)), rho)


def test_partial_trace_empty_keep_rejected():
    with pytest.raises(ValueError):
        partial_trace(BELL_RHO, ())


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 4),
       st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True))
def test_partial_trace_preserves_trace_and_psd(seed, n, keep):
    keep = [k for k in keep if k <= n] or [1]
    rho = random_density(np.random.default_rng(seed), n)
    red = partial_trace(rho, tuple(keep))
    assert abs(np.trace(red) - 1) < 1e-10
    check_density_matrix(red)


def test_partial_transpose_product_state_stays_psd():
    rng = np.random.default_rng(2)
    a = random_density(rng, 1)
    b = random_density(rng, 1)
    pt = partial_transpose(np.kron(a, b), (2,))
    assert np.allclose(pt, np.kron(a, b.T))
    assert np.linalg.eigvalsh(pt)[0] > -1e-12


def test_partial_transpose_bell_spectrum():
    ev = np.sort(np.linalg.eigvalsh(partial_transpose(BELL_RHO, (2,))))
    assert np.allclose(ev, [-0.5, 0.5, 0.5, 0.5])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(2, 4))
def test_partial_transpose_involution_hermitian_trace(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n)
    b = tuple(range(2, n + 1))
    pt = partial_transpose(rho, b)
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
    assert abs(np.trace(pt) - 1) < 1e-12
    twice = partial_transpose(pt, b)
    assert np.array_equal(twice, rho)


def test_partial_transpose_rejects_trivial_subsystems():
    with pytest.raises(ValueError):
        partial_transpose(BELL_RHO, ())
    with pytest.raises(ValueError):
        partial_transpose(BELL_RHO, (1, 2))


def test_hermitian_eigenvalues_examples():
    assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1, 2, 0]), [()])[0],
                       [0, 1, 2, 3])
    assert np.allclose(hermitian_eigenvalues(X, [()])[0], [-1, 1])


@pytest.mark.parametrize("shape", [(3, 3), (1, 1), (2, 4), (6, 6)])
def test_the_solver_takes_only_qubit_matrices(shape):
    """The solver takes 2^n x 2^n matrices with n >= 1; any other shape,
    1 x 1 included, is a ValueError."""
    with pytest.raises(ValueError, match=r"2\^n x 2\^n"):
        hermitian_eigenvalues(np.eye(*shape), [()])


def test_hermitian_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = (a + a.conj().T) / 2
    assert abs(np.sum(hermitian_eigenvalues(h, [()])[0]) - np.trace(h).real) < 1e-8


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0.0]]), [()])


def solved(m, transposed=((),)):
    """hermitian_eigenvalues(m, transposed), and the sizes of the eigvalsh
    and of the SVD solves it made, a stack of matrices being one solve each."""
    sizes = {"eigvalsh": [], "svd": []}
    originals = {name: getattr(np.linalg, name) for name in sizes}

    def counted(name):
        def solve(a, *args, **kwargs):
            sizes[name].extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
            return originals[name](a, *args, **kwargs)
        return solve

    with mock.patch.object(np.linalg, "eigvalsh", counted("eigvalsh")), \
            mock.patch.object(np.linalg, "svd", counted("svd")):
        return hermitian_eigenvalues(m, transposed), sizes["eigvalsh"], sizes["svd"]


def parity_of(d):
    return np.array([bin(k).count("1") % 2 for k in range(d)], dtype=bool)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1), st.integers(0, 300))
def test_parity_commuting_two_block_matrices_take_one_full_solve(n, seed, exponent):
    """A Hermitian 2^n x 2^n matrix with no entry between basis indices of
    opposite bit parity, but nonzero in both parity blocks, takes one full
    solve, as does one with such an entry, however small, and its mirror:
    only a matrix in one parity block is solved in parts."""
    d = 2 ** n
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    odd = parity_of(d)
    h[odd[:, None] != odd] = 0
    (ev,), sizes, _ = solved(h)
    assert sizes == [d]
    assert np.all(np.diff(ev) >= 0)
    assert np.max(np.abs(ev - np.linalg.eigvalsh(h))) <= 1e-12
    i = int(rng.choice(np.flatnonzero(~odd)))
    j = int(rng.choice(np.flatnonzero(odd)))
    h[i, j] = 10.0 ** -exponent * np.exp(1j * rng.uniform(0, 2 * np.pi))
    h[j, i] = np.conj(h[i, j])
    (ev,), sizes, _ = solved(h)
    assert sizes == [d]
    assert np.array_equal(ev, np.linalg.eigvalsh(h))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_one_sector_cuts_are_solved_as_quarters(data):
    """A Hermitian 2^n x 2^n matrix that lies in its even or its odd parity
    block has each proper cut solved as two diagonal q x q quarters of the
    partial transpose, q = 2^(n-2), in one stacked call, plus one SVD of a
    third quarter; () takes one full solve, and the whole register or a bad
    qubit set raises as partial_transpose does. Each spectrum is the
    ascending full solve. One entry in the empty block or between the two
    blocks, however small, and its mirror send every cut to one full solve."""
    n, sector = data.draw(st.integers(2, 5)), data.draw(st.integers(0, 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    d, q = 2 ** n, 2 ** (n - 2)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    inside = parity_of(d) == sector
    h[~(inside[:, None] & inside)] = 0
    cut = st.lists(st.integers(1, n), unique=True, min_size=1, max_size=n - 1)
    cuts = data.draw(st.lists(cut.map(tuple), max_size=4))
    transposed = data.draw(st.permutations(cuts + [()]))

    def assert_full_solves(spectra):
        for b, ev in zip(transposed, spectra):
            full = np.linalg.eigvalsh(partial_transpose(h, b) if b else h)
            assert np.all(np.diff(ev) >= 0)
            assert np.max(np.abs(ev - full)) <= 1e-12

    spectra, sizes, svds = solved(h, transposed)
    assert sizes == [s for b in transposed for s in ([q, q] if b else [d])]
    assert svds == [q] * len(cuts)
    assert_full_solves(spectra)
    for bad in (tuple(range(n, 0, -1)), (2, 1, 2), (n + 1,)):
        with pytest.raises(ValueError) as expected:
            partial_transpose(h, bad)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            hermitian_eigenvalues(h, [bad])
    across = data.draw(st.booleans())
    i = rng.choice(np.flatnonzero(~inside))
    j = rng.choice(np.flatnonzero(inside if across else ~inside))
    h[i, j] = 10.0 ** -data.draw(st.integers(0, 300)) * (
        np.exp(1j * rng.uniform(0, 2 * np.pi)) if i != j else 1)
    h[j, i] = np.conj(h[i, j])
    spectra, sizes, svds = solved(h, transposed)
    assert sizes == [d] * len(transposed) and svds == []
    assert_full_solves(spectra)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_cut_spectra_match_full_solves(data):
    """Each qubit set's spectrum, from one solver call on the state, is the
    ascending full solve of its partial transpose, () giving the state's
    own; a non-Hermitian or NaN state raises before any LAPACK call."""
    n = data.draw(st.integers(1, 5))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    d = 2 ** n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2
    if data.draw(st.booleans()):
        odd = parity_of(d)
        h[odd[:, None] != odd] = 0
    sets = st.lists(st.integers(1, n), unique=True, max_size=n - 1).map(tuple)
    transposed = data.draw(st.permutations(data.draw(st.lists(sets)) + [()]))
    spectra = hermitian_eigenvalues(h, transposed)
    assert len(spectra) == len(transposed)
    for b, ev in zip(transposed, spectra):
        full = np.linalg.eigvalsh(partial_transpose(h, b) if b else h)
        assert np.all(np.diff(ev) >= 0)
        assert np.max(np.abs(ev - full)) <= 1e-12
    i, j = data.draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)))
    h[i, j] = np.nan if data.draw(st.booleans()) else h[i, j] + 1e-9j + 1e-9
    with mock.patch.object(np.linalg, "eigvalsh", side_effect=AssertionError):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(h, transposed)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_embed_composes(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    sites = (3, 1)
    lhs = embed(a, sites, 3) @ embed(b, sites, 3)
    rhs = embed(a @ b, sites, 3)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_density_matrix_validate_catches_violations():
    with pytest.raises(NonHermitianError):
        check_density_matrix(np.array([[0.5, 0.5], [0, 0.5]]))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2
    bad = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        check_density_matrix(bad)
    check_density_matrix(BELL_RHO)


def test_density_matrix_shape_check():
    """The qubit count comes from the shape, which must be 2^n x 2^n."""
    assert [num_qubits(np.eye(d)) for d in (1, 2, 4, 128)] == [0, 1, 2, 7]
    for shape in ((3, 3), (2, 4), (4,), (0, 0), (2, 2, 2), ()):
        with pytest.raises(ValueError):
            num_qubits(np.zeros(shape))
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(3) / 3)
    with pytest.raises(ValueError):
        partial_trace(np.eye(6) / 6, (1,))
