import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleportsim import evolution
from teleportsim.evolution import EvolutionConfig, NoiseModel, evolve_array
from teleportsim.gates import GateSegment, gate_generator

import dense_reference
import oracle
from dense_reference import (check_density_matrix, dephasing_kraus,
                             dephasing_mask, dissipative_step, embed,
                             hamming_matrix, unitary_step)


def random_density(rng, n):
    d = 2 ** n
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m)


def kraus_oracle(rho, gamma, dt, n, order=None):
    """Explicit per-qubit Kraus conjugation, the slow reference path."""
    k1, k2 = dephasing_kraus(gamma, dt)
    m = rho.copy()
    for q in order or range(1, n + 1):
        big1 = embed(k1, (q,), n)
        big2 = embed(k2, (q,), n)
        m = big1 @ m @ big1.conj().T + big2 @ m @ big2.conj().T
    return m


def test_kraus_pair_values():
    k1, k2 = dephasing_kraus(0.0, 0.01)
    assert np.allclose(k1, np.eye(2))
    assert np.allclose(k2, np.zeros((2, 2)))
    k1, k2 = dephasing_kraus(0.06, 0.01)
    decay = np.exp(-0.06 * 0.01)
    assert np.allclose(k1, np.diag([decay, 1]))
    assert np.allclose(k2, np.diag([np.sqrt(1 - decay ** 2), 0]))


def test_kraus_completeness():
    k1, k2 = dephasing_kraus(0.06, 0.01)
    total = k1.conj().T @ k1 + k2.conj().T @ k2
    assert np.max(np.abs(total - np.eye(2))) < 1e-14


def test_kraus_rejects_bad_args():
    with pytest.raises(ValueError):
        dephasing_kraus(-0.1, 0.01)
    with pytest.raises(ValueError):
        dephasing_kraus(0.1, 0.0)


NAN = float("nan")


@pytest.mark.parametrize("make, message", [
    (lambda: EvolutionConfig(NAN), "dt must be positive and finite, got nan"),
    (lambda: EvolutionConfig(float("inf")),
     "dt must be positive and finite, got inf"),
    (lambda: NoiseModel(NAN), "gamma must be nonnegative, got nan"),
    (lambda: dephasing_kraus(NAN, 0.1), "gamma must be nonnegative, got nan"),
    (lambda: dephasing_kraus(0.1, NAN), "dt must be positive, got nan"),
], ids=["EvolutionConfig", "EvolutionConfig-inf", "NoiseModel", "dephasing_kraus-gamma",
        "dephasing_kraus-dt"])
def test_nan_settings_are_rejected(make, message):
    """NaN fails every comparison, so the checks are written to fail on it.
    Written as x < 0, a NaN gamma or dt passed: EvolutionConfig(nan) failed
    at the first evolution, NoiseModel(nan) in an eigensolver, and
    dephasing_kraus returned NaN Kraus operators. An infinite dt used to
    construct, and the first evolution then found time 0 off its grid."""
    with pytest.raises(ValueError, match=message):
        make()


def test_repeated_kraus_gives_exponential_coherence_decay():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(plus, plus.conj())
    gamma, dt, steps = 0.06, 0.01, 100
    for _ in range(steps):
        rho = kraus_oracle(rho, gamma, dt, 1)
    assert abs(rho[0, 1]) == pytest.approx(0.5 * np.exp(-0.06), abs=1e-14)


def test_dissipative_step_matches_kraus_oracle():
    rng = np.random.default_rng(7)
    rho = random_density(rng, 3)
    noise = NoiseModel(0.05)
    fast = dissipative_step(rho, noise, 0.02)
    slow = kraus_oracle(rho, 0.05, 0.02, 3)
    assert np.max(np.abs(fast - slow)) < 1e-14


def test_dissipative_step_kraus_order_irrelevant():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 3)
    a = kraus_oracle(rho, 0.05, 0.02, 3, order=(1, 2, 3))
    b = kraus_oracle(rho, 0.05, 0.02, 3, order=(3, 1, 2))
    assert np.max(np.abs(a - b)) < 1e-14


def test_dissipative_step_fixes_diagonal():
    diag = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
    out = dissipative_step(diag, NoiseModel(0.06), 0.01)
    assert np.max(np.abs(out - diag)) < 1e-15


def test_dissipative_step_gamma_zero_is_identity():
    rng = np.random.default_rng(9)
    rho = random_density(rng, 2)
    out = dissipative_step(rho, NoiseModel(0.0), 0.01)
    assert np.array_equal(out, rho)


def test_dissipative_step_preserves_trace_and_populations():
    rng = np.random.default_rng(10)
    rho = random_density(rng, 3)
    out = dissipative_step(rho, NoiseModel(0.06), 0.01)
    assert abs(np.trace(out) - 1) < 1e-12
    assert np.allclose(np.diag(out), np.diag(rho))


def test_rate_conventions_differ_by_factor_two():
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(plus, plus.conj())
    kraus = dissipative_step(rho, NoiseModel(0.06, "kraus"), 1.0)
    lind = dissipative_step(rho, NoiseModel(0.06, "lindblad"), 1.0)
    assert abs(kraus[0, 1]) == pytest.approx(0.5 * np.exp(-0.06))
    assert abs(lind[0, 1]) == pytest.approx(0.5 * np.exp(-0.03))


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(-0.1)
    with pytest.raises(ValueError):
        NoiseModel(0.1, "other")
    assert NoiseModel(0.1).coherence_rate == 0.1
    assert NoiseModel(0.1, "lindblad").coherence_rate == 0.05


def test_hamming_matrix_small():
    h = hamming_matrix(2)
    expect = np.array([[0, 1, 1, 2], [1, 0, 2, 1], [1, 2, 0, 1], [2, 1, 1, 0]])
    assert np.array_equal(h, expect)


def test_dephasing_mask_closed_form():
    noise = NoiseModel(0.05)
    mask = dephasing_mask(noise, 0.1, 2)
    assert np.allclose(mask, np.exp(-0.05 * 0.1 * hamming_matrix(2)))


def test_unitary_step_no_segments_is_identity():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 2)
    out = unitary_step(rho, [], 0.01)
    assert np.array_equal(out, rho)


def test_unitary_step_rejects_overlapping_sites():
    seg1 = GateSegment(gate_generator("XX", 0.3, 1.0), (1, 2), 0.0, 1.0)
    seg2 = GateSegment(gate_generator("RZ", 0.3, 1.0), (2,), 0.0, 1.0)
    rho = np.eye(4) / 4
    with pytest.raises(ValueError):
        unitary_step(rho, [seg1, seg2], 0.01)


def test_unitary_step_preserves_purity():
    rng = np.random.default_rng(12)
    rho = random_density(rng, 2)
    before = np.real(np.trace(rho @ rho))
    seg = GateSegment(gate_generator("XX", 1.1, 1.0), (1, 2), 0.0, 1.0)
    out = unitary_step(rho, [seg], 0.01)
    after = np.real(np.trace(out @ out))
    assert abs(before - after) < 1e-12


def test_full_segment_reproduces_gate_action():
    seg = GateSegment(gate_generator("RZ", np.pi / 2, 1.0), (1,), 0.0, 1.0)
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(plus, plus.conj())
    out = evolve_array(rho, [seg], NoiseModel(0.0),
                       EvolutionConfig(0.01), 0.0, 1.0)
    expect = oracle.rz(np.pi / 2) @ rho @ oracle.rz(np.pi / 2).conj().T
    assert np.max(np.abs(out - expect)) < 1e-10


def test_segment_acts_on_its_own_steps_only():
    """A segment on [2, 3) acts over [2, 3] and leaves [0, 2] and [3, 4] to
    pure dephasing, as in the dense stepper, which finds the active segments
    bin by bin."""
    seg = GateSegment(gate_generator("XX", 0.9, 1.0), (1, 2), 2.0, 1.0)
    rho = random_density(np.random.default_rng(16), 2)
    noise, cfg = NoiseModel(0.3), EvolutionConfig(0.25)
    for t_from, t_to in ((0.0, 2.0), (2.0, 3.0), (3.0, 4.0), (0.0, 4.0)):
        out = evolve_array(rho, [seg], noise, cfg, t_from, t_to)
        slow = dense_reference.evolve_array(rho, [seg], noise, cfg, t_from, t_to)
        idle = evolve_array(rho, [], noise, cfg, t_from, t_to)
        assert np.max(np.abs(out - slow)) < 1e-12
        acts = t_from < 3.0 and t_to > 2.0
        assert (np.max(np.abs(out - idle)) > 1e-3) == acts


def test_evolve_noiseless_preserves_purity():
    rng = np.random.default_rng(13)
    plus = np.array([1, 1j], dtype=complex) / np.sqrt(2)
    psi = np.kron(plus, np.array([1, 0], dtype=complex))
    rho = np.outer(psi, psi.conj())
    segs = [GateSegment(gate_generator("XX", 0.9, 1.0), (1, 2), 0.0, 1.0),
            GateSegment(gate_generator("RZ", 0.4, 1.0), (1,), 1.0, 1.0)]
    out = evolve_array(rho, segs, NoiseModel(0.0),
                       EvolutionConfig(0.01), 0.0, 2.0)
    assert np.real(np.trace(out @ out)) == pytest.approx(1, abs=1e-10)


def test_evolve_empty_schedule_diagonal_fixed_point():
    diag = np.diag([0.5, 0.3, 0.1, 0.1]).astype(complex)
    out = evolve_array(diag, [], NoiseModel(0.06),
                       EvolutionConfig(0.01), 0.0, 1.0)
    assert np.max(np.abs(out - diag)) < 1e-14


def test_evolve_rejects_off_grid_times():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        evolve_array(rho, [], NoiseModel(0.06), EvolutionConfig(0.01),
                     0.0, 0.005)
    with pytest.raises(ValueError):
        evolve_array(rho, [], NoiseModel(0.06), EvolutionConfig(0.01),
                     1.0, 0.5)


def test_evolve_reads_the_qubit_count_from_the_state():
    """n comes from the trailing 2^n x 2^n axes of a state or a batch of any
    shape; any other shape, or a site outside the n qubits, is a ValueError."""
    rng = np.random.default_rng(15)
    batch = np.stack([random_density(rng, 3) for _ in range(4)]).reshape(2, 2, 8, 8)
    segs = [GateSegment(gate_generator("XX", 0.9, 1.0), (1, 3), 0.0, 1.0)]
    noise, cfg = NoiseModel(0.06), EvolutionConfig(0.25)
    out = evolve_array(batch, segs, noise, cfg, 0.0, 1.0)
    slow = dense_reference.evolve_array(batch, segs, noise, cfg, 0.0, 1.0)
    assert out.shape == batch.shape
    assert np.max(np.abs(out - slow)) < 1e-12
    for shape in ((3, 3), (2, 4), (8,), (2, 6, 6), ()):
        with pytest.raises(ValueError, match=r"2\^n x 2\^n"):
            evolve_array(np.zeros(shape), [], noise, cfg, 0.0, 1.0)
    with pytest.raises(ValueError, match="qubit site 3 out of range 1..2"):
        evolve_array(batch[0, 0, :4, :4], segs, noise, cfg, 0.0, 1.0)


def test_evolve_cptp_per_step():
    rng = np.random.default_rng(14)
    rho = random_density(rng, 2)
    segs = [GateSegment(gate_generator("XX", 0.8, 1.0), (1, 2), 0.0, 1.0)]
    noise = NoiseModel(0.06)
    cfg = EvolutionConfig(0.01)
    out = evolve_array(rho, segs, noise, cfg, 0.0, 1.0)
    assert abs(np.trace(out) - 1) < 1e-12
    check_density_matrix(out)


@settings(max_examples=15, deadline=None)
@given(st.floats(0, 0.1), st.integers(0, 10 ** 9))
def test_dissipative_step_is_cptp(gamma, seed):
    rho = random_density(np.random.default_rng(seed), 2)
    out = dissipative_step(rho, NoiseModel(gamma), 0.01)
    assert abs(np.trace(out) - 1) < 1e-12
    check_density_matrix(out)


def random_layout(rng, n, dt):
    """Gate segments in layers of random length; each layer splits the qubits
    into idle ones and 1- and 2-qubit gates (sites in random order) that may
    stop halfway through the layer, leaving their qubits idle after."""
    segments, t = [], 0.0
    for _ in range(rng.integers(1, 4)):
        length = dt * rng.integers(1, 5) * 2
        order = list(rng.permutation(np.arange(1, n + 1)))
        while order:
            k = min(len(order), int(rng.integers(0, 3)))
            if k == 0:
                order.pop()
                continue
            sites, order = tuple(int(q) for q in order[:k]), order[k:]
            a = rng.normal(size=(2 ** k,) * 2) + 1j * rng.normal(size=(2 ** k,) * 2)
            dur = length if rng.random() < 0.5 else length / 2
            segments.append(GateSegment(a + a.conj().T, sites, t, dur))
        t += length
    return segments, t


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1),
       st.one_of(st.just(0.0), st.floats(0.001, 0.5)),
       st.sampled_from(["kraus", "lindblad"]), st.sampled_from([0.05, 0.1]))
def test_evolve_array_matches_dense_reference(n, seed, gamma, convention, dt):
    rng = np.random.default_rng(seed)
    segments, t_end = random_layout(rng, n, dt)
    t_mid = dt * rng.integers(1, round(t_end / dt))
    noise = NoiseModel(gamma, convention)
    cfg = EvolutionConfig(dt)
    batch = np.stack([random_density(rng, n) for _ in range(2)])
    for t_from, t_to in ((0.0, t_end), (0.0, t_mid), (t_mid, t_end)):
        fast = evolve_array(batch, segments, noise, cfg, t_from, t_to)
        slow = dense_reference.evolve_array(batch, segments, noise, cfg,
                                            t_from, t_to)
        assert fast.shape == batch.shape
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_windows_split_before_a_component_outgrows_the_bound(monkeypatch):
    """A 6-qubit chain XX(1,2), XX(2,3), XX(3,4), XX(4,5) in consecutive
    slots, with an RZ on qubit 6 that ends mid-window: the first window
    composes {1,2,3} and {6} with qubits 4 and 5 idle, the second {3,4,5}
    with 1, 2 and 6 idle. No composed map is larger than 64 x 64, and the
    result is the dense stepper's. Only the passes over the 6-qubit register
    are counted, not the component-size ones that compose the maps."""
    n, dt = 6, 0.25
    segments = [GateSegment(gate_generator("XX", 0.5 + 0.2 * q, 1.0), (q, q + 1),
                            q - 1.0, 1.0) for q in range(1, 5)]
    segments.append(GateSegment(gate_generator("RZ", 1.3, 1.5), (6,), 0.0, 1.5))
    batch = np.stack([random_density(np.random.default_rng(s), n) for s in (5, 6)])
    maps, idle = [], []
    apply_local, dephase_idle = evolution._apply_local, evolution._dephase_idle

    def counted_apply(state, superop, sites, k):
        if k == n:
            maps.append(len(superop))
        return apply_local(state, superop, sites, k)

    def counted_dephase(state, sites, factor, k):
        if k == n:
            idle.append(tuple(sites))
        return dephase_idle(state, sites, factor, k)

    monkeypatch.setattr(evolution, "_apply_local", counted_apply)
    monkeypatch.setattr(evolution, "_dephase_idle", counted_dephase)
    cfg = EvolutionConfig(dt)
    for gamma in (0.0, 0.3):
        for convention in ("kraus", "lindblad"):
            maps.clear()
            idle.clear()
            noise = NoiseModel(gamma, convention)
            fast = evolve_array(batch, segments, noise, cfg, 0.0, 4.0)
            slow = dense_reference.evolve_array(batch, segments, noise, cfg,
                                                0.0, 4.0)
            assert np.max(np.abs(fast - slow)) < 1e-12
            assert sorted(maps) == [4, 64, 64]
            assert idle == ([(4, 5), (1, 2, 6)] if gamma else [])
