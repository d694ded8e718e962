import math
from collections import Counter
from importlib import resources

import numpy as np
import pytest

from teleportsim import evolution, gates, metrics, protocol, sweep
from teleportsim.evolution import EvolutionConfig
from teleportsim.metrics import (average_over_inputs, cut_negativities,
                                 fidelity, log_negativity, purity,
                                 run_protocol, total_negativity)
from teleportsim.protocol import (EncodingKind, MEASUREMENT_PAIRS,
                                  PAULI_EIGENSTATES, pair_block,
                                  project_pair)
from teleportsim.tensor_core import (NonHermitianError, partial_trace,
                                     partial_transpose)

import oracle
from conftest import with_schedule
from dense_reference import embed

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
BELL_RHO = np.outer(BELL, BELL.conj())
CFG = EvolutionConfig(0.01)


def test_fidelity_endpoints():
    phi = PAULI_EIGENSTATES[0]  # X+
    perp = PAULI_EIGENSTATES[1]  # X-
    v, w = phi.vector, perp.vector
    assert fidelity(np.outer(v, v.conj()), phi) == pytest.approx(1)
    assert fidelity(np.outer(w, w.conj()), phi) == pytest.approx(0)
    assert fidelity(np.eye(2) / 2, phi) == pytest.approx(0.5)


def test_fidelity_rejects_multiqubit():
    with pytest.raises(ValueError):
        fidelity(np.eye(4) / 4, PAULI_EIGENSTATES[0])


def test_purity_endpoints():
    assert purity(BELL_RHO) == pytest.approx(1)
    assert purity(np.eye(128) / 128) == pytest.approx(1 / 128)


def test_log_negativity_bell_pair_is_one():
    assert log_negativity(BELL_RHO, [(2,)])[0] == pytest.approx(1, abs=1e-12)
    # natural-log convention scales by ln 2
    assert log_negativity(BELL_RHO, [(2,)], log_base=np.e)[0] == pytest.approx(np.log(2))


def test_log_negativity_zero_for_separable_mixtures():
    rng = np.random.default_rng(21)
    for _ in range(5):
        rho = np.zeros((4, 4), dtype=complex)
        w = rng.dirichlet(np.ones(3))
        for p in w:
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            b = rng.normal(size=2) + 1j * rng.normal(size=2)
            a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
            v = np.kron(a, b)
            rho += p * np.outer(v, v.conj())
        val = log_negativity(rho, [(2,)])[0]
        assert val == pytest.approx(0, abs=1e-10)


@pytest.mark.parametrize("entries", [[(0, 0)], [(0, 1), (1, 0)]])
def test_a_nan_state_has_no_negativity(entries):
    """A NaN entry, on the diagonal or mirrored off it, fails the solver's
    Hermiticity check; the 1e-12 cutoff used to drop the NaN eigenvalues
    and read 0.0."""
    rho = np.eye(4, dtype=complex) / 4
    for e in entries:
        rho[e] = np.nan
    with pytest.raises(NonHermitianError, match="max deviation nan"):
        log_negativity(rho, [(2,)])[0]


@pytest.mark.parametrize("log_base", [math.nan, math.inf, 1.0, 0.0, -2.0])
def test_a_bad_log_base_is_an_error(log_base):
    """A base that is not positive, finite and other than 1 is rejected where
    it is read; it used to give NaN or 0.0 negativities, or a
    ZeroDivisionError or a math domain error."""
    match = f"log_base must be positive, finite and not 1, got {log_base}"
    with pytest.raises(ValueError, match=match):
        log_negativity(BELL_RHO, [(2,)], log_base)


def test_a_bad_log_base_fails_a_point():
    with pytest.raises(ValueError, match="log_base must be .* got nan"):
        average_over_inputs(EncodingKind.SWAP, 0.5, 0.03, EvolutionConfig(0.25),
                            log_base=math.nan)


def test_total_negativity_product_state_is_zero():
    v = np.zeros(128, dtype=complex)
    v[0] = 1
    assert total_negativity(np.outer(v, v.conj())) == pytest.approx(0)


def test_total_negativity_of_three_bell_pairs_checkpoint():
    """At t1 the pairs (2,5), (3,4), (6,7) are Bell pairs; the cut sum
    counts pairs crossing each contiguous cut: 0+1+2+1+0+1 = 5."""
    ref = oracle.run("swap", 0.0, np.array([1, 0], dtype=complex))
    psi = ref["t1"]
    rho = np.outer(psi, psi.conj())
    assert total_negativity(rho) == pytest.approx(5, abs=1e-10)
    # cross-check against the pure-state Schmidt formula per cut
    assert total_negativity(rho) == pytest.approx(
        oracle.pure_total_negativity(psi), abs=1e-10)


def test_delta_E_values_at_alpha_extremes(record):
    for kind in EncodingKind:
        rec0 = record(kind, 0.0, 0.0)
        assert rec0.delta_E_U == pytest.approx(0, abs=2e-2)
        assert rec0.delta_E_M == pytest.approx(-1, abs=2e-2)
        rec1 = record(kind, 1.0, 0.0)
        assert rec1.delta_E_U == pytest.approx(6, abs=2e-2)


def test_delta_E_trajectory_api():
    """Delta E_U of the X+ input alone, from its t1 and t2 states."""
    rho1, rho2, _ = run_protocol(EncodingKind.SWAP, 1.0, 0.0, CFG)
    delta_u = total_negativity(rho2[0]) - total_negativity(rho1[0])
    assert delta_u == pytest.approx(6, abs=2e-2)


def test_pairwise_total_negativity_differs_from_cut_sum():
    ref = oracle.run("swap", 0.0, np.array([1, 0], dtype=complex))
    rho = np.outer(ref["t1"], ref["t1"].conj())
    # neighbor-pair reduced states: only (3,4) and (6,7) are entangled pairs
    pairwise = sum(log_negativity(partial_trace(rho, (k, k + 1)), [(2,)])[0]
                   for k in range(1, 7))
    assert pairwise == pytest.approx(2, abs=1e-10)
    assert total_negativity(rho) == pytest.approx(5, abs=1e-10)


def test_average_over_inputs_basic_points(record):
    rec = record(EncodingKind.SCRAMBLING, 1.0, 0.0)
    assert rec.fidelity_avg == pytest.approx(1, abs=1e-3)
    assert rec.purity_avg == pytest.approx(1, abs=1e-6)
    assert rec.failed_inputs == []
    rec = record(EncodingKind.SCRAMBLING, 0.0, 0.03)
    assert rec.fidelity_avg == pytest.approx(0.5, abs=1e-3)
    rec = record(EncodingKind.SWAP, 1.0, 0.0)
    assert rec.neg_cut34 == pytest.approx(2, abs=2e-2)


def test_average_purity_of_mean_is_secondary_column(record):
    # the six pure outputs at alpha=1, gamma=0 are distinct, so the purity
    # of their mean is strictly below the mean of their purities
    rec = record(EncodingKind.SWAP, 1.0, 0.0)
    assert rec.purity_of_mean < rec.purity_avg - 0.1


def test_strong_dephasing_spends_more_entanglement_than_scrambling_makes(record):
    """The abstract's entanglement budget at alpha = 1 and dt = 0.01: the
    net ΔE_U + ΔE_M turns negative at gamma_b = 0.02008 for scrambling and
    0.02717 for SWAP, so scrambling crosses first, and scrambling's ΔE_U
    itself turns negative at 0.04332 (README). The gammas sit at least
    0.005 from each crossover; the dt study moved them by 2e-5 at most."""
    def budget(kind, gamma):
        rec = record(kind, 1.0, gamma)
        return rec.delta_E_U + rec.delta_E_M

    assert budget(EncodingKind.SCRAMBLING, 0.015) > 0  # +0.722
    assert budget(EncodingKind.SCRAMBLING, 0.025) < 0  # -0.653
    assert budget(EncodingKind.SWAP, 0.025) > 0  # +0.206
    assert budget(EncodingKind.SWAP, 0.03) < 0  # -0.261
    assert record(EncodingKind.SCRAMBLING, 1.0, 0.05).delta_E_U < 0  # -0.703


def test_fidelity_monotone_in_alpha_noiseless(record):
    for kind in EncodingKind:
        vals = [record(kind, a, 0.0).fidelity_avg
                for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for lo, hi in zip(vals, vals[1:]):
            assert hi >= lo - 1e-4


def test_each_pauli_pair_teleports_perfectly_noiseless():
    rho3 = run_protocol(EncodingKind.SCRAMBLING, 1.0, 0.0, CFG)[2]
    for phi, rho in zip(PAULI_EIGENSTATES, rho3):
        sigma, _ = project_pair(pair_block(rho, (3, 4)), (3, 4))
        # qubit 7 is the last of the heralded qubits 1, 2, 5, 6, 7
        rho7 = partial_trace(sigma, (5,))
        assert fidelity(rho7, phi) == pytest.approx(1, abs=1e-3)


def assert_cuts_match(rho, sigma, sites, log_base):
    """cut_negativities on sigma equals the cuts of the 7-qubit rho."""
    full = [log_negativity(rho, [tuple(range(k + 1, 8))], log_base)[0]
            for k in range(1, 7)]
    fast = cut_negativities(sigma, sites, 7, log_base)
    assert max(full) > 0.1
    assert np.max(np.abs(np.subtract(fast, full))) < 1e-12


def random_state(rng, dim, rank):
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = a @ a.conj().T
    return m / np.trace(m)


@pytest.mark.parametrize("pair", MEASUREMENT_PAIRS)
@pytest.mark.parametrize("rank", [1, 3])
def test_projected_cut_negativities_match_full_cuts(pair, rank):
    rng = np.random.default_rng(rank * 10 + pair[0])
    kept = tuple(q for q in range(1, 8) if q not in pair)
    for log_base in (2, np.e):
        # the t3 shape: |00><00| on the measured pair times a 5-qubit state
        sigma, _ = project_pair(
            pair_block(random_state(rng, 128, rank), pair), pair)
        post = embed(np.kron(np.diag([1, 0, 0, 0]), sigma), (*pair, *kept), 7)
        assert_cuts_match(post, sigma, kept, log_base)
        # the t1 shape: a mixed qubit 1 times a 6-qubit state
        rest = random_state(rng, 64, rank)
        rho = np.kron(random_state(rng, 2, 2), rest)
        assert_cuts_match(rho, rest, range(2, 8), log_base)


@pytest.mark.parametrize("kind", list(EncodingKind))
@pytest.mark.parametrize("rate_convention", ["kraus", "lindblad"])
def test_t1_negativity_once_per_point_is_the_input_mean(kind, rate_convention):
    """neg_total_t1, taken from one input's qubits 2..7, equals the mean of
    total_negativity over the six 128 x 128 t1 states."""
    cfg = EvolutionConfig(0.25)
    for gamma in (0.0, 0.03, 0.5):
        rho1 = run_protocol(kind, 0.6, gamma, cfg, rate_convention)[0]
        for log_base in (2, np.e):
            rec = average_over_inputs(kind, 0.6, gamma, cfg, rate_convention,
                                      log_base)
            mean = np.mean([total_negativity(r, log_base) for r in rho1])
            assert abs(rec.neg_total_t1 - mean) < 1e-12


@pytest.mark.parametrize("rate_convention", ["kraus", "lindblad"])
def test_the_t1_stage_depends_on_gamma_alone(rate_convention):
    """Both packaged schedules have the same gates before t1, so the packed
    t1 operator is bit for bit one array over both protocols, alpha and the
    measurement pair, and neg_total_t1 is one value."""
    cfg = EvolutionConfig(0.25)
    for gamma in (0.03, 0.5):
        packed1 = [metrics._evolve_channel(protocol.build_schedule(kind, alpha, pair),
                                           gamma, cfg, rate_convention)[0]
                   for kind in EncodingKind for alpha in (0.0, 0.6, 1.0)
                   for pair in MEASUREMENT_PAIRS]
        assert all(np.array_equal(p, packed1[0]) for p in packed1[1:])
        n1 = {average_over_inputs(kind, alpha, gamma, cfg, rate_convention).neg_total_t1
              for kind in EncodingKind for alpha in (0.0, 0.6, 1.0)}
        assert len(n1) == 1


@pytest.mark.parametrize("kind", list(EncodingKind))
def test_average_over_inputs_reduces_run_protocol(kind):
    """The averages come from run_protocol's batches: the success
    probability bit for bit; t1, which average_over_inputs takes from one
    6-qubit factor, and t2, which it takes from X+, Y+ (for SWAP, X+ again),
    Z+ and Z- rather than from all six inputs, to rounding."""
    cfg = EvolutionConfig(0.04)
    for pair in MEASUREMENT_PAIRS:
        for gamma in (0.0, 0.03, 0.5):
            rec = average_over_inputs(kind, 0.6, gamma, cfg, measurement_pair=pair)
            rho1, rho2, rho3 = run_protocol(kind, 0.6, gamma, cfg,
                                            measurement_pair=pair)
            assert rec.failed_inputs == []
            mean1, mean2 = (
                float(np.mean([total_negativity(r) for r in b]))
                for b in (rho1, rho2))
            assert abs(rec.neg_total_t1 - mean1) <= 1e-13
            assert abs(rec.neg_total_t2 - mean2) <= 1e-13
            assert rec.success_prob_avg == float(
                np.mean([project_pair(pair_block(r, pair), pair)[1]
                         for r in rho3]))


@pytest.mark.parametrize("kind", list(EncodingKind))
@pytest.mark.parametrize("rate_convention", ["kraus", "lindblad"])
def test_packed_encode_matches_separate_evolution(kind, rate_convention):
    """The channel evolves A + B + C from 0 to t2 as one operator and cuts
    the images back out of its even-even, odd-odd and even-odd parity
    blocks: at t2 bit for bit the t1 images of A, B and C evolved apart, and
    each exactly zero outside its block. At t1, qubit 1 being idle, B's
    quadrant is A's, the odd-even quadrant is zero, and C's quadrant is A's
    times qubit 1's coherence factor decay ** steps, bit for bit, which is
    e^{-r t1} to the rounding of the step count's powers."""
    odd = np.array([bin(k).count("1") % 2 for k in range(128)], dtype=bool)
    blocks = [(~odd[:, None]) & ~odd, odd[:, None] & odd, (~odd[:, None]) & odd]
    for alpha in (0.0, 0.6, 1.0):
        sched = protocol.build_schedule(kind, alpha)
        for gamma, dt in ((0.0, 0.25), (0.03, 0.25), (0.5, 0.25), (0.5, 0.04),
                          (0.0, 0.01)):
            cfg = EvolutionConfig(dt)
            packed1, ops2, _ = metrics._evolve_channel(sched, gamma, cfg,
                                                       rate_convention)
            noise = evolution.NoiseModel(gamma, rate_convention)
            apart = evolution.evolve_array(metrics._parity_cut(packed1),
                                           sched.segments, noise, cfg,
                                           sched.t1, sched.t2)
            assert np.array_equal(ops2, apart)
            for image, block in zip(ops2, blocks):
                assert not image[~block].any()
            a, c = packed1[:64, :64], packed1[:64, 64:]
            assert np.array_equal(packed1[64:, 64:], a)
            assert not packed1[64:, :64].any()
            steps = cfg.steps_between(0, sched.t1)
            factor = np.exp(-noise.coherence_rate * dt) ** steps
            assert np.array_equal(c, factor * a)
            # the step factor's rounding, half an ulp, is raised to the
            # power steps; pow and exp add an ulp each
            exact = math.exp(-noise.coherence_rate * sched.t1)
            assert abs(factor - exact) <= (steps + 2) * np.finfo(float).eps * exact


@pytest.mark.parametrize("kind", list(EncodingKind))
@pytest.mark.parametrize("rate_convention", ["kraus", "lindblad"])
def test_t2_states_obey_the_parity_relations(kind, rate_convention):
    """Up to t2 the protocol commutes with the parity P = Z^(x)7, so
    rho2(X-) = P rho2(X+) P, rho2(Y-) = P rho2(Y+) P, and rho2(Z+-) have
    no parity off-diagonal blocks; their cuts, which the solver takes as two
    32 x 32 quarters and one 32 x 32 SVD each, equal full 128 x 128 solves."""
    idx = np.arange(128)
    odd = np.zeros(128, dtype=bool)
    for q in range(7):
        odd ^= (idx >> q) & 1 == 1
    p = np.where(odd, -1.0, 1.0)
    mixed = odd[:, None] != odd[None, :]
    cfg = EvolutionConfig(0.25)
    for alpha, gamma in ((0.6, 0.0), (0.6, 0.03), (1.0, 0.06), (0.3, 0.5)):
        for pair in MEASUREMENT_PAIRS:
            rho2 = run_protocol(kind, alpha, gamma, cfg, rate_convention, pair)[1]
            for plus, minus in ((0, 1), (2, 3)):
                flipped = p[:, None] * rho2[plus] * p[None, :]
                assert np.max(np.abs(rho2[minus] - flipped)) <= 1e-14
            for z in rho2[4:]:
                assert np.max(np.abs(z[mixed])) <= 1e-14
                for k in range(1, 7):
                    b = tuple(range(k + 1, 8))
                    ev = np.linalg.eigvalsh(partial_transpose(z, b))
                    ev = ev[np.abs(ev) >= metrics.NEGATIVITY_EIGENVALUE_CUTOFF]
                    for log_base in (2, np.e):
                        full = math.log(1 + np.sum(np.abs(ev) - ev), log_base)
                        assert abs(log_negativity(z, [b], log_base)[0] - full) <= 1e-12


@pytest.mark.parametrize("kind", list(EncodingKind))
def test_work_per_point(kind, monkeypatch):
    """One point makes three evolve_array calls (the three channel operators
    packed into one to t1 and on to t2, then the three apart to t3) and
    one solver call per state for all its cuts: at 128 x 128 X+, Y+, Z+ and
    Z- at t2, 6 cuts each, where SWAP's Y+ takes X+'s cuts by its phase
    symmetry; 1 at 64 x 64 (the t1 state of qubits 2..7, 5 cuts) and 6 at
    32 x 32 (the heralded 5-qubit states, 4 cuts each). X+ and Y+ mix the
    parity blocks and take one full solve per cut; Z+, Z- and the t1 state
    each lie in one parity block, so each cut is solved as two diagonal
    quarters in one call plus one SVD of a quarter. LAPACK solves 12 (SWAP
    6) matrices at 128 x 128, 24 + 24 at 32 x 32 and 10 at 16 x 16, and
    takes 17 SVDs: 12 at 32 x 32 and 5 at 16 x 16. Round-off between the
    parity blocks would show as more full solves."""
    solves, lapack, svds, evolved = Counter(), Counter(), Counter(), []
    solve, eigvalsh = metrics.hermitian_eigenvalues, np.linalg.eigvalsh
    svd, evolve = np.linalg.svd, metrics.evolve_array

    def counted_solve(m, *args, **kwargs):
        solves[len(m)] += 1
        return solve(m, *args, **kwargs)

    def counted_eigvalsh(m, *args, **kwargs):
        # a stack of matrices is one solve each
        lapack[m.shape[-1]] += m.size // m.shape[-1] ** 2
        return eigvalsh(m, *args, **kwargs)

    def counted_svd(m, *args, **kwargs):
        svds[m.shape[-1]] += m.size // m.shape[-1] ** 2
        return svd(m, *args, **kwargs)

    def counted_evolve(rho, *args, **kwargs):
        evolved.append(rho.shape)
        return evolve(rho, *args, **kwargs)

    monkeypatch.setattr(metrics, "hermitian_eigenvalues", counted_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(metrics, "evolve_array", counted_evolve)
    average_over_inputs(kind, 0.6, 0.03, EvolutionConfig(0.25))
    t2_states = 3 if kind is EncodingKind.SWAP else 4
    assert solves == {128: t2_states, 64: 1, 32: 6}
    assert lapack == {128: 6 * (t2_states - 2), 32: 48, 16: 10}
    assert svds == {32: 12, 16: 5}
    assert evolved == [(1, 128, 128), (1, 128, 128), (3, 128, 128)]


# V_k of SWAP's encoder: S on qubits 1..3 and 7, S^dag on 4..6
SWAP_PHASES = (1, 1, 1, 3, 3, 3, 1)


def phase_diagonal(k):
    """The diagonal of (x)_q diag(1, i^k_q), qubit 1 most significant."""
    v = np.ones(1)
    for kq in k:
        v = np.kron(v, [1, [1, 1j, -1, -1j][kq]])
    return v


def test_phase_symmetries_of_the_packaged_schedules():
    """SWAP's PSWAPs between t1 and t2 conserve the excitation number on
    their sites, so V_k commutes with them iff k_1 = k_2 = k_3 and
    k_4 = k_5 = k_6: 16 patterns with k_1 = 1. Scrambling's XX gates on
    qubit 1 need k_1 even, so it has none. The Bell pairs' XX gates end at
    t1 and are not part of the test: they commute with no such V."""
    swap = protocol.build_schedule(EncodingKind.SWAP, 0.6).phases
    assert [tuple(k) for k in swap] == sorted(
        (1, 1, 1, c, c, c, d) for c in range(4) for d in range(4))
    assert not swap.flags.writeable
    assert protocol.build_schedule(EncodingKind.SCRAMBLING, 0.6).phases.shape == (0, 7)
    xx = gates.gate_generator("XX", 1.0, 1.0)
    assert len(protocol.commuting_phases(swap, xx, (2, 5))) == 0


@pytest.mark.parametrize("rate_convention", ["kraus", "lindblad"])
def test_swap_t2_images_obey_the_phase_symmetry(rate_convention):
    """V = V_k for k = SWAP_PHASES is the one SWAP pattern that fixes the
    t1 state of qubits 2..7, and then V A V^dag = A, V B V^dag = B and
    V C V^dag = -i C at t2, bit for bit (products with powers of i are
    exact), so V rho2(X+) V^dag = rho2(Y+) and the two have the same cuts."""
    v = phase_diagonal(SWAP_PHASES)
    for alpha, gamma, dt in ((0.6, 0.03, 0.25), (0.13, 0.5, 0.04), (1.0, 0.0, 0.01),
                             (0.0, 0.06, 0.25), (0.37, 0.03, 0.04)):
        sched = protocol.build_schedule(EncodingKind.SWAP, alpha)
        packed1, ops2, _ = metrics._evolve_channel(
            sched, gamma, EvolutionConfig(dt), rate_convention)
        sigma1 = packed1[:64, :64]
        fixed = protocol.commuting_phases(sched.phases, sigma1, range(2, 8))
        assert [tuple(k) for k in fixed] == [SWAP_PHASES]
        assert np.array_equal(v[:64, None] * sigma1 * v[:64].conj(), sigma1)
        images = v[:, None] * ops2 * v.conj()
        assert np.array_equal(images[:2], ops2[:2])
        assert np.array_equal(images[2], -1j * ops2[2])
        x, y = metrics._input_states(ops2, (PAULI_EIGENSTATES[0], PAULI_EIGENSTATES[2]))
        assert np.array_equal(v[:, None] * x * v.conj(), y)
        assert abs(total_negativity(x) - total_negativity(y)) <= 1e-13


def test_a_wrong_phase_pattern_fails_the_t1_check():
    """k = (1, 1, 1, 0, 0, 0, 0) commutes with SWAP's encoder but takes the
    Bell pairs' |11> to i |11>, so it does not fix the t1 state."""
    wrong = (1, 1, 1, 0, 0, 0, 0)
    v = phase_diagonal(wrong)[:64]
    sigma1 = metrics._evolve_channel(protocol.build_schedule(EncodingKind.SWAP, 0.6),
                                     0.03, EvolutionConfig(0.25), "kraus")[0][:64, :64]
    assert len(protocol.commuting_phases(np.array([wrong]), sigma1, range(2, 8))) == 0
    assert not np.array_equal(v[:, None] * sigma1 * v.conj(), sigma1)


def test_y_plus_is_solved_without_a_phase_symmetry(monkeypatch):
    """SWAP with an XX on qubit 1 between t1 and t2, which needs k_1 even,
    has no phase pattern, so Y+ takes its own 128 x 128 solve, as in
    scrambling (test_work_per_point), and neg_total_t2 is the mean over all
    six inputs' t2 states."""
    text = (resources.files(gates.__package__) / "schedules" / "swap.sched").read_text()
    with_schedule(monkeypatch, gates.parse_schedule_text(
        text + "GATE XX SITES 1,7 START 6 DUR 1 PARAM pi/2\n"))
    assert len(protocol.build_schedule(EncodingKind.SWAP, 0.6).phases) == 0
    sizes, solve = [], metrics.hermitian_eigenvalues
    monkeypatch.setattr(metrics, "hermitian_eigenvalues",
                        lambda m, cuts: sizes.append(len(m)) or solve(m, cuts))
    cfg = EvolutionConfig(0.25)
    rec = average_over_inputs(EncodingKind.SWAP, 0.6, 0.03, cfg)
    assert sizes.count(128) == 4
    rho2 = run_protocol(EncodingKind.SWAP, 0.6, 0.03, cfg)[1]
    assert abs(rec.neg_total_t2 - np.mean([total_negativity(r) for r in rho2])) <= 1e-13


def test_a_point_reads_its_schedule_once(monkeypatch):
    """A point reads its schedule once, in build_schedule, and evolves the
    schedule it was built: the phase patterns it tests come from the parsed
    schedule gates.load_schedule returned, an injected one included."""
    reads, load = [], gates.load_schedule
    monkeypatch.setattr(gates, "load_schedule",
                        lambda kind: reads.append(kind) or load(kind))
    for run in (average_over_inputs, run_protocol):
        reads.clear()
        run(EncodingKind.SWAP, 0.6, 0.03, EvolutionConfig(0.25))
        assert reads == ["swap"]
    text = (resources.files(gates.__package__) / "schedules" / "swap.sched").read_text()
    parsed = gates.parse_schedule_text(
        text + "GATE XX SITES 1,7 START 6 DUR 1 PARAM pi/2\n")
    with_schedule(monkeypatch, parsed)
    phases = protocol.build_schedule(EncodingKind.SWAP, 0.6).phases
    assert phases is protocol._check_schedule(parsed)
    assert phases.shape == (0, 7)


@pytest.mark.parametrize("kind", list(EncodingKind))
def test_evolution_passes_per_point(kind, monkeypatch):
    """Each evolve_array call passes over the full state once per qubit
    component of each window and once to dephase the qubits in none: to t1
    one 16 x 16 map per Bell pair, with qubit 1 idle; to t2 one 64 x 64 map
    for the encoder on
    qubits 1..3 and one for the decoder on 4..6, with qubit 7 idle; to t3
    one map for the measured pair, with the other five qubits idle. The
    component-size passes that compose those maps are not counted."""
    calls = []
    evolve = metrics.evolve_array
    apply_local, dephase_idle = evolution._apply_local, evolution._dephase_idle

    def counted_evolve(rho, *args, **kwargs):
        calls.append(([], []))
        return evolve(rho, *args, **kwargs)

    # the evolved register, of 7 qubits, is wider than any component
    def counted_apply(state, superop, sites, n):
        if n > evolution.MAX_COMPONENT_QUBITS:
            calls[-1][0].append(len(superop))
        return apply_local(state, superop, sites, n)

    def counted_dephase(state, sites, factor, n):
        if n > evolution.MAX_COMPONENT_QUBITS:
            calls[-1][1].append(len(sites))
        return dephase_idle(state, sites, factor, n)

    monkeypatch.setattr(metrics, "evolve_array", counted_evolve)
    monkeypatch.setattr(evolution, "_apply_local", counted_apply)
    monkeypatch.setattr(evolution, "_dephase_idle", counted_dephase)
    average_over_inputs(kind, 0.6, 0.03, EvolutionConfig(0.25))
    assert [(sorted(maps), idle) for maps, idle in calls] == [
        ([16, 16, 16], [1]), ([64, 64], [1]), ([16], [5])]


@pytest.mark.parametrize("gate, allowed, rejected, match, param, alpha", [
    ("HAD SITES 3", 10, 4, "does not commute with the parity", "1", 0.5),
    ("CNOT SITES 3,4", 10, 8, "does not commute with the parity", "1", 0.5),
    ("RZ SITES 1", 2, 0, "acts on qubit 1", "1", 0.5),
    # judged by the gate's kind, not its angle: at alpha = 0 this CNOT is
    # the identity, and it is still rejected before t2
    ("CNOT SITES 3,4", 10, 8, "does not commute with the parity", "alpha", 0.0),
], ids=["HAD SITES 3-10-4-does not commute with the parity",
        "CNOT SITES 3,4-10-8-does not commute with the parity",
        "RZ SITES 1-2-0-acts on qubit 1",
        "CNOT SITES 3,4 PARAM alpha at alpha 0"])
def test_channel_structure_guard(monkeypatch, gate, allowed, rejected, match,
                                 param, alpha):
    """A gate that breaks the parity before t2, or one on qubit 1 before t1,
    is an error, not a silently wrong average; the same gate later runs."""
    cfg = EvolutionConfig(0.25)
    with_schedule(monkeypatch, f"GATE {gate} START {allowed} DUR 1 PARAM {param}\n")
    average_over_inputs(EncodingKind.SWAP, alpha, 0.03, cfg)
    with_schedule(monkeypatch, f"GATE {gate} START {rejected} DUR 1 PARAM {param}\n")
    for run in (run_protocol, average_over_inputs):
        with pytest.raises(ValueError, match=match):
            run(EncodingKind.SWAP, alpha, 0.03, cfg)


def test_an_overlap_made_by_retargeting_is_an_error(monkeypatch):
    """build_schedule judges the gate lines as written, where the CNOT on
    (3, 4) and the RZ on 6 are disjoint; retargeted to the pair (1, 6) they
    share qubit 6, which the evolution rejects."""
    cfg = EvolutionConfig(0.25)
    with_schedule(monkeypatch, "GATE CNOT SITES 3,4 START 10 DUR 1 PARAM 1\n"
                  "GATE RZ SITES 6 START 10 DUR 1 PARAM 1\n")
    average_over_inputs(EncodingKind.SWAP, 0.5, 0.03, cfg)
    with pytest.raises(ValueError, match=r"qubit site\(s\) \[6\] repeat"):
        average_over_inputs(EncodingKind.SWAP, 0.5, 0.03, cfg,
                            measurement_pair=(1, 6))


def test_site_outside_the_register_is_a_schedule_error(monkeypatch):
    """SITES 1,9 parses, as the parser does not know the register size; the
    schedule build rejects it, naming the gate and the site."""
    with_schedule(monkeypatch, "GATE XX SITES 1,9 START 4 DUR 1 PARAM 1\n")
    for run in (run_protocol, average_over_inputs):
        with pytest.raises(gates.ScheduleError, match=r"XX gate on sites "
                           r"\(1, 9\) names site 9, outside the 7-qubit"):
            run(EncodingKind.SWAP, 0.5, 0.03, EvolutionConfig(0.25))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_gate_is_rejected_when_built(monkeypatch):
    """PARAM 1e308 is finite, but the CNOT generator it scales is not: it
    used to build, and the average then failed in eigh with 'Eigenvalues did
    not converge'."""
    with_schedule(monkeypatch, "GATE CNOT SITES 3,4 START 10 DUR 1 PARAM 1e308\n")
    for run in (run_protocol, average_over_inputs):
        with pytest.raises(ValueError, match=r"generator of the segment on "
                           r"sites \(3, 4\) is not Hermitian \(deviation nan\)"):
            run(EncodingKind.SWAP, 0.5, 0.03, EvolutionConfig(0.25))


def test_nan_start_in_a_schedule_is_an_error(monkeypatch):
    """START nan on the first PSWAP line of swap.sched used to parse, and as
    NaN fails every time comparison the gate never acted: fidelity 0.5 at
    alpha = 1, gamma = 0, where the packaged schedule gives 1."""
    cfg = EvolutionConfig(0.25)
    assert average_over_inputs(EncodingKind.SWAP, 1.0, 0.0, cfg).fidelity_avg == (
        pytest.approx(1.0, abs=1e-12))
    lines = (resources.files(gates.__package__) / "schedules"
             / "swap.sched").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("GATE PSWAP"))
    lines[at] = lines[at].replace("START 2 ", "START nan ")
    monkeypatch.setattr(gates, "load_schedule",
                        lambda kind: gates.parse_schedule_text("\n".join(lines)))
    with pytest.raises(gates.ScheduleError, match=f"line {at + 1}: START must "
                       f"be a finite number, got 'nan'"):
        average_over_inputs(EncodingKind.SWAP, 1.0, 0.0, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nan_in_a_point_state_gives_an_error_row(monkeypatch):
    """A NaN in the evolved state fails the channel's trace check, which
    runs before the heralding and any solver call, and the sweep writes the
    point as a row whose error column names it, commas written as ';'."""
    evolve = metrics.evolve_array

    def with_nan(rho, *args, **kwargs):
        out = evolve(rho, *args, **kwargs)
        out[..., 0, 0] = np.nan
        return out

    monkeypatch.setattr(metrics, "evolve_array", with_nan)
    cfg = sweep.parse_config("dt = 0.25\nprotocols = swap\n")
    row = sweep._compute_row(((EncodingKind.SWAP, 0.5, 0.03), cfg))
    assert row.endswith(",InvariantError:the traces of the images of A; B; C "
                        "at t2 are off (1; 1; 0) by nan")


def test_a_scaled_evolution_gives_an_error_row_naming_the_trace_check(monkeypatch):
    """An engine that lets the trace grow by 1% per call is caught at t2 by
    the trace check of the channel images, whose error names it, before
    any solver call; the sweep writes the point as an error row, and
    run_protocol, which evolves the same channel, raises the same error."""
    evolve = metrics.evolve_array
    monkeypatch.setattr(metrics, "evolve_array",
                        lambda rho, *args: 1.01 * evolve(rho, *args))
    solve = metrics.hermitian_eigenvalues
    solves = []
    monkeypatch.setattr(metrics, "hermitian_eigenvalues",
                        lambda *args: solves.append(1) or solve(*args))
    cfg = sweep.parse_config("dt = 0.25\nprotocols = scrambling\n")
    row = sweep._compute_row(((EncodingKind.SCRAMBLING, 0.5, 0.03), cfg))
    assert row.endswith(",InvariantError:the traces of the images of A; B; C "
                        "at t2 are off (1; 1; 0) by 2.010e-02")
    assert solves == []
    with pytest.raises(protocol.InvariantError,
                       match=r"A, B, C at t2 are off \(1, 1, 0\) by 2.010e-02$"):
        run_protocol(EncodingKind.SCRAMBLING, 0.5, 0.03, EvolutionConfig(0.25))


def test_scrambling_purity_falls_to_a_minimum_then_rises_in_gamma():
    """At alpha = 1 the heralded purity does not approach the 1/32 floor
    asymptotically in gamma: it falls to a minimum near gamma = 0.2 and then
    rises, staying above the floor throughout."""
    cfg = EvolutionConfig(0.04)
    purity = {g: average_over_inputs(EncodingKind.SCRAMBLING, 1.0, g, cfg).purity_avg
              for g in (0.06, 0.2, 1.0, 5.0)}
    for g, want in ((0.06, 0.0565), (0.2, 0.0413), (1.0, 0.0452), (5.0, 0.160)):
        assert purity[g] == pytest.approx(want, abs=5e-4)
    assert purity[0.06] > purity[0.2] < purity[1.0] < purity[5.0]
    assert min(purity.values()) > 1 / 32
