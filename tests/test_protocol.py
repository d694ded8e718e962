import re
from importlib import resources

import numpy as np
import pytest
from scipy.linalg import expm

from teleportsim import gates, protocol
from teleportsim.evolution import EvolutionConfig, NoiseModel
from teleportsim.gates import ParsedSchedule, ScheduleEntry
from teleportsim.metrics import run_protocol
from teleportsim.protocol import (EncodingKind, InputState, MEASUREMENT_PAIRS,
                                  PAULI_EIGENSTATES,
                                  PostselectionImpossibleError, build_schedule,
                                  pair_block, project_pair)
from teleportsim.tensor_core import check_density_matrix, partial_trace

import dense_reference
import oracle
from conftest import with_schedule
from dense_reference import embed, initial_state

CFG = EvolutionConfig(0.01)


def test_input_states_are_pauli_eigenstates():
    assert len(PAULI_EIGENSTATES) == 6
    paulis = {"X": np.array([[0, 1], [1, 0]]),
              "Y": np.array([[0, -1j], [1j, 0]]),
              "Z": np.array([[1, 0], [0, -1]])}
    for phi in PAULI_EIGENSTATES:
        axis, sign = phi.label[0], 1 if phi.label[1] == "+" else -1
        out = paulis[axis] @ phi.vector
        assert np.allclose(out, sign * phi.vector)


def test_input_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        InputState("bad", np.array([1.0, 1.0]))


def test_initial_state_structure():
    rho = initial_state(PAULI_EIGENSTATES[4])  # Z+
    expect = np.zeros((128, 128))
    expect[0, 0] = 1
    assert np.array_equal(rho, expect)
    rho = initial_state(PAULI_EIGENSTATES[0])  # X+
    red = partial_trace(rho, (1,))
    assert np.allclose(red, 0.5 * np.array([[1, 1], [1, 1]]))
    assert np.real(np.trace(rho @ rho)) == pytest.approx(1)


def test_build_schedule_checkpoints_and_windows():
    for kind in EncodingKind:
        sched = build_schedule(kind, 0.6)
        assert (sched.t1, sched.t2, sched.t3) == (2, 10, 12)
        assert all(-1e-9 <= s.start_time and s.end_time <= 12 + 1e-9
                   for s in sched.segments)


def test_build_schedule_swap_has_two_pswaps_per_side():
    sched = build_schedule(EncodingKind.SWAP, 0.3)
    four = [s for s in sched.segments if s.duration == 4]
    assert len(four) == 4
    assert sorted(s.sites for s in four) == [(1, 2), (2, 3), (5, 4), (6, 5)]


def test_build_schedule_alpha_zero_scrambling_is_identity():
    sched = build_schedule(EncodingKind.SCRAMBLING, 0.0)
    u = np.eye(128, dtype=complex)
    for seg in sorted(sched.segments, key=lambda s: s.start_time):
        if 2 - 1e-9 <= seg.start_time < 10 - 1e-9:
            u = embed(expm(-1j * seg.generator * seg.duration), seg.sites, 7) @ u
    phase = u[0, 0]
    assert abs(abs(phase) - 1) < 1e-10
    assert np.max(np.abs(u - phase * np.eye(128))) < 1e-10


def test_build_schedule_rejects_bad_args():
    with pytest.raises(ValueError):
        build_schedule(EncodingKind.SWAP, 1.3)
    with pytest.raises(ValueError):
        build_schedule(EncodingKind.SWAP, 0.5, measurement_pair=(2, 4))


def test_schedule_overlap_detection(monkeypatch):
    a = "GATE RZ SITES 2 START 0 DUR 2 PARAM 0.3\n"
    b = "GATE RZ SITES 2 START 1 DUR 2 PARAM 0.3\n"
    with_schedule(monkeypatch, a + b)
    with pytest.raises(ValueError):
        build_schedule(EncodingKind.SWAP, 0.5)
    # same window, different qubits: fine
    c = "GATE RZ SITES 3 START 0 DUR 2 PARAM 0.3\n"
    with_schedule(monkeypatch, a + c)
    build_schedule(EncodingKind.SWAP, 0.5)


def test_segment_bounds_check_fails_on_nan(monkeypatch):
    """NaN fails every comparison, so the bounds check is written to fail.
    The parser rejects a NaN time, so the entry is built directly."""
    for start, duration in ((float("nan"), 1.0), (0.0, float("nan"))):
        entry = ScheduleEntry("RZ", (2,), start, duration, "0.3")
        with_schedule(monkeypatch, ParsedSchedule((entry,), 1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="lies outside"):
            build_schedule(EncodingKind.SWAP, 0.5)


def test_schedule_is_parsed_and_checked_once_per_kind(monkeypatch):
    """Each packaged schedule is parsed once and each distinct schedule is
    checked once, however many points are built; an injected schedule
    takes effect on the next build, and one that fails its check raises on
    every build."""
    parse, texts = gates.parse_schedule_text, []
    monkeypatch.setattr(gates, "parse_schedule_text",
                        lambda text: texts.append(text) or parse(text))
    gates.load_schedule.cache_clear()
    protocol._check_schedule.cache_clear()
    for kind in EncodingKind:
        for alpha in (0.0, 0.5, 1.0):
            for pair in MEASUREMENT_PAIRS:
                build_schedule(kind, alpha, pair)
    assert len(texts) == 2
    assert protocol._check_schedule.cache_info().misses == 2
    with_schedule(monkeypatch, "GATE RZ SITES 2 START 0 DUR 2 PARAM 0.3\n")
    assert [s.sites for s in build_schedule(EncodingKind.SWAP, 0.5).segments] \
        == [(2,)]
    with_schedule(monkeypatch, "GATE RZ SITES 1 START 0 DUR 2 PARAM 0.3\n")
    for _ in range(3):
        with pytest.raises(ValueError, match="must be idle until t1"):
            build_schedule(EncodingKind.SWAP, 0.5)


def test_measurement_pair_retargets_rotations():
    sched = build_schedule(EncodingKind.SCRAMBLING, 1.0, measurement_pair=(2, 5))
    late = [s for s in sched.segments if s.start_time >= 10]
    assert sorted(s.sites for s in late) == [(2,), (2, 5)]


@pytest.mark.parametrize("kind", list(EncodingKind))
@pytest.mark.parametrize("pair", MEASUREMENT_PAIRS)
def test_qubit_1_is_idle_before_t1(kind, pair):
    """No segment acts on qubit 1 before t1, so every input's t1 state is
    its qubit-1 state times one state of qubits 2..7; average_over_inputs
    takes the t1 negativities from that one state."""
    sched = build_schedule(kind, 1.0, pair)
    on_1 = [s for s in sched.segments if 1 in s.sites]
    assert on_1
    assert min(s.start_time for s in on_1) >= sched.t1


def test_bell_measurement_on_prepared_bell_pair():
    # qubits (3,4) exactly in the heralded Bell state, rotated to |00>
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    psi = oracle.initial_vector(np.array([1, 0], dtype=complex))
    psi = psi.reshape((2,) * 7)
    t = np.zeros((2,) * 7, dtype=complex)
    t[0, 0, 0, 0, 0, 0, 0] = bell[0]
    t[0, 0, 1, 1, 0, 0, 0] = bell[3]
    psi = t.reshape(-1)
    psi = oracle.apply_gate(psi, oracle.cnot(), (3, 4))
    psi = oracle.apply_gate(psi, oracle.had(), (3,))
    post, prob = project_pair(pair_block(np.outer(psi, psi.conj()), (3, 4)),
                              (3, 4))
    assert prob == pytest.approx(1, abs=1e-12)
    assert np.trace(post) == pytest.approx(1, abs=1e-12)


def test_bell_measurement_impossible_outcome():
    # qubits (3,4) pinned to |11> pre-rotation maps to |01>, never |00>...
    # use a state with zero amplitude on the herald after rotations
    t = np.zeros((2,) * 7, dtype=complex)
    t[0, 0, 1, 0, 0, 0, 0] = 1.0  # |0010000>: CNOT -> |0011000>, HAD splits q3
    psi = t.reshape(-1)
    psi = oracle.apply_gate(psi, oracle.cnot(), (3, 4))
    psi = oracle.apply_gate(psi, oracle.had(), (3,))
    with pytest.raises(PostselectionImpossibleError):
        project_pair(pair_block(np.outer(psi, psi.conj()), (3, 4)), (3, 4))


def test_run_protocol_checkpoints_valid_and_deterministic():
    rhos = run_protocol(EncodingKind.SCRAMBLING, 0.8, 0.03, CFG)
    assert all(r.shape == (6, 128, 128) for r in rhos)
    post, prob = project_pair(pair_block(rhos[2][0], (3, 4)), (3, 4))  # X+
    for rho in (rhos[0][0], rhos[1][0], rhos[2][0], post):
        check_density_matrix(rho)
    rho3 = run_protocol(EncodingKind.SCRAMBLING, 0.8, 0.03, CFG)[2][0]
    post2, prob2 = project_pair(pair_block(rho3, (3, 4)), (3, 4))
    assert np.array_equal(post, post2)
    assert prob == prob2


@pytest.mark.parametrize("kind", list(EncodingKind))
@pytest.mark.parametrize("rate_convention", ["kraus", "lindblad"])
def test_run_protocol_matches_dense_per_input_evolution(kind, rate_convention):
    """run_protocol builds its six inputs from three channel operators; each
    equals that input's own evolution by the dense stepper of
    tests/dense_reference.py at t1, t2 and t3."""
    cfg = EvolutionConfig(0.25)
    batch = np.stack([initial_state(phi) for phi in PAULI_EIGENSTATES])
    for gamma in (0.0, 0.03, 0.5):
        noise = NoiseModel(gamma, rate_convention)
        # the measurement pair moves only the gates after t2
        sched = build_schedule(kind, 0.6)
        rho1 = dense_reference.evolve_array(batch, sched.segments, noise, cfg,
                                            0.0, sched.t1)
        rho2 = dense_reference.evolve_array(rho1, sched.segments, noise, cfg,
                                            sched.t1, sched.t2)
        for pair in MEASUREMENT_PAIRS:
            sched = build_schedule(kind, 0.6, pair)
            rho3 = dense_reference.evolve_array(rho2, sched.segments, noise,
                                                cfg, sched.t2, sched.t3)
            got = run_protocol(kind, 0.6, gamma, cfg, rate_convention, pair)
            for fast, slow in zip(got, (rho1, rho2, rho3)):
                assert np.max(np.abs(fast - slow)) <= 1e-12


@pytest.mark.parametrize("kind", list(EncodingKind))
def test_noiseless_matches_state_vector_oracle(kind):
    """Trotter density matrix vs exact gate-product pure state at gamma=0."""
    phi = PAULI_EIGENSTATES[2]  # Y+
    rho1, rho2, rho3 = (r[2] for r in run_protocol(kind, 0.7, 0.0, CFG))
    post, prob = project_pair(pair_block(rho3, (3, 4)), (3, 4))
    ref = oracle.run(kind.value, 0.7, phi.vector)
    # the heralded state: amplitudes with qubits 3 and 4 in |00>
    herald = ref["post"].reshape((2,) * 7)[:, :, 0, 0].reshape(-1)
    for got, psi in [(rho1, ref["t1"]), (rho2, ref["t2"]), (rho3, ref["t3"]),
                     (post, herald)]:
        expect = np.outer(psi, psi.conj())
        assert np.linalg.norm(got - expect) < 1e-6
    assert prob == pytest.approx(ref["prob"], abs=1e-8)


def test_noiseless_success_probability_quarter_at_full_scrambling():
    for kind in EncodingKind:
        rho3 = run_protocol(kind, 1.0, 0.0, CFG)[2][1]  # X-
        block = pair_block(rho3, (3, 4))
        assert project_pair(block, (3, 4))[1] == pytest.approx(0.25, abs=1e-3)


def test_projection_preserves_purity_of_pure_states():
    rho3 = run_protocol(EncodingKind.SWAP, 0.4, 0.0, CFG)[2][5]  # Z-
    post, _ = project_pair(pair_block(rho3, (3, 4)), (3, 4))
    assert np.real(np.trace(post @ post)) == pytest.approx(1, abs=1e-10)


@pytest.mark.parametrize("pair", MEASUREMENT_PAIRS)
def test_project_pair_returns_the_heralded_block(pair):
    """The heralded state is the |00> block of the pair: the projected and
    renormalized 7-qubit state is |00><00| on the pair times it."""
    rng = np.random.default_rng(pair[0])
    a = rng.normal(size=(128, 3)) + 1j * rng.normal(size=(128, 3))
    rho = a @ a.conj().T / np.trace(a @ a.conj().T)
    sigma, prob = project_pair(pair_block(rho, pair), pair)
    p00 = np.diag([1, 0, 0, 0])
    proj = embed(p00, pair, 7)
    assert prob == pytest.approx(np.trace(proj @ rho).real, abs=1e-14)
    kept = [q for q in range(1, 8) if q not in pair]
    post = embed(np.kron(p00, sigma), (*pair, *kept), 7)
    assert np.max(np.abs(post - proj @ rho @ proj / prob)) < 1e-14
    # the whole state is not a block: its trace would read as probability 1
    with pytest.raises(ValueError, match=r"expected the pair's 32 x 32 block"):
        project_pair(rho, pair)


def test_measurement_pairs_constant():
    assert MEASUREMENT_PAIRS == ((3, 4), (2, 5), (1, 6))


CORRUPTIONS = ("nan", "inf", "-1", "x", "", "0", "8", "1e308")
# what a clear error names: the line, the PARAM expression, the gate and
# its site, or the offending segments or checkpoints
CLEAR_ERROR = re.compile(r"line (\d+): |PARAM expression '|gate on sites \(|"
                         r"segments? on sites \(|checkpoints")


def corrupted_schedules(kind):
    """(what, the line a line-numbered error must name, text) of each
    single-token corruption of a packaged schedule, and of it with one line
    repeated."""
    lines = (resources.files(gates.__package__) / "schedules"
             / f"{kind.value}.sched").read_text().splitlines()
    for i, line in enumerate(lines):
        tokens = line.split("#", 1)[0].split()
        for j in range(len(tokens)):
            for bad in CORRUPTIONS:
                variant = " ".join(tokens[:j] + [bad] + tokens[j + 1:])
                yield (f"line {i + 1} token {j} -> {bad!r}", i + 1,
                       "\n".join(lines[:i] + [variant] + lines[i + 1:]))
        if tokens:
            yield (f"line {i + 1} repeated", i + 2,
                   "\n".join(lines[:i + 1] + [line] + lines[i + 1:]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", list(EncodingKind))
def test_every_single_token_corruption_fails_clearly(monkeypatch, kind):
    """Each token of each line of a packaged schedule replaced by each
    corruption, and each line repeated: the schedule either builds, with
    every generator finite, or raises a ValueError naming what is wrong. Any
    other exception type fails the test."""
    unclear = []
    for what, lineno, text in corrupted_schedules(kind):
        monkeypatch.setattr(gates, "load_schedule",
                            lambda _, text=text: gates.parse_schedule_text(text))
        try:
            sched = build_schedule(kind, 0.73)
        except ValueError as exc:
            clear = CLEAR_ERROR.search(str(exc))
            if not clear or clear[1] not in (None, str(lineno)):
                unclear.append(f"{what}: {exc}")
            continue
        if not all(np.isfinite(seg.generator).all() for seg in sched.segments):
            unclear.append(f"{what}: builds with a non-finite generator")
    assert unclear == []
