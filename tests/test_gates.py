import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from teleportsim import gates
from teleportsim.gates import (GateSegment, ScheduleEntry, ScheduleError,
                               entry_segment, eval_param, load_schedule,
                               parse_schedule_text)
from teleportsim.protocol import EncodingKind, build_schedule

import oracle
from dense_reference import compose_window, embed, scrambling_unitary

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)


def assert_unitary(u, atol=1e-12):
    assert np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) < atol


def global_phase_equal(a, b, atol=1e-10):
    k = np.argmax(np.abs(b))
    i, j = np.unravel_index(k, b.shape)
    phase = a[i, j] / b[i, j]
    assert abs(abs(phase) - 1) < atol
    return np.max(np.abs(a - phase * b)) < atol


def xx_gate(phi):
    return expm(-1j * gates.xx_generator(phi))


def rz_gate(phi):
    return expm(-1j * gates.rz_generator(phi))


def param_swap(alpha, sign):
    return expm(-1j * gates.param_swap_generator(sign * alpha, 4.0) * 4.0)


def test_xx_gate_basics():
    assert np.allclose(xx_gate(0), np.eye(4))
    out = xx_gate(np.pi / 2) @ np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(out, np.array([1, 0, 0, 1j]) / np.sqrt(2))
    assert np.allclose(xx_gate(0.7) @ xx_gate(-0.7), np.eye(4), atol=1e-14)
    assert np.max(np.abs(xx_gate(0.7) - oracle.xx(0.7))) < 1e-12


def test_rz_gate_values():
    assert np.allclose(rz_gate(0), np.eye(2))
    assert np.allclose(rz_gate(np.pi / 2),
                       np.diag([np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)]))
    assert np.allclose(rz_gate(2 * np.pi), -np.eye(2))
    assert np.max(np.abs(rz_gate(0.7) - oracle.rz(0.7))) < 1e-12


def test_cnot_gate_action():
    u = expm(-1j * gates.cnot_generator())
    assert_unitary(u)
    assert global_phase_equal(u, oracle.cnot())
    v10 = np.array([0, 0, 1, 0], dtype=complex)
    out = u @ v10
    assert np.isclose(abs(out[3]), 1)
    v00 = np.array([1, 0, 0, 0], dtype=complex)
    assert np.isclose(abs((u @ v00)[0]), 1)


def test_hadamard_gate_action():
    u = expm(-1j * gates.hadamard_generator())
    assert np.max(np.abs(u - oracle.had())) < 1e-12
    assert global_phase_equal(u @ u, np.eye(2))
    out = u @ np.array([1, 0], dtype=complex)
    assert np.allclose(np.abs(out), [1 / np.sqrt(2)] * 2)
    assert np.allclose(out[0], out[1])
    conj = u @ gates.Z @ u.conj().T
    assert np.allclose(conj, gates.X)


def test_param_swap_endpoints():
    assert np.allclose(param_swap(0, 1), np.eye(4))
    assert np.allclose(param_swap(0, -1), np.eye(4))
    assert np.allclose(param_swap(1, 1), SWAP, atol=1e-12)
    half = param_swap(0.5, 1)
    assert np.allclose(half @ half, SWAP, atol=1e-12)


def test_param_swap_range_checks():
    with pytest.raises(ValueError):
        build_schedule(EncodingKind.SWAP, 1.5)
    with pytest.raises(ValueError):
        build_schedule(EncodingKind.SWAP, -0.5)


@settings(max_examples=30, deadline=None)
@given(st.floats(0, 1), st.sampled_from([1, -1]))
def test_param_swap_unitary_and_matches_oracle(alpha, sign):
    u = param_swap(alpha, sign)
    assert_unitary(u)
    assert np.max(np.abs(u - oracle.pswap(sign * alpha))) < 1e-12


def test_generators_reproduce_gates():
    checks = [
        (gates.xx_generator(-np.pi / 2), oracle.xx(-np.pi / 2), 1.0),
        (gates.rz_generator(np.pi / 2), oracle.rz(np.pi / 2), 1.0),
        (gates.cnot_generator(), oracle.cnot(), 1.0),
        (gates.hadamard_generator(), oracle.had(), 1.0),
        (gates.param_swap_generator(0.6, 4.0), oracle.pswap(0.6), 4.0),
    ]
    for gen, gate, tau in checks:
        assert np.max(np.abs(expm(-1j * gen * tau) - gate)) < 1e-12


def test_rz_generator_quarter_turn_value():
    assert np.allclose(gates.rz_generator(np.pi / 2), -np.pi / 4 * gates.Z)


def test_segmentize_roundtrip_all_gates():
    """A schedule line of each gate integrates to the closed-form gate."""
    for entry, gate in [
        (ScheduleEntry("XX", (1, 2), 2.0, 1.0, "0.3"), oracle.xx(0.3)),
        (ScheduleEntry("RZ", (1,), 0.0, 1.0, "pi/2"), oracle.rz(np.pi / 2)),
        (ScheduleEntry("CNOT", (3, 4), 10.0, 1.0, "1"), oracle.cnot()),
        (ScheduleEntry("HAD", (3,), 11.0, 1.0, "1"), oracle.had()),
        (ScheduleEntry("PSWAP", (5, 4), 6.0, 4.0, "-alpha"), oracle.pswap(-0.8)),
    ]:
        seg = entry_segment(entry, 0.8)
        u = expm(-1j * seg.generator * seg.duration)
        assert np.max(np.abs(u - gate)) < 1e-12


def test_segmentize_rejects_non_unitary():
    # i log(diag(1, 2)), the generator of a gate that is not unitary
    with pytest.raises(ValueError):
        GateSegment(np.diag([0, 1j * np.log(2)]), (1,), 0.0, 1.0)
    with pytest.raises(ValueError):
        GateSegment(np.eye(2), (1,), 0.0, 0.0)


@pytest.mark.parametrize("duration", [0.0, -1.0, float("nan")])
def test_segment_duration_must_be_positive(duration):
    """A NaN duration used to construct, and evolve_array then never applied
    the segment, as NaN fails every time comparison."""
    with pytest.raises(ValueError, match="duration must be positive"):
        GateSegment(gates.rz_generator(0.3), (1,), 0.0, duration)


def test_gate_segment_validation():
    with pytest.raises(ValueError):
        GateSegment(np.array([[0, 1], [0, 0.0]]), (1,), 0.0, 1.0)
    with pytest.raises(ValueError):
        GateSegment(np.eye(2), (1, 2), 0.0, 1.0)
    seg = GateSegment(np.eye(2), (1,), 2.0, 1.0)
    assert seg.end_time == 3.0
    assert seg.active_at(2.0) and seg.active_at(2.5)
    assert not seg.active_at(3.0) and not seg.active_at(1.99)


def test_step_unitary_composes_to_full_gate():
    """For each gate kind, the eigenbasis step unitary is scipy's expm to
    1e-14, is unitary, and its steps compose to the closed-form gate."""
    for entry, gate in [
        (ScheduleEntry("XX", (1, 2), 2.0, 1.0, "0.3"), oracle.xx(0.3)),
        (ScheduleEntry("RZ", (1,), 0.0, 1.0, "pi/2"), oracle.rz(np.pi / 2)),
        (ScheduleEntry("CNOT", (3, 4), 10.0, 1.0, "1"), oracle.cnot()),
        (ScheduleEntry("HAD", (3,), 11.0, 1.0, "1"), oracle.had()),
        (ScheduleEntry("PSWAP", (5, 4), 6.0, 4.0, "-alpha"), oracle.pswap(-0.8)),
    ]:
        seg = entry_segment(entry, 0.8)
        for dt in (0.01, 0.04, 0.25):
            step = seg.step_unitary(dt)
            assert np.max(np.abs(step - expm(-1j * seg.generator * dt))) < 1e-14
            assert_unitary(step, atol=1e-14)
            u = np.eye(len(step), dtype=complex)
            for _ in range(round(seg.duration / dt)):
                u = step @ u
            assert np.max(np.abs(u - gate)) < 1e-10


def test_eval_param():
    assert eval_param("pi/2", 0.0) == pytest.approx(np.pi / 2)
    assert eval_param("-alpha*pi/2", 0.5) == pytest.approx(-np.pi / 4)
    assert eval_param("1", 0.3) == 1.0
    assert eval_param("+(2 - alpha) / 4", 1.0) == 0.25
    for bad in ("__import__('os')", "alpha +", "alpha**2", "abs(alpha)",
                "alpha.real", "(1).__class__", "1 if alpha else 0", "beta",
                "1j", "True", "", "alpha / (1 - 1)",
                "(" * 300 + "alpha" + ")" * 300, "-" * 5000 + "alpha",
                "(-" * 150 + "1" + ")" * 150 + "+1" * 3000):
        with pytest.raises(ScheduleError, match=re.escape(repr(bad))):
            eval_param(bad, 0.5)
    # every PARAM of both packaged schedules, bit for bit as Python gives it
    for kind in EncodingKind:
        for entry in gates.load_schedule(kind.value).entries:
            for alpha in (0.0, 0.3, 0.73, 1.0):
                want = float(eval(entry.param, {"__builtins__": {}},
                                  {"alpha": alpha, "pi": np.pi}))
                assert eval_param(entry.param, alpha) == want


@pytest.mark.parametrize("bad", ["alpha**2", "x", "abs(alpha)", "1j"])
def test_param_outside_the_grammar_says_so(bad):
    """The grammar message used to be caught by the evaluator's own
    ValueError clause and reworded as 'nested too deeply or malformed'."""
    with pytest.raises(ScheduleError, match=re.escape(
            f"PARAM expression {bad!r} may only use numbers, alpha, pi, "
            f"+ - * / and parentheses")):
        eval_param(bad, 0.5)


@pytest.mark.parametrize("bad", ["1e308*10", "1e308*10-1e308*10",
                                 "-1e308*10", "1" + "0" * 400 + "*alpha"],
                         ids=["inf", "nan", "-inf", "int-overflow"])
def test_non_finite_param_is_a_schedule_error(bad):
    """1e308*10 gave inf and 1e308*10-1e308*10 gave nan; a 401-digit integer
    times a float raised OverflowError."""
    with pytest.raises(ScheduleError, match=re.escape(
            f"PARAM expression {bad!r} is not a finite number")):
        eval_param(bad, 0.5)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_generator_is_not_hermitian(entry):
    """A NaN deviation failed `dev > GENERATOR_ATOL`, so an all-NaN generator
    used to construct."""
    with pytest.raises(ValueError, match=r"generator of the segment on sites "
                       r"\(2,\) is not Hermitian"):
        GateSegment(np.full((2, 2), entry), (2,), 0.0, 1.0)


def test_unknown_gate_name_is_a_schedule_error():
    """Any name outside the gate table used to build a PSWAP segment."""
    with pytest.raises(ScheduleError, match=r"unknown gate 'FOO' on sites \(1, 2\)"):
        entry_segment(ScheduleEntry("FOO", (1, 2), 0.0, 4.0, "1"), 0.5)


def test_parse_schedule_errors():
    with pytest.raises(ScheduleError):
        parse_schedule_text("TIME t1 2\nTIME t2 10\n")  # missing t3
    with pytest.raises(ScheduleError):
        parse_schedule_text("GATE XX SITES 1 START 0 DUR 1 PARAM pi/2\n"
                            "TIME t1 2\nTIME t2 10\nTIME t3 12")  # arity
    with pytest.raises(ScheduleError):
        parse_schedule_text("GATE FOO SITES 1 START 0 DUR 1 PARAM 1\n"
                            "TIME t1 2\nTIME t2 10\nTIME t3 12")
    with pytest.raises(ScheduleError):
        parse_schedule_text("NOISE 0.1\nTIME t1 2\nTIME t2 10\nTIME t3 12")


TIMES = "TIME t1 2\nTIME t2 10\nTIME t3 12\n"
GATE_LINE = "GATE XX SITES 2,5 START 0 DUR 1 PARAM pi/2"
BAD_SITES = "SITES must be distinct positive integers, got "


def test_repeated_time_directive_is_rejected():
    """A repeated TIME line is an error naming both lines, not a silent
    last-wins."""
    with pytest.raises(ScheduleError, match=r"^line 4: TIME t1 repeats line 1$"):
        parse_schedule_text(TIMES + "TIME t1 4\n")


MALFORMED = [
    ("TIME t1 x\nTIME t2 10\nTIME t3 12\n",
     "line 1: TIME t1 must be a finite number, got 'x'"),
    ("TIME t1 2\nTIME t2 nan\nTIME t3 12\n",
     "line 2: TIME t2 must be a finite number, got 'nan'"),
    ("TIME t1 2\nTIME t2 10\nTIME t3 inf\n",
     "line 3: TIME t3 must be a finite number, got 'inf'"),
] + [
    (TIMES + GATE_LINE.replace(old, new) + "\n", "line 4: " + match)
    for old, new, match in [
        ("SITES 2,5", "SITES a,b", BAD_SITES + "'a,b'"),
        ("SITES 2,5", "SITES 1,1", BAD_SITES + "'1,1'"),
        ("SITES 2,5", "SITES 0,2", BAD_SITES + "'0,2'"),
        ("START 0", "START x", "START must be a finite number, got 'x'"),
        ("START 0", "START nan", "START must be a finite number, got 'nan'"),
        ("START 0", "START inf", "START must be a finite number, got 'inf'"),
        ("DUR 1", "DUR nan", "DUR must be a finite number, got 'nan'"),
        ("DUR 1", "DUR -inf", "DUR must be a finite number, got '-inf'"),
        ("DUR 1", "DUR 0", "DUR must be positive, got '0'"),
        ("DUR 1", "DUR -1", "DUR must be positive, got '-1'"),
    ]
]


@pytest.mark.parametrize("text, match", MALFORMED,
                         ids=[match for _, match in MALFORMED])
def test_malformed_schedule_tokens_name_their_line(text, match):
    with pytest.raises(ScheduleError, match=f"^{re.escape(match)}$"):
        parse_schedule_text(text)


def test_parse_schedule_ignores_comments_and_blanks():
    parsed = parse_schedule_text(
        "# a comment\n\nTIME t1 2\nTIME t2 10\nTIME t3 12\n"
        "GATE RZ SITES 3 START 1 DUR 1 PARAM pi/2  # trailing\n"
    )
    assert parsed.t2 == 10
    assert len(parsed.entries) == 1
    assert parsed.entries[0].sites == (3,)


def test_packaged_schedules_load():
    for kind in ("scrambling", "swap"):
        parsed = load_schedule(kind)
        assert (parsed.t1, parsed.t2, parsed.t3) == (2, 10, 12)
        names = {e.name for e in parsed.entries}
        assert "CNOT" in names and "HAD" in names


def test_scrambling_unitary_identity_at_zero():
    u, uc = scrambling_unitary(0.0)
    assert global_phase_equal(u, np.eye(8))


def test_scrambling_unitary_unitarity():
    u, uc = scrambling_unitary(0.37)
    assert_unitary(u)
    assert_unitary(uc)


def test_conjugate_is_entrywise_conjugate():
    u, uc = scrambling_unitary(0.61)
    assert np.max(np.abs(uc - u.conj())) < 1e-12


def test_scrambling_decoder_lines_match_conjugate():
    """The decode-side schedule entries on qubits 4-6, read in mirrored
    site order, compose to the entrywise conjugate of the encoder."""
    alpha = 0.45
    parsed = load_schedule("scrambling")
    u, uc = scrambling_unitary(alpha)
    dec = compose_window(parsed, alpha, (4, 5, 6), {6: 1, 5: 2, 4: 3})
    assert np.max(np.abs(dec - uc)) < 1e-12


def swap_window(alpha):
    """(segment, gate) pairs of the SWAP circuit's encode window, encoder
    side (qubits 1-3) and decoder side, each in time order."""
    sched = build_schedule(EncodingKind.SWAP, alpha)
    window = sorted((s for s in sched.segments
                     if sched.t1 <= s.start_time < sched.t2),
                    key=lambda s: s.start_time)
    enc, dec = [], []
    for s in window:
        u = expm(-1j * s.generator * s.duration)
        (enc if set(s.sites) <= {1, 2, 3} else dec).append((s, u))
    return enc, dec


def test_encoder_continuity_in_alpha():
    eps = 1e-6
    for alpha in (0.0, 0.3, 0.9):
        u1, _ = scrambling_unitary(alpha)
        u2, _ = scrambling_unitary(alpha + eps)
        assert np.max(np.abs(u2 - u1)) < 1e-4
    for alpha in (0.0, 0.3, 0.9):
        enc1, _ = swap_window(alpha)
        enc2, _ = swap_window(alpha + eps)
        for (_, u1), (_, u2) in zip(enc1, enc2):
            assert np.max(np.abs(u2 - u1)) < 1e-4


def test_swap_unitary_structure():
    enc, dec = swap_window(0.7)
    assert len(enc) == 2 and len(dec) == 2
    assert [s.sites for s, _ in enc] == [(1, 2), (2, 3)]
    assert [s.sites for s, _ in dec] == [(6, 5), (5, 4)]
    assert all(s.duration == 4 for s, _ in enc + dec)
    # decoder is the conjugate: negated exponent
    for (_, e), (_, d) in zip(enc, dec):
        assert np.max(np.abs(d - e.conj())) < 1e-12


def test_swap_unitary_identity_at_zero():
    enc, dec = swap_window(0.0)
    for _, u in enc + dec:
        assert np.allclose(u, np.eye(4), atol=1e-12)


def test_swap_encoder_routes_qubit_1_to_3():
    enc, _ = swap_window(1.0)
    u = np.eye(8, dtype=complex)
    for s, g in enc:
        u = embed(g, s.sites, 3) @ u
    for src in range(8):
        v = np.zeros(8, dtype=complex)
        v[src] = 1
        out = u @ v
        # bit of qubit 1 moves to qubit 3, the others shift up
        b = [(src >> 2) & 1, (src >> 1) & 1, src & 1]
        dst = (b[1] << 2) | (b[2] << 1) | b[0]
        assert np.isclose(abs(out[dst]), 1)


def test_alpha_range_checks():
    with pytest.raises(ValueError):
        scrambling_unitary(1.2)
    with pytest.raises(ValueError):
        build_schedule(EncodingKind.SWAP, -0.1)


def test_entry_segment_all_kinds():
    parsed = load_schedule("swap")
    for e in parsed.entries:
        seg = entry_segment(e, 0.8)
        assert seg.sites == e.sites
        assert seg.start_time == e.start
        assert seg.duration == e.duration
