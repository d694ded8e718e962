"""average_over_inputs against brute force on random schedules.

Every reduction of the pipeline (local slot maps composed per qubit
component, three channel operators in place of six inputs, the t1 stage on
qubits 2..7, the packed t1 to t2 evolution, the parity relations and the
phase symmetry at t2, the solver's parity blocks and quarters, the heralded
block cut before the inputs are combined) is checked here on schedules
drawn at random, not only on the two packaged ones. The reference uses none
of them: each input's 7-qubit state is evolved by the dense stepper of
tests/dense_reference.py, every cut is solved at 128 x 128, and the
heralded state is a projected 128 x 128 copy of the t3 state.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from teleportsim import gates
from teleportsim.evolution import EvolutionConfig, NoiseModel
from teleportsim.metrics import MetricsRecord, average_over_inputs
from teleportsim.protocol import (MEASUREMENT_PAIRS, NUM_QUBITS,
                                  PAULI_EIGENSTATES, EncodingKind,
                                  build_schedule)
from teleportsim.tensor_core import partial_trace, partial_transpose

import dense_reference
from conftest import with_schedule

DT = 0.25
TOLERANCE = 1e-10
# draws whose least heralding probability is below this are skipped, as the
# division by it scales round-off
MIN_HERALDING = 1e-3
CFG = EvolutionConfig(DT)


def random_schedule(rng, broken=None):
    """Gate lines that build_schedule accepts, with times on the DT grid,
    and the measured pair: XX, RZ and PSWAP gates with random angles (some
    scaled by alpha) on qubits 2..7 before t1 and on any qubits after; a
    CNOT and a HAD from t2 on, on the measured pair as build_schedule
    retargets them; no two gates on one qubit at once. In about half the
    draws the gates from t1 to t2 are PSWAPs only and the earlier ones end
    by t1, so that a phase symmetry may tie Y+ to X+. broken adds one gate
    that breaks a rule of _check_schedule: 'qubit 1' a gate on qubit 1
    before t1, 'parity' a CNOT or HAD before t2."""
    t1 = int(rng.integers(2, 7))
    t2 = t1 + int(rng.integers(3, 10))
    t3 = t2 + int(rng.integers(3, 6))
    pair = MEASUREMENT_PAIRS[rng.integers(len(MEASUREMENT_PAIRS))]
    pswap_encode = rng.random() < 0.5
    busy, lines = [], []

    def place(name, sites, start, dur, param="1"):
        end = min(start + dur, t3)
        if any(set(sites) & set(s) and start < e and a < end for s, a, e in busy):
            return
        busy.append((sites, start, end))
        lines.append(f"GATE {name} SITES {','.join(map(str, sites))} "
                     f"START {start * DT} DUR {(end - start) * DT} PARAM {param}")

    def angle():
        return f"{rng.uniform(-np.pi, np.pi):.6f}" + ("*alpha" if rng.random() < 0.3 else "")

    cnot = int(rng.integers(t2, t3 - 1))
    place("CNOT", pair, cnot, 1)
    place("HAD", pair[:1], int(rng.integers(cnot + 1, t3)), 1)
    # the rotations start at t2 or later, so the breaking gate always fits
    if broken == "qubit 1":
        other = int(rng.integers(2, NUM_QUBITS + 1))
        place(*(("RZ", (1,)) if rng.random() < 0.5 else ("XX", (1, other))),
              int(rng.integers(0, t1)), 1, angle())
    elif broken == "parity":
        sites = tuple(int(q) for q in rng.permutation(NUM_QUBITS) + 1)
        place(*(("CNOT", sites[:2]) if rng.random() < 0.5 else ("HAD", sites[:1])),
              int(rng.integers(0, t2)), 1)
    for _ in range(40):
        start = int(rng.integers(0, t3))
        dur = int(rng.integers(1, 5))
        name = rng.choice(["XX", "RZ", "PSWAP"])
        if pswap_encode and start < t1:
            dur = min(dur, t1 - start)
        elif pswap_encode and start < t2:
            name = "PSWAP"
        qubits = rng.permutation(NUM_QUBITS - 1) + 2 if start < t1 else rng.permutation(NUM_QUBITS) + 1
        sites = tuple(int(q) for q in qubits[:1 if name == "RZ" else 2])
        place(name, sites, start, dur, angle())
    text = f"TIME t1 {t1 * DT}\nTIME t2 {t2 * DT}\nTIME t3 {t3 * DT}\n"
    return gates.parse_schedule_text(text + "\n".join(lines)), pair


def _negativities(rho: np.ndarray) -> list[float]:
    """Log negativity, base 2, of each cut (1..k | k+1..7), k = 1..6, from
    the full spectrum of the 128 x 128 partial transpose."""
    out = []
    for k in range(1, NUM_QUBITS):
        ev = np.linalg.eigvalsh(partial_transpose(rho, range(k + 1, NUM_QUBITS + 1)))
        ev = ev[np.abs(ev) >= 1e-12]
        out.append(math.log2(1 + float(np.sum(np.abs(ev) - ev))))
    return out


def brute_force(kind, alpha, gamma, convention, pair) -> MetricsRecord:
    """The record of average_over_inputs, from each input's dense 7-qubit
    state; None if an input heralds with probability below MIN_HERALDING."""
    sched = build_schedule(kind, alpha, pair)
    noise = NoiseModel(gamma, convention)
    rho = np.stack([dense_reference.initial_state(phi) for phi in PAULI_EIGENSTATES])
    states = []
    for t_from, t_to in ((0.0, sched.t1), (sched.t1, sched.t2), (sched.t2, sched.t3)):
        rho = dense_reference.evolve_array(rho, sched.segments, noise, CFG, t_from, t_to)
        states.append(rho)
    herald = dense_reference.embed(np.diag([1.0, 0, 0, 0]), pair, NUM_QUBITS)
    projected = herald @ states[2] @ herald
    probs = np.real(np.trace(projected, axis1=1, axis2=2))
    if probs.min() < MIN_HERALDING:
        return None
    projected /= probs[:, None, None]
    n1, n2, n3, cut = [], [], [], []
    for rho1, rho2, sigma in zip(states[0], states[1], projected):
        n1.append(sum(_negativities(rho1)))
        n2.append(sum(_negativities(rho2)))
        cuts = _negativities(sigma)
        n3.append(sum(cuts))
        # the cut (1..p2-1 | p2..7)
        cut.append(cuts[pair[1] - 2])
    fids = [np.real(phi.conj() @ partial_trace(sigma, (NUM_QUBITS,)) @ phi)
            for phi, sigma in zip(PAULI_EIGENSTATES, projected)]
    return MetricsRecord(
        kind=kind, alpha=alpha, gamma=gamma,
        fidelity_avg=float(np.mean(fids)),
        purity_avg=float(np.mean(np.sum(np.abs(projected) ** 2, axis=(1, 2)))),
        purity_of_mean=float(np.sum(np.abs(projected.mean(axis=0)) ** 2)),
        neg_cut34=float(np.mean(cut)),
        neg_total_t1=float(np.mean(n1)),
        neg_total_t2=float(np.mean(n2)),
        neg_total_t3=float(np.mean(n3)),
        delta_E_U=float(np.mean(n2) - np.mean(n1)),
        delta_E_M=float(np.mean(n3) - np.mean(n2)),
        success_prob_avg=float(np.mean(probs)),
        failed_inputs=[],
    )


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(list(EncodingKind)),
       st.floats(0, 1), st.sampled_from([0.05, 0.4, 0.0]),
       st.sampled_from(["kraus", "lindblad"]))
def test_pipeline_matches_brute_force_on_random_schedules(seed, kind, alpha,
                                                          gamma, convention):
    parsed, pair = random_schedule(np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        with_schedule(mp, parsed)
        want = brute_force(kind, alpha, gamma, convention, pair)
        assume(want is not None)
        got = average_over_inputs(kind, alpha, gamma, CFG, convention,
                                  measurement_pair=pair)
    assert got.failed_inputs == want.failed_inputs
    for f in fields(MetricsRecord):
        value = getattr(got, f.name)
        if isinstance(value, float):
            assert abs(value - getattr(want, f.name)) <= TOLERANCE, f.name


@settings(derandomize=True, max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["qubit 1", "parity"]))
def test_random_schedules_that_break_a_rule_raise(seed, broken):
    parsed, pair = random_schedule(np.random.default_rng(seed), broken)
    match = ("acts on qubit 1" if broken == "qubit 1"
             else "does not commute with the parity")
    with pytest.MonkeyPatch.context() as mp:
        with_schedule(mp, parsed)
        with pytest.raises(ValueError, match=match):
            average_over_inputs(EncodingKind.SWAP, 0.5, 0.03, CFG,
                                measurement_pair=pair)
