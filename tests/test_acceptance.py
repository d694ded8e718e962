"""End-to-end acceptance suite: one test and one summary line per criterion.

All physics values come through the public API at the default step size;
the `record` helper caches grid points across the whole session.
"""

import numpy as np
import pytest

from teleportsim.evolution import EvolutionConfig, NoiseModel
from teleportsim.metrics import run_protocol
from teleportsim.protocol import (EncodingKind, MEASUREMENT_PAIRS,
                                  PAULI_EIGENSTATES, pair_block,
                                  project_pair)
from teleportsim.tensor_core import partial_transpose

from conftest import acceptance, record
from dense_reference import dephasing_kraus

import oracle

SCR = EncodingKind.SCRAMBLING
SWP = EncodingKind.SWAP


def test_criterion_1_perfect_teleportation():
    fids = {kind.value: record(kind, 1.0, 0.0).fidelity_avg
            for kind in EncodingKind}
    ok = all(abs(f - 1) < 1e-3 for f in fids.values())
    acceptance(1, "perfect teleportation",
               ok, ", ".join(f"{k}: F={f:.6f}" for k, f in fids.items()))


def test_criterion_2_random_target_at_alpha_zero():
    worst = 0.0
    for kind in EncodingKind:
        for gamma in (0.0, 0.03, 0.06):
            f = record(kind, 0.0, gamma).fidelity_avg
            worst = max(worst, abs(f - 0.5))
    acceptance(2, "random target at alpha=0", worst < 1e-3,
               f"max |F - 1/2| = {worst:.2e} over both protocols, "
               f"gamma in {{0, 0.03, 0.06}}")


def test_criterion_3_noiseless_purity():
    worst = 0.0
    for kind in EncodingKind:
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            p = record(kind, alpha, 0.0).purity_avg
            worst = max(worst, abs(p - 1))
    acceptance(3, "noiseless purity", worst < 1e-6,
               f"max |P - 1| = {worst:.2e}")


def test_criterion_4_purity_floor():
    p = record(SCR, 1.0, 0.06).purity_avg
    target = 1 / 2 ** 5
    rel = abs(p - target) / target
    acceptance(4, "purity floor 1/2^5", rel < 0.05,
               f"P = {p:.6f}, target {target:.6f}, rel dev {rel:.1%}")


def test_criterion_5_cut_entanglement_endpoints():
    devs = []
    for kind in EncodingKind:
        devs.append(abs(record(kind, 0.0, 0.0).neg_cut34 - 1))
        devs.append(abs(record(kind, 1.0, 0.0).neg_cut34 - 2))
    acceptance(5, "cut negativity endpoints", max(devs) < 2e-2,
               f"max deviation {max(devs):.2e} from 1 at alpha=0, 2 at alpha=1")


def test_criterion_6_entanglement_budget():
    devs = []
    for kind in EncodingKind:
        r0 = record(kind, 0.0, 0.0)
        r1 = record(kind, 1.0, 0.0)
        devs += [abs(r0.delta_E_U), abs(r1.delta_E_U - 6),
                 abs(r0.delta_E_M + 1)]
    acceptance(6, "entanglement budget", max(devs) < 2e-2,
               f"max deviation {max(devs):.2e} for dE_U in {{0, 6}}, dE_M = -1")


def _cut_slope(gamma: float) -> float:
    return (record(SCR, 1.0, gamma).neg_cut34
            - record(SCR, 0.5, gamma).neg_cut34)


def test_criterion_7_two_regime_crossover():
    lo_neg = [record(SCR, a, 0.02).neg_cut34 for a in (0.5, 0.75, 1.0)]
    hi_neg = [record(SCR, a, 0.06).neg_cut34 for a in (0.5, 0.75, 1.0)]
    increasing = all(b > a for a, b in zip(lo_neg, lo_neg[1:]))
    decreasing = all(b < a for a, b in zip(hi_neg, hi_neg[1:]))
    near = [record(SCR, a, 0.038).neg_cut34 for a in (0.5, 0.75, 1.0)]
    spread = max(near) - min(near)
    lo, hi = 0.02, 0.06
    for _ in range(5):
        mid = (lo + hi) / 2
        if _cut_slope(mid) > 0:
            lo = mid
        else:
            hi = mid
    gamma_c = (lo + hi) / 2
    in_window = 0.019 <= gamma_c <= 0.076
    ok = increasing and decreasing and spread < 0.1 and in_window
    acceptance(7, "two-regime crossover", ok,
               f"increasing@0.02={increasing}, decreasing@0.06={decreasing}, "
               f"spread@0.038={spread:.3f}, gamma_c={gamma_c:.4f}")


def test_criterion_8_swap_monotonicity():
    alphas = np.linspace(0, 1, 6)
    worst = -np.inf
    for gamma in (0.0, 0.038, 0.06):
        vals = [record(SWP, a, gamma).neg_cut34 for a in alphas]
        worst = max(worst, max(a - b for a, b in zip(vals, vals[1:])))
    acceptance(8, "SWAP cut-negativity monotone in alpha", worst < 1e-3,
               f"max decrease per grid step {worst:.2e}")


def test_criterion_9_perfect_scrambler_all_pairs():
    fids = {}
    for pair in MEASUREMENT_PAIRS:
        fids[pair] = record(SCR, 1.0, 0.0, measurement_pair=pair).fidelity_avg
    ok = all(abs(f - 1) < 1e-3 for f in fids.values())
    acceptance(9, "perfect scrambler on all Bell pairs", ok,
               ", ".join(f"{p}: F={f:.6f}" for p, f in fids.items()))


def test_criterion_10_property_suite():
    checks = []

    # CPTP at all checkpoints of a noisy run
    states = [r[0] for r in run_protocol(SCR, 0.8, 0.03, EvolutionConfig(0.01))]
    states.append(project_pair(pair_block(states[2], (3, 4)), (3, 4))[0])
    cptp = True
    for rho in states:
        cptp &= abs(np.trace(rho) - 1) < 1e-12
        cptp &= float(np.linalg.eigvalsh(rho)[0]) >= -1e-8
    checks.append(("cptp", cptp))

    # Kraus completeness
    k1, k2 = dephasing_kraus(0.06, 0.01)
    comp = k1.conj().T @ k1 + k2.conj().T @ k2
    checks.append(("kraus", np.max(np.abs(comp - np.eye(2))) < 1e-14))

    # partial-transpose involution
    rng = np.random.default_rng(42)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    m = a @ a.conj().T
    rho = m / np.trace(m)
    pt = partial_transpose(rho, (2, 4))
    back = partial_transpose(pt, (2, 4))
    checks.append(("involution", np.array_equal(back, rho)))

    # Trotter self-convergence on 5 random grid points
    conv = True
    details = []
    for _ in range(5):
        kind = SCR if rng.random() < 0.5 else SWP
        alpha = float(np.round(rng.uniform(0, 1), 2))
        gamma = float(np.round(rng.uniform(0, 0.06), 3))
        f = [record(kind, alpha, gamma, dt=dt).fidelity_avg
             for dt in (0.04, 0.02, 0.01)]
        lhs = abs(f[0] - f[1])
        rhs = 5 * abs(f[1] - f[2]) + 1e-6
        conv &= lhs <= rhs
        details.append(f"{lhs:.1e}<={rhs:.1e}")
    checks.append(("trotter-convergence", conv))

    # state-vector oracle equivalence at gamma = 0
    equiv = True
    for kind in EncodingKind:
        rho3 = run_protocol(kind, 0.7, 0.0, EvolutionConfig(0.01))[2][2]
        ref = oracle.run(kind.value, 0.7, PAULI_EIGENSTATES[2])
        dist = np.linalg.norm(rho3
                              - np.outer(ref["t3"], ref["t3"].conj()))
        equiv &= dist <= 1e-6
    checks.append(("oracle-equivalence", equiv))

    ok = all(c for _, c in checks)
    acceptance(10, "property suite", ok,
               ", ".join(f"{n}={'ok' if c else 'FAIL'}" for n, c in checks))


def test_criterion_11_qualitative_decay():
    gammas = np.arange(0.005, 0.0601, 0.005)
    strict = True
    ordering = True
    for kind in EncodingKind:
        f = [record(kind, 1.0, g).fidelity_avg for g in gammas]
        p = [record(kind, 1.0, g).purity_avg for g in gammas]
        strict &= all(b < a for a, b in zip(f, f[1:]))
        strict &= all(b < a for a, b in zip(p, p[1:]))
    for g in gammas:
        if g >= 0.02 - 1e-12:
            ordering &= (record(SCR, 1.0, g).fidelity_avg
                         < record(SWP, 1.0, g).fidelity_avg)
    acceptance(11, "qualitative decay", strict and ordering,
               f"strictly decreasing={strict}, "
               f"scrambling below SWAP for gamma>=0.02: {ordering}")
