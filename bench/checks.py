"""Correctness checks on the program's outputs.

Each check returns a list of human-readable faults; an empty list passes.
Records are plain dicts keyed by the ``MetricsRecord`` field names.
"""

from __future__ import annotations

import math
import os

import numpy as np

import reference

TOLERANCE = 1e-10
CSV_COLUMNS = (
    "protocol", "alpha", "gamma", *reference.FIELDS,
    "dt", "log_base", "rate_convention", "error",
)
FIG7_ALPHAS = (0.0, 0.5, 1.0)
FIG7_METRICS = ("fidelity_avg", "purity_avg")


def against_reference(label: str, record: dict, ref: dict) -> list[str]:
    """Every field of the record within TOLERANCE of the reference."""
    faults = []
    for name in reference.FIELDS:
        value = record[name]
        if not math.isfinite(value) or abs(value - ref[name]) > TOLERANCE:
            faults.append(f"{label}: {name}={value!r}, reference {ref[name]!r}")
    return faults


def method_properties(label: str, record: dict) -> list[str]:
    """Relations that hold by the method itself, whatever the inputs."""
    faults = []
    if not 0 < record["success_prob_avg"] <= 1:
        faults.append(f"{label}: success_prob_avg={record['success_prob_avg']!r}"
                      " outside (0, 1]")
    for delta, later, earlier in (("delta_E_U", "neg_total_t2", "neg_total_t1"),
                                  ("delta_E_M", "neg_total_t3", "neg_total_t2")):
        if abs(record[delta] - (record[later] - record[earlier])) > TOLERANCE:
            faults.append(f"{label}: {delta} != {later} - {earlier}")
    return faults


def t1_shared_per_gamma(records: list[dict]) -> list[str]:
    """The t1 state depends only on gamma, so neg_total_t1 must agree across
    both protocols and all alphas at each gamma."""
    by_gamma: dict[float, list[float]] = {}
    for r in records:
        by_gamma.setdefault(r["gamma"], []).append(r["neg_total_t1"])
    return [f"gamma={g!r}: neg_total_t1 spread {max(v) - min(v):.3e}"
            for g, v in by_gamma.items() if max(v) - min(v) > TOLERANCE]


def oracle_agreement(oracle) -> list[str]:
    """The reference at gamma = 0 against the noiseless state vectors of the
    repository's test oracle, at every checkpoint and for all six inputs."""
    faults = []
    for kind in ("scrambling", "swap"):
        for alpha in (0.0, 0.37, 1.0):
            states = reference.checkpoint_states(kind, alpha, 0.0, dt=0.01)
            post, prob = reference.project(states[2])
            for i, (label, vec) in enumerate(reference.INPUTS):
                run = oracle.run(kind, alpha, np.asarray(vec))
                pure = [run["t1"], run["t2"], run["t3"], run["post"]]
                for name, rho, psi in zip(("t1", "t2", "t3", "post"),
                                          [s[i] for s in states] + [post[i]], pure):
                    err = np.max(np.abs(rho - np.outer(psi, psi.conj())))
                    if err > TOLERANCE:
                        faults.append(f"oracle {kind} alpha={alpha} {label} "
                                      f"{name}: max deviation {err:.3e}")
                if abs(prob[i] - run["prob"]) > TOLERANCE:
                    faults.append(f"oracle {kind} alpha={alpha} {label}: "
                                  f"probability {prob[i]!r} vs {run['prob']!r}")
            if alpha == 0.37:
                # one input suffices for the eigen-solver path
                run = oracle.run(kind, alpha, np.asarray(reference.INPUTS[0][1]))
                got = reference.total_negativity(states[1][0])
                want = oracle.pure_total_negativity(run["t2"])
                if abs(got - want) > 1e-8:
                    faults.append(f"oracle {kind}: total negativity at t2 "
                                  f"{got!r} vs {want!r}")
    return faults


def parse_sweep_csv(text: str) -> list[dict]:
    """The data rows of a sweep CSV."""
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not body or body[0] != ",".join(CSV_COLUMNS):
        raise ValueError("sweep CSV lacks its column line")
    rows = []
    for line in body[1:]:
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"sweep CSV row has {len(parts)} fields: {line!r}")
        row = dict(zip(CSV_COLUMNS, parts))
        for name in ("alpha", "gamma", "dt", *reference.FIELDS):
            row[name] = float(row[name]) if row[name] else math.nan
        rows.append(row)
    return rows


def sweep_rows(rows: list[dict], grid: list[tuple[str, float, float]],
               dt: float) -> list[str]:
    """Rows in grid order, with the run's settings and no error column."""
    faults = []
    if [(r["protocol"], r["alpha"], r["gamma"]) for r in rows] != grid:
        faults.append("sweep rows do not follow the requested grid")
    for r in rows:
        label = f"{r['protocol']} alpha={r['alpha']!r} gamma={r['gamma']!r}"
        if r["error"]:
            faults.append(f"{label}: error column {r['error']!r}")
        if (r["dt"], r["log_base"], r["rate_convention"]) != (dt, "2", "kraus"):
            faults.append(f"{label}: settings columns {r['dt']!r}, "
                          f"{r['log_base']!r}, {r['rate_convention']!r}")
    return faults


def fig7_panels(out_dir: str, rows: list[dict]) -> list[str]:
    """Each fig7 panel value equals the CSV row it comes from."""
    faults = []
    gammas = sorted({r["gamma"] for r in rows})
    for protocol in ("scrambling", "swap"):
        for metric in FIG7_METRICS:
            name = f"fig7_{metric}_{protocol}.csv"
            path = os.path.join(out_dir, name)
            if not os.path.exists(path):
                faults.append(f"missing panel {name}")
                continue
            with open(path) as fh:
                body = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
            want_head = "gamma," + ",".join(f"{metric}@alpha={a:.12g}"
                                            for a in FIG7_ALPHAS)
            if body[0] != want_head:
                faults.append(f"{name}: header {body[0]!r}")
            table = [[float(x) for x in ln.split(",")] for ln in body[1:]]
            if [t[0] for t in table] != gammas:
                faults.append(f"{name}: gamma column {[t[0] for t in table]}")
                continue
            source = {(r["alpha"], r["gamma"]): r[metric]
                      for r in rows if r["protocol"] == protocol}
            for t in table:
                for a, v in zip(FIG7_ALPHAS, t[1:]):
                    if source.get((a, t[0])) != v:
                        faults.append(f"{name}: alpha={a} gamma={t[0]!r} reads "
                                      f"{v!r}, CSV row {source.get((a, t[0]))!r}")
    return faults
