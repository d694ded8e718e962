"""(alpha, gamma) grid sweeps over both protocols, with resumable
delimiter-separated output and per-figure data emission.
"""

from __future__ import annotations

import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import gates
from .evolution import EvolutionConfig
from .metrics import MetricsRecord, average_over_inputs
from .protocol import EncodingKind

GRID_MATCH_ATOL = 1e-9
# the most grid points a sweep takes. Per point a sweep holds about 4,200 B
# (tracemalloc over 10^5 points, CPython 3.11): the point 120, its resume
# key 385, its task 64, its pool future 1,888, its row 259 and its
# emit_figure_data field dict 1,391. The cap keeps that under 1 GiB, so a
# mistyped count fails here, not in memory.
MAX_GRID_POINTS = 2 ** 30 // 4_200

COLUMNS = (
    "protocol", "alpha", "gamma", "fidelity_avg", "purity_avg",
    "purity_of_mean", "neg_cut34", "neg_total_t1", "neg_total_t2",
    "neg_total_t3", "delta_E_U", "delta_E_M", "success_prob_avg",
    "dt", "log_base", "rate_convention", "error",
)


@dataclass
class SweepConfig:
    """Sweep settings; each field is the config key of the same name."""

    protocols: list[EncodingKind] = field(
        default_factory=lambda: [EncodingKind.SCRAMBLING, EncodingKind.SWAP]
    )
    alpha_min: float = 0.0
    alpha_max: float = 1.0
    alpha_count: int = 51
    gamma_min: float = 0.0
    gamma_max: float = 0.06
    gamma_count: int = 31
    dt: float = 0.01
    log_base: float = 2.0
    rate_convention: str = "kraus"
    output: str = "sweep.csv"
    resume: bool = False


class ConfigError(ValueError):
    """Malformed sweep configuration."""


def _protocols(value):
    return [EncodingKind(name.strip().lower()) for name in value.split(",")]


def _log_base(value):
    return float(np.e) if value.lower() == "e" else float(value)


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_FINITE = (lambda x: isinstance(x, numbers.Real) and type(x) is not bool
           and np.isfinite(x), "expected a finite number, got {value!r}")
_COUNT = [(lambda n: isinstance(n, numbers.Integral) and type(n) is not bool,
           "expected an integer, got {value!r}"),
          (lambda n: n >= 1, "grid counts must be positive (alpha_count/gamma_count)")]
_KINDS = (lambda kinds: isinstance(kinds, list)
          and set(map(type, kinds)) <= {EncodingKind},
          "protocols must be a list of EncodingKind, got {value!r}")
# each config key's value parser, and the (ok, message) checks its parsed
# value must pass, a message showing the value as {value!r}; the keys are
# SweepConfig's fields, and the first check also holds a field set in code
# to its type
_PARSERS = {
    "protocols": (_protocols, [_KINDS, (len, "protocols must name a protocol"),
                               (lambda kinds: len(set(kinds)) == len(kinds),
                                "protocols lists a protocol twice: {value!r}")]),
    "alpha_min": (float, [_FINITE]), "alpha_max": (float, [_FINITE]),
    "alpha_count": (int, _COUNT),
    "gamma_min": (float, [_FINITE]), "gamma_max": (float, [_FINITE]),
    "gamma_count": (int, _COUNT),
    "dt": (float, [_FINITE, (lambda dt: dt > 0, "dt must be positive"),
                   (lambda dt: dt >= 1e-4, "dt must be at least 1e-4")]),
    "log_base": (_log_base, [_FINITE,
                             (lambda base: base == 2 or abs(base - np.e) <= 1e-12,
                              "log_base must be 2 or e")]),
    "rate_convention": (str, [(lambda name: name in ("kraus", "lindblad"),
                               "rate_convention must be kraus or lindblad, "
                               "got {value!r}")]),
    "output": (str, [(lambda path: isinstance(path, str) and os.path.basename(path),
                      "output must name a file, got {value!r}")]),
    "resume": (lambda value: _FLAGS[value.lower()], [
        (lambda flag: isinstance(flag, bool), "resume must be true or false")]),
}


def _check_value(key: str, value, shown, where: str) -> None:
    """Raise ConfigError(where: message) unless the value of key passes its
    checks; the message shows `shown`."""
    for ok, message in _PARSERS[key][1]:
        if not ok(value):
            raise ConfigError(f"{where}: " + message.format(value=shown))


def parse_config(text: str) -> SweepConfig:
    """Parse `key = value` configuration text; unknown keys are errors, and
    of several faulty lines the first is reported."""
    cfg = SweepConfig()
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            parsed = _PARSERS[key][0](value)
        except Exception:
            raise ConfigError(f"line {lineno}: bad value for {key}: {value!r}")
        _check_value(key, parsed, value, f"line {lineno}")
        setattr(cfg, key, parsed)
    _check_config(cfg)
    return cfg


def _check_config(cfg: SweepConfig) -> None:
    """Raise ConfigError unless cfg passes every check parse_config makes:
    each field's, then those that span two keys (the alpha and gamma bounds
    in order, the grid size, dt on each selected schedule's step grid)."""
    for key in _PARSERS:
        _check_value(key, getattr(cfg, key), getattr(cfg, key), key)
    if not (0 <= cfg.alpha_min <= cfg.alpha_max <= 1):
        raise ConfigError(
            f"alpha grid [{cfg.alpha_min}, {cfg.alpha_max}] must satisfy "
            f"0 <= alpha_min <= alpha_max <= 1 (fields alpha_min/alpha_max)"
        )
    if not (0 <= cfg.gamma_min <= cfg.gamma_max):
        raise ConfigError(
            f"gamma grid [{cfg.gamma_min}, {cfg.gamma_max}] must satisfy "
            f"0 <= gamma_min <= gamma_max (fields gamma_min/gamma_max)"
        )
    size = len(cfg.protocols) * cfg.alpha_count * cfg.gamma_count
    if size > MAX_GRID_POINTS:
        raise ConfigError(
            f"grid of {size} points exceeds MAX_GRID_POINTS = {MAX_GRID_POINTS} "
            f"(fields alpha_count/gamma_count)"
        )
    step = EvolutionConfig(cfg.dt)
    for kind in cfg.protocols:
        parsed = gates.load_schedule(kind.value)
        times = [parsed.t1, parsed.t2, parsed.t3]
        times += [t for e in parsed.entries for t in (e.start, e.start + e.duration)]
        off = [t for t in times if not step.on_grid(t)]
        if off:
            raise ConfigError(f"dt={cfg.dt} does not fit the {kind.value} "
                              f"schedule: time {off[0]} is off the step grid")


def grid_points(cfg: SweepConfig) -> list[tuple[EncodingKind, float, float]]:
    """Row order of the sweep: protocol-major, then alpha, then gamma."""
    return [
        (kind, float(a), float(g))
        for kind in cfg.protocols
        for a in np.linspace(cfg.alpha_min, cfg.alpha_max, cfg.alpha_count)
        for g in np.linspace(cfg.gamma_min, cfg.gamma_max, cfg.gamma_count)
    ]


def _format_row(rec: MetricsRecord | None, point, cfg: SweepConfig,
                error: str = "") -> str:
    kind, alpha, gamma = point
    # the metric columns are named after the MetricsRecord fields they hold
    metrics = COLUMNS[3:13]
    if rec is None:
        vals = [""] * len(metrics)
    else:
        vals = [f"{getattr(rec, c):.12g}" for c in metrics]
        if rec.failed_inputs:
            error = "skipped_inputs:" + "+".join(rec.failed_inputs)
    return ",".join(
        [kind.value, f"{alpha:.12g}", f"{gamma:.12g}", *vals,
         f"{cfg.dt:.12g}", _base_label(cfg), cfg.rate_convention, error]
    )


def _compute_row(args) -> str:
    point, cfg = args
    kind, alpha, gamma = point
    try:
        rec = average_over_inputs(
            kind, alpha, gamma, EvolutionConfig(cfg.dt),
            rate_convention=cfg.rate_convention, log_base=cfg.log_base,
        )
        return _format_row(rec, point, cfg)
    except Exception as exc:
        # the error text stays one field of one line
        error = f"{type(exc).__name__}:{exc}".replace(",", ";")
        return _format_row(None, point, cfg, error=" ".join(error.splitlines()))


def _base_label(cfg: SweepConfig) -> str:
    return "2" if cfg.log_base == 2 else "e"


def _header_lines(cfg: SweepConfig) -> list[str]:
    return [
        "# teleportation-protocol sweep",
        f"# protocols={','.join(k.value for k in cfg.protocols)}",
        f"# alpha_grid={cfg.alpha_min},{cfg.alpha_max},{cfg.alpha_count}",
        f"# gamma_grid={cfg.gamma_min},{cfg.gamma_max},{cfg.gamma_count}",
        f"# dt={cfg.dt} log_base={_base_label(cfg)} "
        f"rate_convention={cfg.rate_convention}",
        "# alpha, gamma dimensionless; gamma in units of inverse gate time",
        ",".join(COLUMNS),
    ]


def worker_count() -> int:
    """Worker processes for a sweep: the CPU count, or SIM_THREADS if that is
    set and smaller."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("SIM_THREADS")
    if not env:
        return cpus
    if not env.strip().isdecimal() or int(env) < 1:
        raise ConfigError(f"SIM_THREADS must be a positive integer, got {env!r}")
    return min(int(env), cpus)


_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _ordered_map(nworkers: int):
    """A lazy map with results in input order: the builtin one, or for
    nworkers > 1 a pool's. Each worker runs one BLAS/OpenMP thread unless the
    user set those counts, as a threaded BLAS per worker oversubscribes the
    CPUs; the libraries read the variables when they load, hence spawn."""
    if nworkers <= 1:
        yield map
        return
    # imported here, so a serial sweep does not pay for loading them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    unset = [v for v in _BLAS_THREAD_VARS if v not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        with ProcessPoolExecutor(
                nworkers, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool.map
    finally:
        for v in unset:
            os.environ.pop(v, None)


# a row is reused on resume only if it was computed with the same settings
_KEY_COLUMNS = tuple(COLUMNS.index(c) for c in (
    "protocol", "alpha", "gamma", "dt", "log_base", "rate_convention"))


def _row_key(row: str) -> tuple[str, ...]:
    parts = row.split(",")
    return tuple(parts[i] for i in _KEY_COLUMNS)


def _reusable_rows(path: str) -> dict[tuple[str, ...], str]:
    """Complete, error-free data rows of an earlier sweep file, by key."""
    done: dict[tuple[str, ...], str] = {}
    if not os.path.exists(path):
        return done
    with open(path) as fh:
        for line in fh:
            # a line cut off mid-write has no newline; the column header's
            # last field reads "error"
            parts = line[:-1].split(",")
            if line.endswith("\n") and len(parts) == len(COLUMNS) and not parts[-1]:
                done[_row_key(line[:-1])] = line[:-1]
    return done


def run_sweep(cfg: SweepConfig, out_path: str | None = None) -> list[str]:
    """Evaluate the full grid, writing one row per point in fixed order.

    The header is written first and each row is appended, in grid order, as
    soon as it is known, so an interrupted sweep leaves a prefix of the grid.
    With cfg.resume, rows of the existing file are reused verbatim when their
    protocol, alpha, gamma, dt, log_base and rate_convention match a grid
    point and their error column is empty; all other points are computed.
    Until the last row is written, the reusable rows are also kept in
    `<out_path>.resume`, which the next resume reads too, so an interrupted
    resume loses none of them. Returns the data rows. A cfg that
    parse_config would reject raises ConfigError before any file is written.
    """
    _check_config(cfg)
    out_path = out_path or cfg.output
    points = grid_points(cfg)
    aside = out_path + ".resume"
    done = {}
    if cfg.resume:
        done = {**_reusable_rows(aside), **_reusable_rows(out_path)}
        # replaced whole, so the old rows are on disk at every moment
        _write_rows(aside + ".tmp", list(done.values()), mode="w")
        os.replace(aside + ".tmp", aside)
    keys = [_row_key(_format_row(None, p, cfg)) for p in points]
    pending = [(p, cfg) for p, k in zip(points, keys) if k not in done]
    nworkers = min(worker_count(), len(pending))
    _write_rows(out_path, _header_lines(cfg), mode="w")
    rows = []
    with _ordered_map(nworkers) as ordered_map:
        computed = ordered_map(_compute_row, pending)
        for key in keys:
            row = done[key] if key in done else next(computed)
            _write_rows(out_path, [row])
            rows.append(row)
    if cfg.resume:
        os.remove(aside)
    return rows


def _write_rows(out_path: str, lines: list[str], mode: str = "a") -> None:
    """Write the lines with one write; closing the file flushes it."""
    with open(out_path, mode) as fh:
        fh.write("".join(line + "\n" for line in lines))


# each figure's (protocols, metrics, fixed axis, cuts): a panel per protocol
# and metric, plotting the metric against the free axis, a column per cut
_CUT_GAMMAS = (0.0, 0.038, 0.06)
_CUT_ALPHAS = (0.0, 0.5, 1.0)
_FIGURES = {
    "fig2": (("scrambling",), ("fidelity_avg", "purity_avg", "neg_cut34"),
             "gamma", _CUT_GAMMAS),
    "fig3": (("swap",), ("fidelity_avg", "purity_avg", "neg_cut34"),
             "gamma", _CUT_GAMMAS),
    "fig4": (("scrambling", "swap"), ("delta_E_U", "delta_E_M"),
             "gamma", _CUT_GAMMAS),
    "fig7": (("scrambling", "swap"), ("fidelity_avg", "purity_avg"),
             "alpha", _CUT_ALPHAS),
}
FIGURE_IDS = tuple(_FIGURES)


def _figure_cuts(points, figure_id: str) -> dict[str, list[list[int]]]:
    """Each protocol's grid indices per cut the figure plots; raises
    ValueError for an unknown figure or a cut the grid points miss."""
    if figure_id not in _FIGURES:
        raise ValueError(f"figure must be one of {FIGURE_IDS}")
    protocols, _, fixed, cuts = _FIGURES[figure_id]
    axis = 1 if fixed == "alpha" else 2
    indices = {protocol: [] for protocol in protocols}
    for protocol in protocols:
        for cut in cuts:
            hits = [i for i, point in enumerate(points)
                    if point[0].value == protocol
                    and abs(point[axis] - cut) <= GRID_MATCH_ATOL]
            if not hits:
                raise ValueError(
                    f"missing grid coverage: protocol={protocol} {fixed}={cut}")
            indices[protocol].append(hits)
    return indices


def check_figure_coverage(cfg: SweepConfig, figure_id: str) -> None:
    """Raise ValueError if the grid of cfg misses a cut the figure plots."""
    _figure_cuts(grid_points(cfg), figure_id)


def emit_figure_data(rows: list[str], figure_id: str, out_dir: str,
                     cfg: SweepConfig) -> list[str]:
    """Write a plot-ready panel file per protocol and metric of one figure,
    cut from the grid-ordered rows of run_sweep(cfg); an empty field reads
    nan. Returns the file paths. Raises ValueError if the grid misses a cut
    the figure plots or the rows are not one per point."""
    points = grid_points(cfg)
    indices = _figure_cuts(points, figure_id)
    if len(rows) != len(points):
        raise ValueError(f"{len(rows)} rows for {len(points)} grid points")
    protocols, metrics, fixed, cuts = _FIGURES[figure_id]
    free = "gamma" if fixed == "alpha" else "alpha"
    fields = [dict(zip(COLUMNS, row.split(","))) for row in rows]
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for protocol in protocols:
        # per free-axis value, its row in each cut
        table = list(zip(*([fields[i] for i in hits] for hits in indices[protocol])))
        suffix = f"_{protocol}" if len(protocols) > 1 else ""
        for metric in metrics:
            lines = _header_lines(cfg)[:6] + [
                ",".join([free] + [f"{metric}@{fixed}={c:.12g}" for c in cuts])]
            lines += [",".join([point[0][free]] + [p[metric] or "nan" for p in point])
                      for point in table]
            paths.append(os.path.join(out_dir, f"{figure_id}_{metric}{suffix}.csv"))
            with open(paths[-1], "w") as fh:
                fh.write("\n".join(lines) + "\n")
    return paths
