import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from teleportsim import cli, protocol, sweep
from teleportsim.evolution import EvolutionConfig
from teleportsim.metrics import average_over_inputs
from teleportsim.protocol import EncodingKind, PostselectionImpossibleError
from teleportsim.sweep import (ConfigError, SweepConfig, emit_figure_data,
                               grid_points, parse_config, run_sweep)

from conftest import with_schedule

FAST = "dt = 0.05\n"  # coarse step: sweep tests exercise plumbing, not accuracy


def small_config(**overrides):
    cfg = parse_config(
        FAST + "protocols = swap\nalpha_count = 2\ngamma_max = 0.04\n"
        "gamma_count = 2\n"
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def test_parse_config_defaults():
    cfg = parse_config("")
    assert cfg.protocols == [EncodingKind.SCRAMBLING, EncodingKind.SWAP]
    assert (cfg.alpha_min, cfg.alpha_max, cfg.alpha_count) == (0.0, 1.0, 51)
    assert (cfg.gamma_min, cfg.gamma_max, cfg.gamma_count) == (0.0, 0.06, 31)
    assert cfg.dt == 0.01
    assert cfg.log_base == 2.0
    assert cfg.rate_convention == "kraus"


def test_parse_config_gamma_spacing():
    cfg = parse_config("gamma_min = 0\ngamma_max = 0.06\ngamma_count = 4\n")
    assert np.allclose([g for _, _, g in grid_points(cfg)[:4]], [0, 0.02, 0.04, 0.06])


def test_parse_config_errors_name_the_problem():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("alpha_max = 1.5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("alpha_step = 0.1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("not a key value line\n")
    with pytest.raises(ConfigError, match="rate_convention"):
        parse_config("rate_convention = other\n")
    with pytest.raises(ConfigError, match="log_base"):
        parse_config("log_base = 10\n")
    with pytest.raises(ConfigError, match="dt"):
        parse_config("dt = -0.01\n")
    # the bounds' order is checked with their range, and the message says so
    for text, message in [
            ("gamma_min = -0.01\n", "gamma grid [-0.01, 0.06] must satisfy "
             "0 <= gamma_min <= gamma_max (fields gamma_min/gamma_max)"),
            ("gamma_min = 0.05\ngamma_max = 0.01\n", "gamma grid [0.05, 0.01] must "
             "satisfy 0 <= gamma_min <= gamma_max (fields gamma_min/gamma_max)"),
            ("alpha_min = 0.8\nalpha_max = 0.2\n", "alpha grid [0.8, 0.2] must satisfy "
             "0 <= alpha_min <= alpha_max <= 1 (fields alpha_min/alpha_max)")]:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text)


def test_each_config_key_is_a_sweep_config_field():
    """One parser per key, and the keys are SweepConfig's fields, so a new
    setting is one field and one parser entry."""
    assert set(sweep._PARSERS) == {f.name for f in dataclasses.fields(SweepConfig)}


@pytest.mark.parametrize("line, message", [
    ("rate_convention = other",
     "rate_convention must be kraus or lindblad, got 'other'"),
    ("dt = -0.01", "dt must be positive"),
    ("dt = 1e-5", "dt must be at least 1e-4"),
    ("alpha_count = 0", "grid counts must be positive (alpha_count/gamma_count)"),
    ("gamma_count = -3", "grid counts must be positive (alpha_count/gamma_count)"),
])
def test_single_value_errors_name_the_line(tmp_path, monkeypatch, capsys, line,
                                           message):
    with pytest.raises(ConfigError, match=re.escape(f"line 2: {message}")):
        parse_config(f"protocols = swap\n{line}\n")
    monkeypatch.setattr(cli, "run_sweep", None)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"protocols = swap\n{line}\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert f"ERROR config-invalid line 2: {message}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_the_first_faulty_line_is_reported():
    with pytest.raises(ConfigError, match=r"line 1: grid counts must be positive"):
        parse_config("alpha_count = 0\nalpha_step = 1\n")
    with pytest.raises(ConfigError, match=r"line 1: bad value for dt: 'x'"):
        parse_config("dt = x\ndt = 0.5\n")
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'alpha_step'"):
        parse_config("alpha_count = 3\nalpha_step = 1\nalpha_count = 0\n")


def test_grid_size_is_capped():
    """A grid above MAX_GRID_POINTS (protocols x alpha_count x gamma_count)
    is a ConfigError naming both counts, raised before any point is listed:
    alpha_count = 5100000, a typo for 51, lists 316,200,000 points, about
    1.3 TB at the 4,200 B per point the cap is derived from. A grid at the
    cap passes."""
    cap = sweep.MAX_GRID_POINTS
    with pytest.raises(ConfigError, match=re.escape(
            f"grid of {2 * 5100000 * 31} points exceeds MAX_GRID_POINTS = {cap} "
            f"(fields alpha_count/gamma_count)")):
        parse_config("alpha_count = 5100000\n")
    assert parse_config(f"gamma_count = 1\nalpha_count = {cap // 2}\n")
    with pytest.raises(ConfigError, match="alpha_count/gamma_count"):
        parse_config(f"gamma_count = 2\nalpha_count = {cap // 2}\n")


def test_parse_config_comments_and_values():
    cfg = parse_config(
        "# header comment\nprotocols = scrambling\nlog_base = e\n"
        "resume = true\noutput = my.csv\n"
    )
    assert cfg.protocols == [EncodingKind.SCRAMBLING]
    assert cfg.log_base == pytest.approx(np.e)
    assert cfg.resume is True
    assert cfg.output == "my.csv"


def test_grid_points_order_and_count():
    cfg = small_config()
    pts = grid_points(cfg)
    assert len(pts) == 1 * 2 * 2
    assert pts[0] == (EncodingKind.SWAP, 0.0, 0.0)
    assert pts[-1] == (EncodingKind.SWAP, 1.0, 0.04)


def test_run_sweep_shape_and_content(tmp_path, monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "1")
    out = str(tmp_path / "sweep.csv")
    rows = run_sweep(small_config(), out)
    assert len(rows) == 4
    text = open(out).read()
    assert text.startswith("# teleportation-protocol sweep")
    assert "protocol,alpha,gamma,fidelity_avg" in text
    last = rows[-1].split(",")
    assert last[0] == "swap" and float(last[1]) == 1.0
    # (swap, alpha=1, gamma=0) row: perfect teleportation
    perfect = [r for r in rows if r.startswith("swap,1,0,")]
    assert len(perfect) == 1
    vals = perfect[0].split(",")
    assert float(vals[3]) == pytest.approx(1, abs=1e-3)
    assert float(vals[4]) == pytest.approx(1, abs=1e-6)


def test_run_sweep_resume_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "1")
    cfg = small_config()
    full = str(tmp_path / "full.csv")
    run_sweep(cfg, full)
    full_bytes = open(full, "rb").read()
    # simulate a killed sweep: keep header plus the first two data rows
    partial = str(tmp_path / "resumed.csv")
    lines = full_bytes.decode().splitlines()
    with open(partial, "w") as fh:
        fh.write("\n".join(lines[:9]) + "\n")
    cfg.resume = True
    run_sweep(cfg, partial)
    assert open(partial, "rb").read() == full_bytes


def test_run_sweep_parallel_matches_serial(tmp_path, monkeypatch):
    cfg = small_config()
    monkeypatch.setenv("SIM_THREADS", "1")
    serial = str(tmp_path / "serial.csv")
    run_sweep(cfg, serial)
    monkeypatch.setenv("SIM_THREADS", "2")
    parallel = str(tmp_path / "parallel.csv")
    run_sweep(cfg, parallel)
    assert open(serial, "rb").read() == open(parallel, "rb").read()


def test_emit_fig7_panels(tmp_path, monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "2")
    cfg = parse_config(
        FAST + "alpha_count = 3\ngamma_max = 0.04\ngamma_count = 2\n"
    )
    rows = run_sweep(cfg, str(tmp_path / "sweep.csv"))
    paths = emit_figure_data(rows, "fig7", str(tmp_path), cfg)
    assert len(paths) == 4
    for p in paths:
        lines = [l for l in open(p).read().splitlines()
                 if not l.startswith("#")]
        assert lines[0].startswith("gamma,")
        assert "alpha=0.5" in lines[0]
        assert len(lines) == 1 + 2  # header + one row per gamma


def test_emit_figure_missing_coverage(tmp_path, monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "1")
    cfg = small_config()
    rows = run_sweep(cfg, str(tmp_path / "sweep.csv"))
    with pytest.raises(ValueError, match="missing grid coverage"):
        emit_figure_data(rows, "fig2", str(tmp_path), cfg)
    with pytest.raises(ValueError, match="figure"):
        emit_figure_data(rows, "fig9", str(tmp_path), cfg)


def test_cli_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "2")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        FAST + "alpha_count = 3\ngamma_count = 2\ngamma_max = 0.04\n"
    )
    out = tmp_path / "out"
    code = cli.main(["--config", str(cfg_path), "--figure", "fig7",
                     "--out", str(out)])
    assert code == 0
    assert (out / "sweep.csv").exists()
    assert (out / "fig7_fidelity_avg_swap.csv").exists()
    # --resume reuses every row, though the config has no resume key
    first = (out / "sweep.csv").read_bytes()
    monkeypatch.setenv("SIM_THREADS", "1")
    computed = []
    monkeypatch.setattr(sweep, "_compute_row", computed.append)
    assert cli.main(["--config", str(cfg_path), "--figure", "fig7",
                     "--out", str(out), "--resume"]) == 0
    assert computed == []
    assert (out / "sweep.csv").read_bytes() == first


def test_cli_error_paths(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "missing.cfg")]) == 2
    assert "ERROR config-unreadable" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("alpha_max = 2\n")
    assert cli.main(["--config", str(bad)]) == 2
    assert "ERROR config-invalid" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_malformed_sim_threads_is_a_clear_error(tmp_path, monkeypatch, capsys,
                                                value):
    monkeypatch.setenv("SIM_THREADS", value)
    out = tmp_path / "sweep.csv"
    with pytest.raises(ConfigError, match="SIM_THREADS must be a positive integer"):
        run_sweep(small_config(), str(out))
    assert not out.exists()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST)
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert "SIM_THREADS" in capsys.readouterr().err


def test_pool_workers_run_one_blas_thread_unless_set(monkeypatch):
    for var in sweep._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    with sweep._ordered_map(2) as ordered_map:
        seen = list(ordered_map(os.getenv, sweep._BLAS_THREAD_VARS * 2))
    assert seen == ["1", "1", "3"] * 2
    # the parent's environment is restored once the pool is gone
    assert [os.getenv(v) for v in sweep._BLAS_THREAD_VARS] == [None, None, "3"]


def one_point_config(dt):
    return parse_config(
        f"dt = {dt}\nprotocols = swap\nalpha_min = 1\nalpha_count = 1\n"
        "gamma_min = 0.02\ngamma_max = 0.02\ngamma_count = 1\n"
    )


def test_resume_recomputes_rows_of_other_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "1")
    fresh = str(tmp_path / "fresh.csv")
    run_sweep(one_point_config(0.25), fresh)
    out = str(tmp_path / "sweep.csv")
    run_sweep(one_point_config(0.5), out)
    cfg = one_point_config(0.25)
    cfg.resume = True
    rows = run_sweep(cfg, out)
    assert rows[0].split(",")[13] == "0.25"
    assert open(out, "rb").read() == open(fresh, "rb").read()


def test_resume_recomputes_error_rows_and_skips_a_cut_off_row(tmp_path,
                                                               monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "1")
    cfg = small_config()
    full = str(tmp_path / "full.csv")
    run_sweep(cfg, full)
    full_bytes = open(full, "rb").read()
    lines = full_bytes.decode().splitlines()
    failed = lines[7].split(",")
    failed[3:13] = [""] * 10
    failed[-1] = "RuntimeError:boom"
    resumed = str(tmp_path / "resumed.csv")
    with open(resumed, "w") as fh:
        # an error row, a good row, and a row cut off before its newline
        fh.write("\n".join(lines[:7] + [",".join(failed), lines[8]]) + "\n")
        fh.write(lines[9][:-1])
    cfg.resume = True
    computed = []
    real = sweep._compute_row
    monkeypatch.setattr(sweep, "_compute_row",
                        lambda args: computed.append(args[0]) or real(args))
    run_sweep(cfg, resumed)
    assert open(resumed, "rb").read() == full_bytes
    assert len(computed) == 3  # all but the complete error-free row


def test_error_text_stays_in_its_field(tmp_path, monkeypatch):
    """An error message with commas and line breaks leaves one line of
    len(COLUMNS) fields per grid point."""
    monkeypatch.setenv("SIM_THREADS", "1")
    real = sweep.average_over_inputs

    def failing_first(kind, alpha, gamma, *args, **kwargs):
        if (alpha, gamma) == (0.0, 0.0):
            raise ValueError("segments on sites (2, 3) and (3, 4) overlap\r\n"
                             "second line")
        return real(kind, alpha, gamma, *args, **kwargs)

    monkeypatch.setattr(sweep, "average_over_inputs", failing_first)
    cfg = small_config()
    out = str(tmp_path / "sweep.csv")
    run_sweep(cfg, out)
    lines = [l for l in open(out).read().splitlines() if not l.startswith("#")]
    assert lines[0] == ",".join(sweep.COLUMNS)
    assert len(lines[1:]) == len(grid_points(cfg))
    assert all(len(l.split(",")) == len(sweep.COLUMNS) for l in lines[1:])
    assert lines[1].endswith(",ValueError:segments on sites (2; 3) and "
                             "(3; 4) overlap second line")


def test_an_interrupted_resume_keeps_the_reusable_rows(tmp_path, monkeypatch):
    """A resume cut off mid-row leaves every reusable row to the next one:
    the rows it found on disk, and those it computed."""
    monkeypatch.setenv("SIM_THREADS", "1")
    cfg = parse_config("dt = 0.5\nprotocols = swap\nalpha_count = 3\n"
                       "gamma_count = 1\n")
    fresh = str(tmp_path / "fresh.csv")
    run_sweep(cfg, fresh)
    real = sweep.average_over_inputs
    stages = []  # the alphas each sweep below computes

    def patched(fail=(), stop=()):
        stages.append([])

        def average(kind, alpha, *args, **kwargs):
            stages[-1].append(alpha)
            if alpha in stop:
                raise KeyboardInterrupt
            if alpha in fail:
                raise RuntimeError("boom")
            return real(kind, alpha, *args, **kwargs)
        return average

    out = str(tmp_path / "sweep.csv")
    # the rows at alpha 0 and 1 fail, so a resume computes them again
    monkeypatch.setattr(sweep, "average_over_inputs", patched(fail={0.0, 1.0}))
    run_sweep(cfg, out)
    cfg.resume = True
    for stop in ({0.0}, {1.0}):
        monkeypatch.setattr(sweep, "average_over_inputs", patched(stop=stop))
        with pytest.raises(KeyboardInterrupt):
            run_sweep(cfg, out)
    monkeypatch.setattr(sweep, "average_over_inputs", patched())
    run_sweep(cfg, out)
    # cut off in the first row, then in the last; the row at alpha 0.5 is
    # never computed again, nor the row at 0 once computed
    assert stages == [[0.0, 0.5, 1.0], [0.0], [0.0, 1.0], [1.0]]
    assert open(out, "rb").read() == open(fresh, "rb").read()
    assert not os.path.exists(out + ".resume")


def test_cli_reports_failed_rows(tmp_path, monkeypatch, capsys):
    """Rows whose point raised are counted on stderr and exit with status 3;
    a sweep without them exits 0."""
    monkeypatch.setenv("SIM_THREADS", "1")
    real = sweep.average_over_inputs

    def failing_swap(kind, *args, **kwargs):
        if kind is EncodingKind.SWAP:
            raise RuntimeError("boom")
        return real(kind, *args, **kwargs)

    monkeypatch.setattr(sweep, "average_over_inputs", failing_swap)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST + "alpha_count = 3\ngamma_count = 1\n")
    argv = ["--config", str(cfg_path), "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "3 of 6 rows failed" in capsys.readouterr().err
    cfg_path.write_text(FAST + "protocols = scrambling\nalpha_count = 3\n"
                        "gamma_count = 1\n")
    assert cli.main(argv) == 0
    assert "failed" not in capsys.readouterr().err


# qubit 1 swapped onto qubit 3, then the rotations on (3, 4), with no Bell
# pair there
SKIPS_Z_MINUS = ("GATE PSWAP SITES 1,3 START 2 DUR 4 PARAM 1\n"
                 "GATE CNOT SITES 3,4 START 10 DUR 1 PARAM 1\n"
                 "GATE HAD SITES 3 START 11 DUR 1 PARAM 1\n")


def test_an_input_that_cannot_herald_is_skipped(tmp_path, monkeypatch, capsys):
    """Input Z- swapped onto qubit 3 meets qubit 4 in |0>: the CNOT makes
    |11> and the HAD leaves no |00> amplitude, so without dephasing its
    outcome is impossible. The averages leave it out (X+-, Y+- herald with
    probability 1/4 and Z+ with 1/2, a mean of 0.3); the row keeps its
    metrics and names it, and simulate does not count it as a failed row.
    Dephasing spoils the swap: at gamma = 0.03 every input heralds."""
    with_schedule(monkeypatch, SKIPS_Z_MINUS)
    cfg = EvolutionConfig(0.25)
    rec = average_over_inputs(EncodingKind.SWAP, 0.5, 0.0, cfg)
    assert rec.failed_inputs == ["Z-"]
    assert rec.success_prob_avg == pytest.approx(0.3, abs=1e-12)
    assert average_over_inputs(EncodingKind.SWAP, 0.5, 0.03, cfg).failed_inputs == []
    monkeypatch.setenv("SIM_THREADS", "1")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("dt = 0.25\nprotocols = swap\nalpha_min = 0.5\n"
                        "alpha_count = 1\ngamma_count = 1\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert "failed" not in capsys.readouterr().err
    row = (tmp_path / "sweep.csv").read_text().splitlines()[-1]
    assert row.startswith("swap,0.5,0,")
    assert row.endswith(",skipped_inputs:Z-")
    fields = row.split(",")
    assert all(fields[3:13])
    assert float(fields[12]) == pytest.approx(0.3, abs=1e-12)


def test_no_input_that_heralds_is_an_error_row(tmp_path, monkeypatch, capsys):
    """With no heralded input there is nothing to average: average_over_inputs
    raises, and simulate writes that as the row's error and exits 3."""
    def impossible(block, pair):
        raise PostselectionImpossibleError(f"heralded outcome on pair {pair} "
                                           f"has probability 0")

    monkeypatch.setattr(protocol, "project_pair", impossible)
    message = "heralded outcome impossible for every input state"
    with pytest.raises(PostselectionImpossibleError, match=f"^{message}$"):
        average_over_inputs(EncodingKind.SWAP, 0.5, 0.0, EvolutionConfig(0.25))
    monkeypatch.setenv("SIM_THREADS", "1")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("dt = 0.25\nprotocols = swap\nalpha_count = 1\n"
                        "gamma_count = 1\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert "ERROR rows-failed 1 of 1 rows failed" in capsys.readouterr().err
    row = (tmp_path / "sweep.csv").read_text().splitlines()[-1]
    assert row.startswith("swap,0,0,")
    assert row.endswith(f",PostselectionImpossibleError:{message}")
    assert not any(row.split(",")[3:13])


def test_a_heralded_block_that_is_not_psd_is_an_error_row(tmp_path, monkeypatch,
                                                          capsys):
    """A traceless diag(2, -2, 0, ...) added to the |00> block of A's image
    at t3 keeps every heralding probability but leaves a negative eigenvalue
    near -2: project_pair's PSD check fails, and simulate writes that as the
    row's error and exits 3."""
    real = protocol.pair_block

    def skewed(matrix, pair):
        blocks = real(matrix, pair)
        blocks[0, 0, 0] += 2
        blocks[0, 1, 1] -= 2
        return blocks

    monkeypatch.setattr(protocol, "pair_block", skewed)
    monkeypatch.setenv("SIM_THREADS", "1")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("dt = 0.25\nprotocols = swap\nalpha_count = 1\n"
                        "gamma_count = 1\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 3
    assert "ERROR rows-failed 1 of 1 rows failed" in capsys.readouterr().err
    row = (tmp_path / "sweep.csv").read_text().splitlines()[-1]
    assert re.search(r",InvariantError:heralded block on pair \(3; 4\) is not "
                     r"PSD: its smallest eigenvalue is -\d", row)
    assert not any(row.split(",")[3:13])


# bench/run.py's sweep-grid gamma for seeds 1, 8, 13, 18 and 30, whose SWAP
# heralded states have the most negative round-off eigenvalues, about -1.6e-16
@pytest.mark.parametrize("gamma", [0.01239, 0.017469, 0.019245, 0.01497, 0.034649])
def test_the_benchmark_sweep_grid_runs_clean(tmp_path, monkeypatch, gamma):
    """The benchmark's sweep-grid settings: fig7 over both protocols, alpha
    0, 0.5 and 1, one gamma and dt 0.04; every row is error-free."""
    monkeypatch.setenv("SIM_THREADS", "1")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"protocols = scrambling,swap\nalpha_min = 0.0\n"
                        f"alpha_max = 1.0\nalpha_count = 3\ngamma_min = {gamma}\n"
                        f"gamma_max = {gamma}\ngamma_count = 1\ndt = 0.04\n"
                        f"output = sweep.csv\n")
    argv = ["--config", str(cfg_path), "--figure", "fig7", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    rows = [line.split(",") for line in
            (tmp_path / "sweep.csv").read_text().splitlines()
            if line.startswith(("scrambling,", "swap,"))]
    assert len(rows) == 6
    assert [row[sweep.COLUMNS.index("error")] for row in rows] == [""] * 6


def test_rows_are_appended_once_each(tmp_path, monkeypatch):
    monkeypatch.setenv("SIM_THREADS", "1")
    real = sweep._write_rows
    for alpha_count in (1, 3):
        calls, written = [], []

        def counting(path, lines, mode="a"):
            before = os.path.getsize(path) if mode == "a" else 0
            real(path, lines, mode)
            calls.append(path)
            written.append(os.path.getsize(path) - before)

        monkeypatch.setattr(sweep, "_write_rows", counting)
        cfg = small_config(alpha_count=alpha_count)
        out = str(tmp_path / f"sweep{alpha_count}.csv")
        rows = run_sweep(cfg, out)
        data = open(out).read()
        # the same bytes as a single write of the header and all rows
        assert data == "\n".join(sweep._header_lines(cfg) + rows) + "\n"
        assert len(calls) == len(rows) + 1
        assert sum(written) == len(data)


def test_off_grid_dt_is_rejected_before_the_sweep(tmp_path, capsys):
    """dt = 1e-320 makes t / dt overflow, which is off the grid too, not an
    OverflowError; the config checks stop it first, at the dt bound."""
    for dt, message in (
            ("0.3", "dt=0.3 does not fit the scrambling schedule: "
                    "time 2.0 is off the step grid"),
            ("1e-320", "line 1: dt must be at least 1e-4")):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(f"dt = {dt}\n")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(f"dt = {dt}\nalpha_count = 2\ngamma_count = 2\n")
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
        assert f"ERROR config-invalid {message}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()
    with pytest.raises(ValueError, match="time 2.0 is not on the dt=1e-320 step grid"):
        EvolutionConfig(1e-320).steps_between(0.0, 2.0)
    for dt in (1e-4, 0.01, 0.04, 0.25, 0.5):
        assert parse_config(f"dt = {dt}\n").dt == dt


@pytest.mark.parametrize("key, value, message", [
    ("log_base", 10, "log_base: log_base must be 2 or e"),
    ("alpha_count", 0, "alpha_count: grid counts must be positive"),
    ("dt", 0.3, "dt=0.3 does not fit the swap schedule: time 2.0 is off"),
    ("protocols", [], "protocols: protocols must name a protocol"),
    ("alpha_count", 5100000, "grid of 10200000 points exceeds MAX_GRID_POINTS"),
], ids=["log_base", "alpha_count", "dt", "protocols", "grid_size"])
def test_run_sweep_rejects_a_config_parse_config_would(tmp_path, monkeypatch,
                                                        key, value, message):
    """A SweepConfig built in code gets parse_config's checks before any file
    is written. Unchecked, log_base 10 labelled its rows log_base=e,
    alpha_count 0 and an empty protocol list wrote a header with no rows, and
    dt 0.3 wrote one error row per point."""
    monkeypatch.setenv("SIM_THREADS", "1")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        run_sweep(small_config(**{key: value}), str(tmp_path / "sweep.csv"))
    assert not list(tmp_path.iterdir())


WRONG_TYPES = [("resume", "no"), ("gamma_count", True), ("alpha_count", 2.5),
               ("protocols", ["swap"]), ("log_base", "e"), ("dt", "0.1"),
               ("alpha_min", "0"), ("output", 5)]


@pytest.mark.parametrize("key, value", WRONG_TYPES,
                         ids=[f"{k}={v!r}" for k, v in WRONG_TYPES])
def test_run_sweep_type_checks_a_config_built_in_code(tmp_path, monkeypatch,
                                                       key, value):
    """A SweepConfig field set in code to a value of the wrong type is a
    ConfigError naming the field, before any file is written. Unchecked,
    resume "no" resumed, gamma_count True ran one gamma, and the others
    raised a TypeError or AttributeError from deep in the sweep. An int
    where a float is expected is a number, and passes."""
    monkeypatch.setenv("SIM_THREADS", "1")
    with pytest.raises(ConfigError, match=f"^{key}: "):
        run_sweep(small_config(**{key: value}), str(tmp_path / "sweep.csv"))
    assert not list(tmp_path.iterdir())
    sweep._check_config(small_config(alpha_min=0, gamma_max=1))


def test_cli_checks_figure_coverage_before_the_sweep(tmp_path, monkeypatch,
                                                     capsys):
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST + "protocols = scrambling\nalpha_count = 1\n"
                        "gamma_max = 0.04\ngamma_count = 2\n")
    code = cli.main(["--config", str(cfg_path), "--figure", "fig2",
                     "--out", str(tmp_path)])
    assert code == 1
    assert ("ERROR figure-data missing grid coverage: protocol=scrambling "
            "gamma=0.038") in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_malformed_resume_value_is_rejected(tmp_path, capsys):
    for value, want in (("TRUE", True), ("yes", True), ("1", True),
                        ("False", False), ("no", False), ("0", False)):
        assert parse_config(f"resume = {value}\n").resume is want
    with pytest.raises(ConfigError, match=r"line 2: bad value for resume"):
        parse_config("dt = 0.05\nresume = ture\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST + "resume = ture\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "ERROR config-invalid line 2: bad value for resume" in (
        capsys.readouterr().err)
    assert not (tmp_path / "sweep.csv").exists()


def test_repeated_protocol_is_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="line 1: protocols lists a protocol"):
        parse_config("protocols = scrambling, swap, Scrambling\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST + "protocols = swap, swap\nalpha_count = 1\n"
                        "gamma_count = 1\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "ERROR config-invalid line 2: protocols lists a protocol twice" in (
        capsys.readouterr().err)
    assert not (tmp_path / "sweep.csv").exists()


def test_repeated_key_is_rejected(tmp_path, capsys):
    """A key given twice is an error naming both lines, not a silent last-wins."""
    with pytest.raises(ConfigError, match=r"line 3: key 'dt' repeats line 1"):
        parse_config("dt = 0.25\nprotocols = swap\ndt = 0.04\n")
    with pytest.raises(ConfigError, match=r"line 2: key 'alpha_count' repeats line 1"):
        parse_config("alpha_count = 3\nalpha_count = 1\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("dt = 0.25\nprotocols = swap\nalpha_count = 1\n"
                        "gamma_count = 1\ndt = 0.04\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "ERROR config-invalid line 5: key 'dt' repeats line 1" in (
        capsys.readouterr().err)
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("line", ["dt = nan", "gamma_max = inf",
                                  "alpha_max = nan", "log_base = nan"])
def test_non_finite_numbers_are_rejected(tmp_path, capsys, line):
    with pytest.raises(ConfigError, match=r"line 2: "):
        parse_config(f"protocols = swap\n{line}\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"protocols = swap\n{line}\nalpha_count = 1\n"
                        "gamma_count = 1\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "ERROR config-invalid line 2: " in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_empty_output_is_rejected(tmp_path, capsys):
    with pytest.raises(ConfigError, match="line 2: output must name a file"):
        parse_config("dt = 0.5\noutput =\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("dt = 0.5\noutput =\nalpha_count = 1\ngamma_count = 1\n")
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert ("ERROR config-invalid line 2: output must name a file"
            in capsys.readouterr().err)
    assert not list(tmp_path.rglob("*.csv"))


def test_output_path_is_kept_under_out(tmp_path, monkeypatch):
    """The CLI writes <--out>/<output>, directories included, the same file
    run_sweep writes at <output> when called as a library."""
    text = ("protocols = swap\ndt = 0.5\nalpha_count = 1\ngamma_count = 1\n"
            "output = sub/run.csv\n")
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert not (tmp_path / "out" / "run.csv").exists()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    run_sweep(parse_config(text))
    assert ((tmp_path / "out" / "sub" / "run.csv").read_bytes()
            == (tmp_path / "sub" / "run.csv").read_bytes())


def test_cli_runs_without_scipy(tmp_path):
    """numpy is the package's only runtime dependency: a sweep run in a fresh
    interpreter imports no scipy module. A serial sweep also imports no
    concurrent.futures module, which only the worker pool needs."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sweep.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("protocols = scrambling\ndt = 0.5\nalpha_count = 1\n"
                        "gamma_count = 1\n")
    script = ("import sys\n"
              "from teleportsim import cli\n"
              "code = cli.main(sys.argv[1:])\n"
              "for top in ('scipy', 'concurrent.futures'):\n"
              "    print(sorted(m for m in sys.modules\n"
              "                 if m == top or m.startswith(top + '.')))\n"
              "sys.exit(code)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "--config", str(cfg_path),
         "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.csv").exists()
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]
