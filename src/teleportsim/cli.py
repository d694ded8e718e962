"""Command-line front end for grid sweeps and figure-data emission."""

from __future__ import annotations

import argparse
import os
import sys

from .sweep import (COLUMNS, ConfigError, FIGURE_IDS, check_figure_coverage,
                    emit_figure_data, parse_config, run_sweep)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simulate",
        description="Sweep the noisy teleportation protocols over an "
                    "(alpha, gamma) grid and emit plot-ready data.",
    )
    parser.add_argument("--config", required=True,
                        help="path to the key = value sweep configuration")
    parser.add_argument("--figure", choices=FIGURE_IDS,
                        help="also emit panel data files for this figure")
    parser.add_argument("--out", default=".",
                        help="output directory (default: current directory)")
    parser.add_argument("--resume", action="store_true",
                        help="reuse rows already present in the output file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        print(f"ERROR config-unreadable {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"ERROR config-invalid {exc}", file=sys.stderr)
        return 2
    if args.resume:
        cfg.resume = True
    if args.figure:
        try:
            check_figure_coverage(cfg, args.figure)
        except ValueError as exc:
            print(f"ERROR figure-data {exc}", file=sys.stderr)
            return 1
    out_path = os.path.join(args.out, cfg.output)
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    try:
        rows = run_sweep(cfg, out_path)
    except Exception as exc:
        print(f"ERROR sweep-failed {type(exc).__name__} {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(rows)} rows to {out_path}")
    if args.figure:
        try:
            paths = emit_figure_data(rows, args.figure, args.out, cfg)
        except ValueError as exc:
            print(f"ERROR figure-data {exc}", file=sys.stderr)
            return 1
        for p in paths:
            print(f"wrote {p}")
    # a row that skipped inputs still holds the averages over the others
    failed = sum(not row.split(",")[COLUMNS.index("fidelity_avg")] for row in rows)
    if failed:
        print(f"ERROR rows-failed {failed} of {len(rows)} rows failed", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
