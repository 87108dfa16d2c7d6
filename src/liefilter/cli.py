"""Command-line entry point for the attitude-fusion experiment sweep."""

from __future__ import annotations

import argparse
import logging
import sys

from .errors import ExclusionOverflowError
from .experiments import (
    ExperimentConfig,
    default_tau_grid,
    emit_csv,
    emit_gnuplot,
    run_sweep,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="experiment",
        description="Sweep the observation-noise scale tau and compare the "
                    "plain Kalman update against the group-mean-corrected one.")
    parser.add_argument("--model", choices=["euclidean", "group"], required=True,
                        help="observation model: gravity/magnetometer vectors "
                             "or a direct noisy rotation")
    parser.add_argument("--n", type=int, default=10_000,
                        help="samples per tau point (default 10000)")
    parser.add_argument("--tau-min", type=float, default=1e-3)
    parser.add_argument("--tau-max", type=float, default=1.0)
    parser.add_argument("--tau-points", type=int, default=13)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="results.csv",
                        help="output CSV path (default results.csv)")
    parser.add_argument("--emit-gnuplot", action="store_true",
                        help="also write <out>.gp plotting the CSV")
    parser.add_argument("--timing", action="store_true",
                        help="record wall-clock times in the CSV; breaks "
                             "byte-level reproducibility of the output")
    parser.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = ExperimentConfig(
            model=args.model,
            sample_count=args.n,
            tau_grid=default_tau_grid(args.tau_min, args.tau_max, args.tau_points),
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))                 # exits with status 2
    try:
        records = run_sweep(cfg)
    except ExclusionOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        emit_csv(records, args.out, include_timing=args.timing)
        if args.emit_gnuplot:
            emit_gnuplot(args.out, args.out + ".gp")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(records)} tau points to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
