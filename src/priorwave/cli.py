"""Command line entry point: run scenarios, dump beampatterns, validate outputs."""

from __future__ import annotations

import argparse
import sys

from .estimation import AngularGrid
from .scenario import (
    emit_beampattern,
    read_waveform,
    run_scenario,
    validate_output_dir,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="priorwave",
        description="Design and evaluate MIMO radar waveforms from an angular prior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario config")
    run.add_argument("--config", required=True, help="scenario file (YAML)")
    run.add_argument("--out", default=None, help="output directory override")
    run.add_argument("--seed", type=int, default=None, help="seed override")
    run.add_argument(
        "--paper-literal",
        action="store_true",
        help="grid-only MAP argmax, without the refine",
    )

    bp = sub.add_parser("beampattern", help="dump the beampattern of a waveform table")
    bp.add_argument("--waveform", required=True, help="waveform.csv produced by run")
    bp.add_argument("--out", required=True, help="output table path")
    bp.add_argument("--grid-size", type=int, default=361)
    bp.add_argument("--spacing", type=float, default=0.5)

    val = sub.add_parser("validate", help="schema-check a run output directory")
    val.add_argument("directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return run_scenario(
            args.config,
            out=args.out,
            seed=args.seed,
            paper_literal=args.paper_literal,
        )
    if args.command == "beampattern":
        if args.grid_size < 2:
            print(f"argument error: --grid-size must be at least 2, got {args.grid_size}")
            return 1
        if not 0 < args.spacing < float("inf"):
            print(f"argument error: --spacing must be positive and finite, got {args.spacing}")
            return 1
        try:
            x = read_waveform(args.waveform)
        except (OSError, ValueError) as exc:
            print(f"waveform error: {exc}")
            return 1
        try:
            emit_beampattern(x @ x.conj().T, AngularGrid(args.grid_size), args.out, args.spacing)
        except OSError as exc:
            print(f"output error: {exc}")
            return 1
        return 0
    problems = validate_output_dir(args.directory)
    for p in problems:
        print(p)
    if not problems:
        print("ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
