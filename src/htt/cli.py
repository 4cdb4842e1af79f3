"""Command line entry point.

    htt <experiment> [--config PATH] [--seed S] [--out DIR] [--threads T]
    htt plot FILE... [--out SVG] [--separate] [--title TEXT]

Experiments: esd, ladder, limit, properties, equidist.  The config
file is flat ``key = value`` text (see README); command line flags override
it.  Exit status: 0 when every hard check passes, 1 on check failures, 2 on
configuration errors (an unusable ``--out`` too) and refused runs (``RunRefused``).
"""

from __future__ import annotations

import argparse
import sys

from .experiments import EXPERIMENTS, load_config, run_experiment
from .plots import emit_plots
from .sampler import RunRefused

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="htt",
        description="Heavy-tailed Toeplitz spectra: experiments and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="base RNG seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for the Monte Carlo limit measures "
                            "of limit and properties; the other experiments run serially. "
                            "Workers are forked and inherit BLAS's threads: set "
                            "OPENBLAS_NUM_THREADS=1, or they can run slower than one process")
    p = sub.add_parser("plot", help="render histogram CSVs to SVG")
    p.add_argument("files", nargs="*", help="histogram CSV files")
    p.add_argument("--out", default=None,
                   help="output SVG path (overlay mode; not with --separate)")
    p.add_argument("--separate", action="store_true", help="one SVG per input")
    p.add_argument("--title", default="", help="plot title")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "plot":
        return _run_plot(args)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    try:
        config = load_config(args.config, args.command, overrides)
    except (ValueError, TypeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        report = run_experiment(config)
    except RunRefused as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    report.print_lines()
    return EXIT_OK if report.passed else EXIT_CHECK_FAILURE


def _run_plot(args) -> int:
    if not args.files:
        print("config error: no histogram CSVs given", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        written = emit_plots(args.files, out_path=args.out,
                             overlay=not args.separate, title=args.title)
    except (ValueError, OSError) as exc:
        print(f"plot error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
