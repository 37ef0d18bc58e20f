"""Command-line entry point.

Exit codes: 0 success, 1 usage error or unwritable output, 2 input parse
error or unreadable input file, 3 oracle validation failure.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from .bench import ALGORITHMS, BenchConfig, render_csv, run, write_gnuplot_script
from .errors import ContractViolation, GuardError, InputParseError, ParameterError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cartesian-topk",
        description="Select the k smallest values of the Cartesian sum of m arrays "
                    "and record instrumentation as CSV.")
    parser.add_argument("--algorithm", default="all",
                        choices=list(ALGORITHMS) + ["brute-force", "all"])
    parser.add_argument("--m", type=int, default=4, help="number of arrays")
    parser.add_argument("--n", type=int, default=8, help="length of each generated array")
    parser.add_argument("--k", type=int, default=8, help="selection size")
    parser.add_argument("--alpha", type=float, default=1.1,
                        help="layer-growth rank for fast-soft-tree, in (1, 2)")
    parser.add_argument("--distribution", default="uniform",
                        choices=["uniform", "exponential", "file"])
    parser.add_argument("--input-file", default=None,
                        help="text file with one array per line (distribution=file)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replicates", type=int, default=1)
    parser.add_argument("--validate", action="store_true",
                        help="check every algorithm against the brute-force oracle")
    parser.add_argument("--stats", action="store_true",
                        help="include per-level pop columns in the CSV")
    parser.add_argument("--output", default=None, help="CSV path (default: stdout)")
    parser.add_argument("--emit-gnuplot", default=None, metavar="PATH",
                        help="also write a gnuplot script for the CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.emit_gnuplot and not ns.output:
            raise _UsageError("--emit-gnuplot requires --output")
        config = BenchConfig(
            algorithm=ns.algorithm, m=ns.m, n=ns.n, k=ns.k, alpha=ns.alpha,
            distribution=ns.distribution, input_file=ns.input_file, seed=ns.seed,
            replicates=ns.replicates, validate=ns.validate, stats=ns.stats,
            output=ns.output)
    except (_UsageError, ParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # Every output is opened before the run, so a bad path costs no run time.
    path = config.output
    try:
        with open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
            if ns.emit_gnuplot:
                path = ns.emit_gnuplot
                write_gnuplot_script(path, config.output)
                path = config.output
            try:
                report = run(config)
            except InputParseError as exc:
                print(f"parse error: {exc}", file=sys.stderr)
                return EXIT_PARSE
            except (OSError, UnicodeDecodeError) as exc:  # only --input-file is read
                reason = getattr(exc, "strerror", None) or exc
                print(f"input error: {config.input_file}: {reason}", file=sys.stderr)
                return EXIT_PARSE
            except (ParameterError, ContractViolation, GuardError) as exc:
                print(f"usage error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            out.write(render_csv(report))
    except OSError as exc:
        print(f"output error: {path or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE

    if report.violations:
        for line in report.violations:
            print(f"validation failure: {line}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
