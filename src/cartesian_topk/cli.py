"""Command-line entry point.

Exit codes: 0 success, 1 usage error, unwritable output or a run that
runs out of memory, 2 input parse error or unreadable input file, 3
oracle validation failure, 130 a run interrupted (``KeyboardInterrupt``,
as from Ctrl-C).  Each error prints one stderr line, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import MISSING, fields

from .bench import ALGORITHMS, DISTRIBUTIONS, BenchConfig, render_csv, run, write_gnuplot_script
from .errors import ContractViolation, GuardError, InputParseError, ParameterError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_INTERRUPTED = 130  # the shell's code for a process ended by SIGINT

# The BenchConfig fields that flags set, all but the guard; a flag not given is None.
_SETTINGS = [f for f in fields(BenchConfig) if f.default is not MISSING]
# Fields that size generated inputs: one given with distribution 'file',
# which would ignore it, is refused.
_SIZES = ("m", "n")


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
    parser.add_argument("--algorithm", choices=[*ALGORITHMS, "all"])
    parser.add_argument("--m", type=int, help="number of arrays")
    parser.add_argument("--n", type=int, help="length of each generated array")
    parser.add_argument("--k", type=int, help="selection size")
    parser.add_argument("--alpha", type=float, help="layer-growth rank for fast-soft-tree, in (1, 2)")
    parser.add_argument("--distribution", choices=DISTRIBUTIONS)
    parser.add_argument("--input-file", help="text file with one array per line (distribution=file)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--validate", action="store_true",
                        help="check every algorithm against the brute-force oracle")
    parser.add_argument("--stats", action="store_true",
                        help="include per-level pop columns in the CSV")
    parser.add_argument("--output", help="CSV path (default: stdout)")
    parser.add_argument("--emit-gnuplot", metavar="PATH",
                        help="also write a gnuplot script for the CSV")
    return parser


def _same_file(a: str | None, b: str | None) -> bool:
    return bool(a and b) and os.path.realpath(a) == os.path.realpath(b)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        for flag, path in (("--output", ns.output), ("--emit-gnuplot", ns.emit_gnuplot)):
            if path == "":  # not a path, and not the same as leaving the flag out
                raise _UsageError(f"{flag} needs a path, got an empty string")
        if ns.emit_gnuplot and not ns.output:
            raise _UsageError("--emit-gnuplot requires --output")
        if _same_file(ns.emit_gnuplot, ns.output):
            raise _UsageError("--emit-gnuplot and --output name the same file")
        for flag, path in (("--output", ns.output), ("--emit-gnuplot", ns.emit_gnuplot)):
            if _same_file(path, ns.input_file):  # opening it would truncate the input
                raise _UsageError(f"{flag} and --input-file name the same file")
        sizes = [f"--{name}" for name in _SIZES if getattr(ns, name) is not None]
        if sizes and ns.distribution == "file":
            raise _UsageError(f"{' and '.join(sizes)} size generated inputs; "
                              f"distribution 'file' reads its arrays from --input-file")
        config = BenchConfig(**{f.name: getattr(ns, f.name) for f in _SETTINGS
                                if getattr(ns, f.name) is not None})
        config.check()  # before any output is opened (truncated)
    except (_UsageError, ParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # Every output is opened before the run, so a bad path costs no run time.
    path = ns.output
    try:
        with open(path, "w", newline="", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
            if ns.emit_gnuplot:
                path = ns.emit_gnuplot
                write_gnuplot_script(path, ns.output)
                path = ns.output
            try:
                rows = run(config)
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
            except MemoryError:
                # Reported below: leaving this block frees the run's frames,
                # which the live traceback holds here, before anything prints.
                rows = None
            except KeyboardInterrupt:
                print("interrupted", file=sys.stderr)
                return EXIT_INTERRUPTED
            if rows is not None:
                out.write(render_csv(rows))
    except OSError as exc:
        print(f"output error: {path or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    if rows is None:
        print("memory error: the run needs more memory than is available; "
              "lower --k, --m or --n", file=sys.stderr)
        return EXIT_USAGE

    failed = [row for row in rows if row["validated"] == "fail"]
    for row in failed:
        print(f"validation failure: {row['algorithm']} disagrees with brute force "
              f"(m={row['m']}, k={row['k']}, seed={row['seed']})", file=sys.stderr)
    return EXIT_VALIDATION if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
