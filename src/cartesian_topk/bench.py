"""Benchmark harness: input generation, dispatch, validation, CSV rows.

Synthetic inputs come from NumPy's PCG64 generator, so a (distribution,
m, n, seed) quadruple reproduces bit-identical arrays on any platform.
Memory behaviour is reported through internal counters (peak fringe
size, values generated, soft-heap corruption) rather than an external
profiler.  ``run`` returns the rows as dicts; ``render_csv`` writes them.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation, InputParseError, ParameterError
from .loh import LayerSchedule
from .selectors import (DEFAULT_ALPHA, DEFAULT_GUARD, SELECTORS, RunStats, SelectionResult,
                        brute_force_select)

ALGORITHMS = (*SELECTORS, "brute-force")
DISTRIBUTIONS = ("uniform", "exponential", "file")
GUARD_ENV_VAR = "CARTESIAN_TOPK_GUARD"

_TOKEN = re.compile(r"[^\s,]+")


def resolve_guard() -> int:
    raw = os.environ.get(GUARD_ENV_VAR)
    if raw is None:
        return DEFAULT_GUARD
    try:
        guard = int(raw)
    except ValueError as exc:
        raise ParameterError(f"{GUARD_ENV_VAR} must be an integer, got {raw!r}") from exc
    if guard < 1:
        raise ParameterError(f"{GUARD_ENV_VAR} must be positive, got {guard}")
    return guard


@dataclass
class BenchConfig:
    algorithm: str = "all"
    m: int = 4
    n: int = 8
    k: int = 8
    alpha: float = DEFAULT_ALPHA
    distribution: str = "uniform"
    input_file: str | None = None
    seed: int = 0
    replicates: int = 1
    validate: bool = False
    stats: bool = False
    guard: int = field(default_factory=resolve_guard)

    def check(self) -> None:
        if self.algorithm not in (*ALGORITHMS, "all"):
            raise ParameterError(f"unknown algorithm {self.algorithm!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ParameterError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "file" and not self.input_file:
            raise ParameterError("distribution 'file' requires --input-file")
        if self.input_file is not None and self.distribution != "file":
            raise ParameterError(f"--input-file is read only with distribution 'file', "
                                 f"not {self.distribution!r}")
        if self.k < 1:
            raise ParameterError(f"k must be positive, got {self.k}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.replicates < 1:
            raise ParameterError(f"replicates must be positive, got {self.replicates}")
        if self.distribution != "file" and (self.m < 1 or self.n < 1):
            raise ParameterError("m and n must be positive")
        if self.algorithm in ("fast-soft-tree", "all"):
            LayerSchedule(self.alpha, 1)  # the library's alpha check, before any run


def generate_inputs(distribution: str, m: int, n: int, seed: int) -> list[list[float]]:
    """Deterministic synthetic arrays from NumPy PCG64 (row-major draws)."""
    if m < 1 or n < 1:
        raise ContractViolation("m and n must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    if distribution not in ("uniform", "exponential"):
        raise ParameterError(f"cannot generate distribution {distribution!r}")
    try:
        data = rng.random((m, n)) if distribution == "uniform" else rng.exponential(1.0, (m, n))
    except (ValueError, MemoryError) as exc:  # an m x n array NumPy cannot allocate
        raise ContractViolation(f"cannot generate {m} x {n} values: {exc}") from None
    return [row.tolist() for row in data]


def ingest_file(path: str) -> list[list[float]]:
    """One array per line; values split on commas or whitespace."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    arrays: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row: list[float] = []
        for match in _TOKEN.finditer(line):
            token = match.group()
            try:
                value = float(token)
            except ValueError:
                raise InputParseError(f"cannot parse {token!r} as a number",
                                      line=lineno, column=match.start() + 1) from None
            if not math.isfinite(value):
                raise InputParseError(f"non-finite value {token!r}",
                                      line=lineno, column=match.start() + 1)
            row.append(value)
        if row:
            arrays.append(row)
    if not arrays:
        raise InputParseError("input file contains no values", line=1)
    return arrays


_BASE_COLUMNS = ("algorithm", "m", "n", "k", "alpha", "distribution", "seed",
                 "replicate", "wall_time_ns", "validated", "values_generated",
                 "corrupted_count", "fringe_peak")


def run(config: BenchConfig) -> list[dict]:
    """Execute the configured benchmark; one row per (algorithm, replicate).

    Every algorithm of a replicate is timed before any is validated.  The
    brute-force row, when there is one, is the oracle for the others, so
    the oracle runs at most once per replicate.
    """
    config.check()
    rows: list[dict] = []
    # A file is read once; every replicate runs on the same arrays.
    arrays = ingest_file(config.input_file) if config.distribution == "file" else None

    for rep in range(config.replicates):
        rep_seed = config.seed + rep
        if config.distribution != "file":
            arrays = generate_inputs(config.distribution, config.m, config.n, rep_seed)
        total = math.prod(len(a) for a in arrays)
        if config.k > total:
            raise ParameterError(f"k={config.k} exceeds the {total} tensor cells")
        feasible = total <= config.guard  # else the oracle would raise GuardError
        algorithms = (config.algorithm,)
        if config.algorithm == "all":  # with the oracle row only where the guard admits it
            algorithms = ALGORITHMS if feasible else tuple(SELECTORS)

        results: dict[str, SelectionResult] = {}
        for algorithm in algorithms:
            stats = RunStats()
            keywords = {"alpha": config.alpha} if algorithm == "fast-soft-tree" else {}
            start = time.perf_counter_ns()
            if algorithm == "brute-force":
                result = brute_force_select(arrays, config.k, guard=config.guard)
            else:  # looked up per call, so a patched registry entry is what runs
                result = SELECTORS[algorithm](arrays, config.k, stats=stats, **keywords)
            wall = time.perf_counter_ns() - start
            results[algorithm] = result
            row = dict(zip(_BASE_COLUMNS, (
                algorithm, len(arrays), max(len(a) for a in arrays), config.k, config.alpha,
                config.distribution, rep_seed, rep, wall, "", stats.values_generated,
                stats.corrupted_count, stats.fringe_peak)))
            if config.stats:
                row.update((f"pops_level_{level}", pops)
                           for level, pops in stats.pops_per_level.items())
            rows.append(row)

        if config.validate:
            oracle = results.get("brute-force")
            if oracle is None and feasible:
                oracle = brute_force_select(arrays, config.k, guard=config.guard)
            for row, result in zip(rows[-len(results):], results.values()):
                row["validated"] = ("skipped" if oracle is None
                                    else "ok" if result.values == oracle.values else "fail")
    return rows


def csv_header(max_level: int) -> list[str]:
    header = list(_BASE_COLUMNS)
    header.extend(f"pops_level_{level}" for level in range(max_level + 1))
    return header


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")  # round-trips exactly
    return "" if value is None else str(value)


def render_csv(rows: list[dict]) -> str:
    # A row holds the base columns, then pops_level_0.. down to its tree's deepest level.
    levels = max(map(len, rows), default=len(_BASE_COLUMNS)) - len(_BASE_COLUMNS)
    header = csv_header(levels - 1)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(row.get(col)) for col in header])
    return buf.getvalue()


GNUPLOT_TEMPLATE = """# gnuplot script generated by cartesian-topk
set datafile separator ','
set logscale xy
set xlabel 'k'
set ylabel 'wall time (ns)'
plot for [alg in "{algorithms}"] '{csv}' every ::1 \\
    using {k}:(strcol({algorithm}) eq alg ? column({wall_time_ns}) : NaN) with linespoints title alg
"""


def write_gnuplot_script(path: str, csv_path: str) -> None:
    csv_path = csv_path.replace("'", "''")  # a quote inside gnuplot's single quotes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(GNUPLOT_TEMPLATE.format(algorithms=" ".join(SELECTORS), csv=csv_path,
                                         **{c: i for i, c in enumerate(_BASE_COLUMNS, 1)}))
