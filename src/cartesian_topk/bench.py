"""Benchmark harness: input generation, dispatch, validation, CSV rows.

Synthetic inputs come from NumPy's PCG64 generator, so a (distribution,
m, n, seed) quadruple reproduces bit-identical arrays on any platform.
Memory behaviour is reported through internal counters (peak fringe
size, values generated, soft-heap corruption) rather than an external
profiler.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ContractViolation, InputParseError, ParameterError
from .selectors import (DEFAULT_GUARD, RunStats, SelectionResult, brute_force_select,
                        fast_soft_tree_select, soft_tensor_select, soft_tree_select,
                        sort_tensor_select, sort_tree_select)

ALGORITHMS = ("soft-tensor", "soft-tree", "sort-tensor", "sort-tree", "fast-soft-tree")
DISTRIBUTIONS = ("uniform", "exponential", "file")
GUARD_ENV_VAR = "CARTESIAN_TOPK_GUARD"

_TOKEN = re.compile(r"[^\s,]+")


_RUNNERS: dict[str, Callable] = {
    "soft-tensor": lambda arrays, k, alpha, stats: soft_tensor_select(arrays, k, stats=stats),
    "soft-tree": lambda arrays, k, alpha, stats: soft_tree_select(arrays, k, stats=stats),
    "sort-tensor": lambda arrays, k, alpha, stats: sort_tensor_select(arrays, k, stats=stats),
    "sort-tree": lambda arrays, k, alpha, stats: sort_tree_select(arrays, k, stats=stats),
    "fast-soft-tree": lambda arrays, k, alpha, stats: fast_soft_tree_select(
        arrays, k, alpha, stats=stats),
}


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
    alpha: float = 1.1
    distribution: str = "uniform"
    input_file: str | None = None
    seed: int = 0
    replicates: int = 1
    validate: bool = False
    stats: bool = False
    output: str | None = None
    guard: int = field(default_factory=resolve_guard)

    def algorithm_list(self) -> list[str]:
        if self.algorithm == "all":
            return list(ALGORITHMS) + ["brute-force"]
        return [self.algorithm]

    def check(self) -> None:
        if self.algorithm != "all" and self.algorithm != "brute-force" \
                and self.algorithm not in ALGORITHMS:
            raise ParameterError(f"unknown algorithm {self.algorithm!r}")
        if self.distribution not in DISTRIBUTIONS:
            raise ParameterError(f"unknown distribution {self.distribution!r}")
        if self.distribution == "file" and not self.input_file:
            raise ParameterError("distribution 'file' requires --input-file")
        if self.k < 1:
            raise ParameterError(f"k must be positive, got {self.k}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.replicates < 1:
            raise ParameterError(f"replicates must be positive, got {self.replicates}")
        if self.distribution != "file" and (self.m < 1 or self.n < 1):
            raise ParameterError("m and n must be positive")
        needs_alpha = self.algorithm in ("fast-soft-tree", "all")
        if needs_alpha and not 1.0 < self.alpha < 2.0:
            raise ParameterError(f"alpha must lie in (1, 2), got {self.alpha}")


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


@dataclass
class BenchReport:
    rows: list[dict]
    violations: list[str]
    max_level: int


def run(config: BenchConfig) -> BenchReport:
    """Execute the configured benchmark; one row per (algorithm, replicate)."""
    config.check()
    rows: list[dict] = []
    violations: list[str] = []
    max_level = -1

    for rep in range(config.replicates):
        rep_seed = config.seed + rep
        if config.distribution == "file":
            arrays = ingest_file(config.input_file)
        else:
            arrays = generate_inputs(config.distribution, config.m, config.n, rep_seed)
        total = math.prod(len(a) for a in arrays)
        if config.k > total:
            raise ParameterError(f"k={config.k} exceeds the {total} tensor cells")

        oracle: SelectionResult | None = None
        validating = config.validate and total <= config.guard
        if validating:
            oracle = brute_force_select(arrays, config.k, guard=config.guard)

        algorithms = config.algorithm_list()
        if config.algorithm == "all" and total > config.guard:
            algorithms.remove("brute-force")  # oracle row infeasible at this size

        for algorithm in algorithms:
            stats = RunStats()
            start = time.perf_counter_ns()
            if algorithm == "brute-force":
                result = brute_force_select(arrays, config.k, guard=config.guard)
            else:
                result = _RUNNERS[algorithm](arrays, config.k, config.alpha, stats)
            wall = time.perf_counter_ns() - start

            if config.validate and not validating:
                verdict = "skipped"
            elif validating:
                ok = sorted(result.values) == oracle.values
                verdict = "ok" if ok else "fail"
                if not ok:
                    violations.append(
                        f"{algorithm} disagrees with brute force "
                        f"(m={len(arrays)}, k={config.k}, seed={rep_seed})")
            else:
                verdict = ""

            row = {
                "algorithm": algorithm,
                "m": len(arrays),
                "n": max(len(a) for a in arrays),
                "k": config.k,
                "alpha": config.alpha,
                "distribution": config.distribution,
                "seed": rep_seed,
                "replicate": rep,
                "wall_time_ns": wall,
                "validated": verdict,
                "values_generated": stats.values_generated,
                "corrupted_count": stats.corrupted_count,
                "fringe_peak": stats.fringe_peak,
            }
            if config.stats:
                for level, pops in stats.pops_per_level.items():
                    row[f"pops_level_{level}"] = pops
                    if level > max_level:
                        max_level = level
            rows.append(row)
    return BenchReport(rows=rows, violations=violations, max_level=max_level)


_BASE_COLUMNS = ("algorithm", "m", "n", "k", "alpha", "distribution", "seed",
                 "replicate", "wall_time_ns", "validated", "values_generated",
                 "corrupted_count", "fringe_peak")


def csv_header(max_level: int) -> list[str]:
    header = list(_BASE_COLUMNS)
    header.extend(f"pops_level_{level}" for level in range(max_level + 1))
    return header


def _format_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")  # round-trips exactly
    return "" if value is None else str(value)


def render_csv(report: BenchReport) -> str:
    header = csv_header(report.max_level)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in report.rows:
        writer.writerow([_format_cell(row.get(col)) for col in header])
    return buf.getvalue()


GNUPLOT_TEMPLATE = """# gnuplot script generated by cartesian-topk
set datafile separator ','
set logscale xy
set xlabel 'k'
set ylabel 'wall time (ns)'
plot for [alg in "{algorithms}"] '{csv}' every ::1 \\
    using 4:(strcol(1) eq alg ? column(9) : NaN) with linespoints title alg
"""


def write_gnuplot_script(path: str, csv_path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(GNUPLOT_TEMPLATE.format(algorithms=" ".join(ALGORITHMS), csv=csv_path))
