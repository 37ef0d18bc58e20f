"""Closed-loop latency benchmark of the five cartesian_topk selectors.

Run from the repository root:

    python3 perfbench/run.py --workload paper-m64 --seed 1 --seconds 30 --trace 0

A run is split over WORKERS fresh interpreters started one after another, so
that no single process's memory layout decides the result; their samples are
pooled.  Before each worker, SETUP_PROBES more interpreters only set up and
exit, and ``setup_s`` is the median over all of them.  Each worker is one caller in a closed loop without threads: each
select call starts after the previous one has returned.  The selectors are
interleaved per input, with their order rotated each round, and garbage is
collected before every timed call (the collector stays enabled during it).
Every call is checked against the exact reference in ``reference.py``,
outside the timed region.

``--trace 0`` times every call next to the same call of ``frozen_v0``, the
selectors as they were when the benchmark was defined, on the same input,
alternating which goes first.  On a shared host the speed of the machine
drifts by up to a third over minutes, more for some selectors than for
others; the ratio of the two adjacent calls cancels that drift and also the
cost differences between inputs.  Its median per selector, with set-up time and
peak RSS, are the end-to-end metrics.  The median latency and the highest
percentile that has at least ten samples beyond it are printed as well, but
they move with the machine.  ``--trace 1`` alternates untraced and traced
calls and prints the per-layer metrics of ``layers.py``.  Human-readable
lines come first; the last line is one JSON object.  The exit code is 1 when
any call failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import reference
from layers import LayerTracer, call_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "cartesian_topk"

SELECTORS = ("soft_tensor", "soft_tree", "sort_tensor", "sort_tree", "fast_soft_tree")
ALPHA = 1.1  # fast_soft_tree runs with the package's default epsilon
WORKERS = 3  # measuring interpreters per run, started one after another
SETUP_PROBES = 2  # interpreters that only set up, started before each worker; setup_s is
                  # the median over every interpreter's set-up
WORKER_SLACK_S = 40  # a worker's allowance beyond its share of --seconds
WARMUP_INPUT = 0  # input seed of the warm-up calls, fixed so set-up time does not vary by --seed
WARMUP_SIZE = 64  # n and k of the set-up warm-up input
TREE_LEVELS = 3  # tree depths 0..2, which every workload has (m >= 4)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


@dataclass(frozen=True)
class Workload:
    m: int
    n: int
    k: int
    values: str  # "exponential" or "uniform" from generate_inputs, or "ties"


WORKLOADS = {
    # The paper's case: 65,536 input values against k = 512.  The input
    # boundary, leaf lohify and split_at dominate; fast_soft_tree reads under
    # 2% of its leaf values.
    "paper-m64": Workload(64, 1024, 512, "exponential"),
    # k = 8n: per-axis truncation does nothing and every leaf value is used,
    # so soft-heap work dominates and boundary or leaf changes should not show.
    "deep-k": Workload(4, 2048, 16384, "uniform"),
    # float64 ndarrays holding the integers 0..7: arithmetic runs on np.float64
    # scalars and heavy ties multiply sort_tree's pops and fringe.
    "ties-ndarray": Workload(8, 256, 4096, "ties"),
}

END_TO_END_BASE = [("setup_s", "s"), ("peak_rss_mb", "MB")]
V0_PACKAGE = "frozen_v0"

_COMMON = ["selectors.self_ns", "selectors.values_generated", "selectors.fringe_peak",
           "select1d.require_finite.ns", "select1d.require_finite.values"]
_SOFT_HEAP_USERS = ["select1d.self_ns", "select1d.select_k.ns", "select1d.pool_per_k",
                    "soft_heap.self_ns", "soft_heap.insert.calls", "soft_heap.insert.ns",
                    "soft_heap.extract_min.calls", "soft_heap.extract_min.ns",
                    "soft_heap.corrupted_ratio", "soft_heap.peak"]
LAYER_METRICS = {
    "soft_tensor": _COMMON + _SOFT_HEAP_USERS,
    "soft_tree": _COMMON + _SOFT_HEAP_USERS + ["pairwise.soft_select_pairwise.self_ns"],
    "sort_tensor": _COMMON,
    "sort_tree": _COMMON + [f"pops_level_{d}" for d in range(TREE_LEVELS)],
    "fast_soft_tree": _COMMON + _SOFT_HEAP_USERS + [
        "loh.self_ns", "loh.lohify.ns", "loh.lohify.values", "loh.leaf_use_ratio",
        "select1d.split_at.ns", "select1d.split_smallest.ns",
        "pairwise.self_ns", "pairwise.generate_next_layer.self_ns",
        "pairwise.concatenation_select.ns", "pairwise.proposed", "pairwise.processed",
        "pairwise.parked", "pairwise.pops",
    ] + [f"generated_level_{d}" for d in range(TREE_LEVELS)],
}
# Their work counters depend on the module-global pivot RNG in select1d, so
# repeated calls on one input differ; the range shows by how much.
RNG_DEPENDENT = ("soft_tree", "fast_soft_tree")
DEEP_LEVELS = {"sort_tree": "pops_level_", "fast_soft_tree": "generated_level_"}
SETUP_PARTS = ("setup.start_ns", "setup.import_ns", "setup.generate_ns", "setup.warmup_ns")


def unit_of(name: str) -> str:
    if name.endswith("ns"):
        return "ns"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "frac", "per_k", "rel_v0")):
        return "ratio"
    return "count"


def end_to_end_units() -> dict[str, str]:
    units = {f"{sel}.p50_rel_v0": "ratio" for sel in SELECTORS}
    units.update(END_TO_END_BASE)
    return units


def per_layer_units() -> dict[str, str]:
    names = [f"{sel}.{metric}" for sel in SELECTORS for metric in LAYER_METRICS[sel]]
    names += [f"{sel}.trace.overhead_frac" for sel in SELECTORS]
    names += [f"{sel}.selectors.values_generated.range" for sel in RNG_DEPENDENT]
    names += list(SETUP_PARTS)
    return {name: unit_of(name) for name in names}


def import_package():
    """Import cartesian_topk from this checkout's src directory."""
    pkg = importlib.import_module(PACKAGE)
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return pkg, importlib.import_module(PACKAGE + ".bench")


def input_seed(seed: int, worker: int, index: int) -> int:
    """Seed of timed input ``index``; distinct runs and workers get disjoint inputs."""
    return (seed * WORKERS + worker) * 100_000 + index + 1


def make_instance(bench, workload: Workload, instance_seed: int) -> list:
    if workload.values == "ties":
        rng = np.random.Generator(np.random.PCG64(instance_seed))
        return list(rng.integers(0, 8, (workload.m, workload.n)).astype(np.float64))
    return bench.generate_inputs(workload.values, workload.m, workload.n, instance_seed)


def selector_calls(pkg) -> dict:
    return {
        "soft_tensor": pkg.soft_tensor_select,
        "soft_tree": pkg.soft_tree_select,
        "sort_tensor": pkg.sort_tensor_select,
        "sort_tree": pkg.sort_tree_select,
        "fast_soft_tree": functools.partial(pkg.fast_soft_tree_select, alpha=ALPHA),
    }


def set_up(workload: Workload, started_ns: int):
    """Import the package, generate a small warm-up input and call every selector once.

    The warm-up input has the workload's m and kind of values, so every
    selector runs on the tree shape of the timed calls, but n = k =
    WARMUP_SIZE: set-up time is then mostly start-up and import, and a
    change that moves work into import or first use shows in it.  The
    full-size warm-up that fills caches before timing is not part of set-up
    (see ``work``).  Returns the package, its bench module, the
    selector calls, the set-up parts in ns and the seconds from process start
    to the end of warm-up.
    """
    begun = time.monotonic_ns()
    pkg, bench = import_package()
    imported = time.monotonic_ns()
    small = replace(workload, n=WARMUP_SIZE, k=WARMUP_SIZE)
    arrays = make_instance(bench, small, WARMUP_INPUT)
    generated = time.monotonic_ns()
    calls = selector_calls(pkg)
    for fn in calls.values():
        fn(arrays, small.k)
    warmed = time.monotonic_ns()
    parts = dict(zip(SETUP_PARTS, (begun - started_ns, imported - begun,
                                   generated - imported, warmed - generated)))
    return pkg, bench, calls, parts, (warmed - started_ns) / 1e9


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile) by the nearest-rank rule; with too few
    samples for any such percentile, the maximum and 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(-(-pct * n // 100), 1)  # nearest rank: ceil(pct * n / 100)
    return ordered[rank - 1], pct


class Run:
    """Timed calls, their verification and the traced work of one worker."""

    def __init__(self, workload: Workload, bench, seed_of):
        self.workload = workload
        self.bench = bench
        self.seed_of = seed_of  # input index -> input seed
        self.index = -1
        self.attempted = 0
        self.failed = 0
        self.untraced = defaultdict(list)  # selector -> wall ns per call
        self.rel_v0 = defaultdict(list)  # selector -> [wall / frozen_v0 wall, v0_first]
        self.traced = defaultdict(list)
        self.layer = defaultdict(list)  # selector -> call_metrics() per traced call
        self.generated = defaultdict(lambda: defaultdict(list))  # selector -> input -> counts
        self.min_self_ns = 0

    def load(self, index: int) -> None:
        """Make input ``index`` current and build its reference (untimed)."""
        if index == self.index:
            return
        self.index = index
        self.arrays = make_instance(self.bench, self.workload, self.seed_of(index))
        self.ref = reference.smallest_sums(self.arrays, self.workload.k)

    def check(self, name: str, result) -> bool:
        self.attempted += 1
        ok = result is not None and np.array_equal(
            np.sort(np.asarray(result.values, dtype=np.float64)), self.ref)
        if not ok:
            self.failed += 1
            if result is not None:
                print(f"FAIL {name} on input {self.index}: value multiset differs "
                      f"from the reference", file=sys.stderr)
        return ok

    def timed(self, fn) -> tuple[object, int]:
        """Call ``fn`` on the current input; the result (None if it raised) and wall ns."""
        gc.collect()
        start = time.perf_counter_ns()
        try:
            result = fn(self.arrays, self.workload.k)
        except Exception:  # a failed call is counted, and the run goes on
            traceback.print_exc()
            result = None
        return result, time.perf_counter_ns() - start

    def call(self, name: str, fn) -> int | None:
        """A checked call without tracing; its wall ns, or None if it failed."""
        result, wall = self.timed(fn)
        if not self.check(name, result):
            return None
        self.untraced[name].append(wall)
        return wall

    def paired_call(self, name: str, fn, v0_fn, v0_first: bool) -> None:
        """Call ``fn`` and its frozen_v0 counterpart back to back on the current input."""
        if v0_first:
            v0_result, v0_wall = self.timed(v0_fn)
            wall = self.call(name, fn)
        else:
            wall = self.call(name, fn)
            v0_result, v0_wall = self.timed(v0_fn)
        if v0_result is None:
            raise RuntimeError(f"{V0_PACKAGE} {name} failed on input {self.index}")
        if wall is not None:
            self.rel_v0[name].append([wall / v0_wall, v0_first])

    def traced_call(self, name: str, fn, tracer: LayerTracer, new_stats) -> None:
        stats = new_stats()
        try:
            result, trace, wall = tracer.run(fn, self.arrays, self.workload.k, stats=stats)
        except Exception:
            traceback.print_exc()
            result = None
        if self.check(name, result):
            self.traced[name].append(wall)
            self.layer[name].append(call_metrics(trace, stats, self.workload.k))
            self.generated[name][self.index].append(stats.values_generated)
            self.min_self_ns = min(self.min_self_ns, trace.min_self_ns)


def measure(run: Run, calls: dict, v0_calls: dict | None, deadline: float,
            tracer: LayerTracer | None, pkg, flip: int) -> None:
    """Closed loop of rounds until ``time.perf_counter()`` passes ``deadline``.

    An untraced round calls every selector and its frozen_v0 counterpart
    once on a fresh input, so a run samples as many inputs as it has rounds;
    which of the two goes first alternates from round to round, and ``flip``
    (0 or 1) sets the order of the first round.  A traced round calls each
    selector untraced and traced, and two rounds share an input, so the
    traced work counters of repeated calls on one input can be compared.
    The second round of a pair makes the traced call first, so that neither
    kind of call always runs on data the other has just brought into cache.
    """
    rounds = 0
    while rounds == 0 or time.perf_counter() < deadline:
        run.load(rounds // 2 if tracer is not None else rounds)
        shift = rounds % len(SELECTORS)
        for name in SELECTORS[shift:] + SELECTORS[:shift]:
            if tracer is None:
                run.paired_call(name, calls[name], v0_calls[name],
                                v0_first=(rounds + flip) % 2 == 1)
                continue
            untraced = functools.partial(run.call, name, calls[name])
            traced = functools.partial(run.traced_call, name, calls[name], tracer, pkg.RunStats)
            for step in (traced, untraced) if rounds % 2 else (untraced, traced):
                step()
        rounds += 1


def end_to_end(pooled: dict, notes: dict) -> dict[str, float]:
    values = {}
    for sel in SELECTORS:
        # The first call of a pair pays for bringing the input into cache, by
        # up to a fifth of a short call.  Orders alternate but need not come
        # out even, so each order gets its own median and the metric is their
        # geometric mean, in which that cost cancels.
        by_order = [[ratio for ratio, v0_first in pooled["rel_v0"][sel] if v0_first == order]
                    for order in (False, True)]
        if all(by_order):
            values[f"{sel}.p50_rel_v0"] = math.sqrt(
                statistics.median(by_order[0]) * statistics.median(by_order[1]))
            notes[f"{sel}.p50_rel_v0"] = (f"of {len(by_order[0])} + {len(by_order[1])} "
                                          f"paired calls, each order first")
    values["setup_s"] = statistics.median(pooled["setup_s"])
    notes["setup_s"] = f"median of {len(pooled['setup_s'])} interpreters"
    values["peak_rss_mb"] = statistics.median(pooled["peak_rss_mb"])
    notes["peak_rss_mb"] = f"after warm-up, median of {len(pooled['peak_rss_mb'])} workers"
    for sel in SELECTORS:  # printed, not in the result: these move with the machine
        samples = pooled["untraced"][sel]
        if samples:
            values[f"{sel}.p50_ms"] = statistics.median(samples) / 1e6
            notes[f"{sel}.p50_ms"] = f"of {len(samples)} calls, not gated"
            value, pct = tail(samples)
            values[f"{sel}.tail_ms"] = value / 1e6
            notes[f"{sel}.tail_ms"] = f"p{pct} of {len(samples)} calls, not gated"
    return values


def per_layer(pooled: dict, notes: dict) -> dict[str, float]:
    values = {}
    for sel in SELECTORS:
        calls = pooled["layer"][sel]
        if not calls:
            continue
        keys = list(LAYER_METRICS[sel])
        if sel in DEEP_LEVELS:  # deeper levels vary by workload: printed, not declared
            keys += sorted((key for key in calls[0]
                            if key.startswith(DEEP_LEVELS[sel]) and key not in keys),
                           key=lambda key: int(key.rsplit("_", 1)[1]))
        for key in keys:
            values[f"{sel}.{key}"] = statistics.median(c.get(key, 0) for c in calls)
        traced, untraced = pooled["traced"][sel], pooled["untraced"][sel]
        if untraced:
            values[f"{sel}.trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(untraced) - 1)
            notes[f"{sel}.trace.overhead_frac"] = (
                f"{len(traced)} traced / {len(untraced)} untraced calls")
    for sel in RNG_DEPENDENT:
        values[f"{sel}.selectors.values_generated.range"] = max(
            (max(c) - min(c) for c in pooled["generated"][sel]), default=0)
        notes[f"{sel}.selectors.values_generated.range"] = (
            "largest max-min over repeated calls on one input")
    for part in SETUP_PARTS:
        values[part] = statistics.median(p[part] for p in pooled["setup_parts"])
    return values


def work(args: argparse.Namespace) -> dict:
    """One worker: set up, measure for ``args.seconds`` and return the raw results."""
    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    pkg, bench, calls, parts, setup_s = set_up(workload, args.started_ns)
    if args.setup_only:
        return {"setup_s": setup_s, "setup_parts": parts}
    deadline = time.perf_counter() + args.seconds
    # A full-size warm-up lets caches and the allocator's pools fill before
    # timing.  RSS is read before frozen_v0 is loaded, so it is the package's.
    arrays = make_instance(bench, workload, WARMUP_INPUT)
    for fn in calls.values():
        fn(arrays, workload.k)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run = Run(workload, bench, functools.partial(input_seed, args.seed, args.worker))
    tracer = LayerTracer(pkg) if args.trace else None
    v0_calls = None
    if tracer is None:
        v0_calls = selector_calls(importlib.import_module(V0_PACKAGE))
        for fn in v0_calls.values():
            fn(arrays, workload.k)
    measure(run, calls, v0_calls, deadline, tracer, pkg, flip=args.worker % 2)
    problems = []
    if run.min_self_ns < 0:
        problems.append(f"negative self time: {run.min_self_ns} ns")
    if args.worker == 0:
        problems += reference.self_check(pkg.brute_force_select,
                                         np.random.default_rng(args.seed))
    return {
        "attempted": run.attempted, "failed": run.failed, "problems": problems,
        "setup_s": setup_s, "setup_parts": parts, "peak_rss_mb": peak_rss_mb,
        "untraced": run.untraced, "rel_v0": run.rel_v0, "traced": run.traced, "layer": run.layer,
        "generated": {sel: list(counts.values()) for sel, counts in run.generated.items()},
    }


def spawn(args: argparse.Namespace, worker: int, setup_only: bool = False) -> dict | None:
    """Run one worker to completion; None if it failed or timed out."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace),
               "--worker", str(worker), "--started-ns", str(time.monotonic_ns())]
    if setup_only:
        command.append("--setup-only")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds / WORKERS + WORKER_SLACK_S)
    except subprocess.TimeoutExpired:
        print(f"worker {worker} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker {worker} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


PER_CALL = ("untraced", "rel_v0", "traced", "layer", "generated")


def pool(results: list[dict], probes: list[dict]) -> dict:
    """Pool the workers' samples; set-up times come from the probes too."""
    pooled = {"attempted": 0, "failed": 0, "problems": [], "peak_rss_mb": [],
              "setup_s": [], "setup_parts": []}
    for key in PER_CALL:
        pooled[key] = defaultdict(list)
    for result in results + probes:
        pooled["setup_s"].append(result["setup_s"])
        pooled["setup_parts"].append(result["setup_parts"])
    for result in results:
        for key in ("attempted", "failed", "problems"):
            pooled[key] += result[key]
        pooled["peak_rss_mb"].append(result["peak_rss_mb"])
        for key in PER_CALL:
            for sel, items in result[key].items():
                pooled[key][sel].extend(items)
    return pooled


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--started-ns", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and reaps a running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if args.worker is not None:
        print(json.dumps(work(args)))
        return 0

    results, probes = [], []
    for worker in range(WORKERS):
        probes += [spawn(args, WORKERS + worker * SETUP_PROBES + i, setup_only=True)
                   for i in range(SETUP_PROBES)]
        results.append(spawn(args, worker))
    if None in results + probes:
        return 1
    pooled = pool(results, probes)
    notes: dict[str, str] = {}
    if args.trace:
        values = per_layer(pooled, notes)
        units = per_layer_units()
    else:
        values = end_to_end(pooled, notes)
        units = end_to_end_units()
    problems = pooled["problems"]
    missing = [name for name in units if name not in values]
    if missing:
        problems.append(f"metrics not measured: {', '.join(missing)}")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)

    attempted, failed = pooled["attempted"], pooled["failed"]
    print(f"workload {args.workload} seed {args.seed}: {attempted} calls checked, "
          f"{failed} failed (fail_frac {failed / max(attempted, 1):.6g})")
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<52} {value:>16.6f} {units.get(name, unit_of(name))}{note}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
