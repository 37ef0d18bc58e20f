"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root, for example:

    python3 perfbench/spread.py --workloads paper-m64 deep-k --seeds 1-10 --out spread.json

Runs are sequential, one interpreter at a time.  For every metric it prints
the median of the runs, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, (Q3 - Q1) / median, next to the bound that ``BENCHMARK.json``
fixes for the metric.  It checks that every run exited 0, reported
``correct`` and reported every metric ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS_LIMIT = 180


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_SECONDS_LIMIT)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                        help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the summary as JSON")
    args = parser.parse_args()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    summary = {}
    ok = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        elapsed = []
        for seed in args.seeds:
            result, seconds = run_once(workload, seed, args.seconds, args.trace)
            elapsed.append(seconds)
            missing = sorted(set(bounds) - set(result["metrics"]))
            if not result["correct"] or result["failed"] or missing:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']} missing={missing}")
                ok = False
            for name in bounds:
                if name in result["metrics"]:
                    values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload}: {len(args.seeds)} runs, {max(elapsed):.1f} s longest, "
              f"{sum(elapsed):.0f} s in all")
        summary[workload] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds[name]
            flag = "" if bound is None else ("  ok" if spread <= bound / 3 else
                                              "  WIDE" if spread <= bound else "  OVER BOUND")
            if bound is not None and name != "setup_s" and spread > bound:
                ok = False
            print(f"  {name:<48} median {median:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:7.4f}" + ("" if bound is None else f" bound {bound}") + flag)
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                       "values": vals}
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                        "trace": args.trace, "workloads": summary}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
