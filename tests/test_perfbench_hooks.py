"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/layers.py`` patches functions and methods of the package by
name, and ``perfbench/run.py`` reads a fixed set of keys from its
``call_metrics``; a refactor that drops one of those names, or a key that
silently reads 0, would show only in a benchmark run.  This test runs the
tracer once per selector on a small input instead.
"""

import importlib.util
import sys
from pathlib import Path

import cartesian_topk
from cartesian_topk import RunStats, brute_force_select
from cartesian_topk.bench import generate_inputs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_every_name(monkeypatch):
    # run.py imports its siblings by plain name, so perfbench/ goes on sys.path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look themselves up there
    spec.loader.exec_module(run)
    import layers

    tracer = layers.LayerTracer(cartesian_topk)  # raises if a patched name is gone
    arrays = generate_inputs("uniform", 4, 16, seed=3)
    k = 16
    expected = brute_force_select(arrays, k).values
    calls = run.selector_calls(cartesian_topk)
    assert set(calls) == set(run.SELECTORS)
    for name, fn in calls.items():
        stats = RunStats()
        result, trace, _ = tracer.run(fn, arrays, k, stats=stats)
        assert sorted(result.values) == expected, name
        metrics = layers.call_metrics(trace, stats, k)
        missing = [key for key in run.LAYER_METRICS[name] if key not in metrics]
        assert not missing, (name, missing)
        if name == "fast_soft_tree":
            assert 0 < metrics["loh.leaf_use_ratio"] <= 1
