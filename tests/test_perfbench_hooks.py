"""The benchmark still runs the library's selectors, and its per-layer
tracer still finds every name it wraps.

``perfbench/layers.py`` patches functions and methods of the package by
name, and ``perfbench/run.py`` reads a fixed set of keys from its
``call_metrics``; a refactor that drops one of those names, or stops
calling one so that its key silently reads 0, would show only in a
benchmark run.  The tracer test runs the tracer once per selector on a
small input instead, and requires every per-layer key to read above 0,
apart from the few listed below.
"""

import importlib.util
import sys
from pathlib import Path

import cartesian_topk
from cartesian_topk import DEFAULT_ALPHA, SELECTORS, RunStats, brute_force_select
from cartesian_topk.bench import generate_inputs

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Dead spans: the tracer still wraps ``loh.lohify`` and ``loh.split_at``,
# which no selector reaches since leaves stopped calling ``lohify``, and it
# wraps ``select_k`` only as ``selectors.select_k`` and ``pairwise.select_k``,
# neither of which fast-soft-tree reaches since its answer became the root's
# ascending prefix.  Their repair belongs to the benchmark's next change
# (ROADMAP item 1); until then they must read exactly 0, so a span that comes
# back to life shows here.
DEAD = {"fast_soft_tree": {"loh.lohify.ns", "loh.lohify.values", "select1d.split_at.ns",
                           "select1d.select_k.ns", "select1d.pool_per_k"}}
# Pairs still parked when the call ends: 0 on this input.
MAY_BE_ZERO = {"pairwise.parked"}
SOFT_HEAP_SELECTORS = {"soft_tensor", "soft_tree", "fast_soft_tree"}


def _load_run(monkeypatch):
    # run.py imports its siblings by plain name, so perfbench/ goes on sys.path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look themselves up there
    spec.loader.exec_module(run)
    return run


def test_benchmark_runs_the_library_selectors(monkeypatch):
    # perfbench keeps its own name list (frozen_v0 has no registry), so a
    # selector added to the library, or a changed default alpha, shows here
    run = _load_run(monkeypatch)
    assert set(run.SELECTORS) == {name.replace("-", "_") for name in SELECTORS}
    assert run.ALPHA == DEFAULT_ALPHA


def test_tracer_wraps_every_name(monkeypatch):
    run = _load_run(monkeypatch)
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
        dead = DEAD.get(name, set())
        assert {key: metrics[key] for key in dead} == dict.fromkeys(dead, 0), name
        idle = [key for key in run.LAYER_METRICS[name]
                if key not in dead | MAY_BE_ZERO and not metrics[key] > 0]
        assert not idle, (name, idle)
        if name in SOFT_HEAP_SELECTORS:
            # the tracer counts the newly corrupted list extract_min returns
            assert trace.counts["soft_heap.corrupted"] == stats.corrupted_count, name
        if name == "fast_soft_tree":
            assert 0 < metrics["loh.leaf_use_ratio"] <= 1
            # generate_next_layer is inherited from LohGenerator, yet the
            # wrapper on PairSumNode sees only the tree's 3 pair-sum nodes
            assert len(trace.pair_nodes) == 3, trace.pair_nodes
            assert all(isinstance(node, cartesian_topk.PairSumNode) for node in trace.pair_nodes)
