"""Per-layer spans and work counters, recorded from outside the package.

``LayerTracer`` wraps the functions each layer exposes at the name binding
its caller uses (``cartesian_topk.selectors.require_finite``,
``cartesian_topk.loh.split_at`` ...) and the methods of ``SoftHeap``,
``LeafGenerator`` and ``PairSumNode`` on their classes.  The wrappers are
installed only for the duration of one traced call, so untraced calls run the
package's own functions.

Spans are folded into per-key totals as they close: inclusive time (counting
only the outermost span of a key, so recursion is not counted twice), self
time (inclusive time minus the time of the wrapped spans directly inside it)
and the number of calls.  The selector call itself is the root span,
``selectors``; its self time is the work of the selector code between calls
into the other layers.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict


class CallTrace:
    """Spans and work counters of one traced selector call."""

    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # key -> [inclusive ns, self ns, calls]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.min_self_ns = 0
        self.heap_peak = 0
        self.leaves: list = []
        self.pair_nodes: set = set()

    def ns(self, key: str) -> int:
        return self.spans[key][0] if key in self.spans else 0

    def self_ns(self, key: str) -> int:
        return self.spans[key][1] if key in self.spans else 0

    def calls(self, key: str) -> int:
        return self.spans[key][2] if key in self.spans else 0

    def layer_self_ns(self, layer: str) -> int:
        return sum(v[1] for key, v in self.spans.items() if key.split(".")[0] == layer)


def _count_len(counter: str):
    def before(call: CallTrace, args):
        call.counts[counter] += len(args[0])
    return before


def _note_heap_peak(call: CallTrace, heap) -> None:
    if heap.peak_size > call.heap_peak:
        call.heap_peak = heap.peak_size


def _after_extract(call: CallTrace, args, result) -> None:
    call.counts["soft_heap.corrupted"] += len(result[1])
    _note_heap_peak(call, args[0])


def _before_drain(call: CallTrace, args) -> None:
    _note_heap_peak(call, args[0])


def _after_leaf(call: CallTrace, args, result) -> None:
    call.leaves.append(args[0])


def _before_layer(call: CallTrace, args) -> None:
    call.pair_nodes.add(args[0])


class LayerTracer:
    """Installs span wrappers around one imported ``cartesian_topk`` package."""

    def __init__(self, pkg):
        selectors, loh, pairwise, soft_heap = pkg.selectors, pkg.loh, pkg.pairwise, pkg.soft_heap
        self._stack: list[list[int]] = []
        self.current = CallTrace()
        # (owner, attribute, span key, hook before the call, hook after it)
        targets = [
            (selectors, "require_finite", "select1d.require_finite",
             _count_len("select1d.require_finite.values"), None),
            (selectors, "select_k", "select1d.select_k",
             _count_len("select1d.select_k.values"), None),
            (pairwise, "select_k", "select1d.select_k",
             _count_len("select1d.select_k.values"), None),
            (pairwise, "split_smallest", "select1d.split_smallest", None, None),
            (loh, "split_at", "select1d.split_at", None, None),
            (loh, "lohify", "loh.lohify", _count_len("loh.lohify.values"), None),
            (loh.LeafGenerator, "__init__", "loh.LeafGenerator", None, _after_leaf),
            (selectors, "soft_select_pairwise", "pairwise.soft_select_pairwise", None, None),
            (pairwise, "concatenation_select", "pairwise.concatenation_select", None, None),
            (pairwise.PairSumNode, "generate_next_layer", "pairwise.generate_next_layer",
             _before_layer, None),
            (soft_heap.SoftHeap, "insert", "soft_heap.insert", None, None),
            (soft_heap.SoftHeap, "extract_min", "soft_heap.extract_min", None, _after_extract),
            (soft_heap.SoftHeap, "drain", "soft_heap.drain", _before_drain, None),
        ]
        self._patches = []
        for owner, attr, key, before, after in targets:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, self._wrap(key, original, before, after)))

    def _wrap(self, key: str, fn, before=None, after=None):
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self
        active = [0]  # open spans of this wrapper, to count recursion once

        def wrapper(*args, **kwargs):
            call = tracer.current
            if before is not None:
                before(call, args)
            frame = [0]  # ns covered by spans directly inside this one
            stack.append(frame)
            active[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                active[0] -= 1
                own = dur - frame[0]
                span = call.spans.get(key)
                if span is None:
                    span = call.spans[key] = [0, 0, 0]
                if not active[0]:
                    span[0] += dur
                span[1] += own
                span[2] += 1
                if own < call.min_self_ns:
                    call.min_self_ns = own
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(call, args, result)
            return result

        return wrapper

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` with every wrapper installed.

        Returns (result, CallTrace, wall ns of the call).  Garbage is
        collected before the clock starts, as for untraced calls.
        """
        self.current = CallTrace()
        root = self._wrap("selectors", fn)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            gc.collect()
            start = time.perf_counter_ns()
            result = root(*args, **kwargs)
            wall = time.perf_counter_ns() - start
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
        return result, self.current, wall


def call_metrics(call: CallTrace, stats, k: int) -> dict[str, float]:
    """Per-layer metrics of one traced call, without the selector prefix."""
    counts = call.counts
    inserts = call.calls("soft_heap.insert")
    lohified = sum(leaf.total_size for leaf in call.leaves)
    nodes = call.pair_nodes
    out = {
        "selectors.self_ns": call.self_ns("selectors"),
        "selectors.values_generated": stats.values_generated,
        "selectors.fringe_peak": stats.fringe_peak,
        "select1d.self_ns": call.layer_self_ns("select1d"),
        "select1d.require_finite.ns": call.ns("select1d.require_finite"),
        "select1d.require_finite.values": counts["select1d.require_finite.values"],
        "select1d.select_k.ns": call.ns("select1d.select_k"),
        "select1d.pool_per_k": counts["select1d.select_k.values"] / k,
        "select1d.split_at.ns": call.ns("select1d.split_at"),
        "select1d.split_smallest.ns": call.ns("select1d.split_smallest"),
        "loh.self_ns": call.layer_self_ns("loh"),
        "loh.lohify.ns": call.ns("loh.lohify"),
        "loh.lohify.values": counts["loh.lohify.values"],
        "loh.leaf_use_ratio": (sum(leaf.generated_count for leaf in call.leaves) / lohified
                               if lohified else 0.0),
        "pairwise.self_ns": call.layer_self_ns("pairwise"),
        "pairwise.soft_select_pairwise.self_ns": call.self_ns("pairwise.soft_select_pairwise"),
        "pairwise.generate_next_layer.self_ns": call.self_ns("pairwise.generate_next_layer"),
        "pairwise.concatenation_select.ns": call.ns("pairwise.concatenation_select"),
        "pairwise.proposed": sum(n.proposed_total for n in nodes),
        "pairwise.processed": sum(n.processed_total for n in nodes),
        "pairwise.parked": sum(n.parked_count() for n in nodes),
        "pairwise.pops": sum(n.pops_total for n in nodes),
        "soft_heap.self_ns": call.layer_self_ns("soft_heap"),
        "soft_heap.insert.calls": inserts,
        "soft_heap.insert.ns": call.ns("soft_heap.insert"),
        "soft_heap.extract_min.calls": call.calls("soft_heap.extract_min"),
        "soft_heap.extract_min.ns": call.ns("soft_heap.extract_min"),
        "soft_heap.corrupted_ratio": counts["soft_heap.corrupted"] / inserts if inserts else 0.0,
        "soft_heap.peak": call.heap_peak,
    }
    for depth, pops in stats.pops_per_level.items():
        out[f"pops_level_{depth}"] = pops
    for depth, generated in stats.generated_per_level.items():
        out[f"generated_level_{depth}"] = generated
    return out
