"""End-to-end k-selection on the Cartesian sum X1 + X2 + ... + Xm.

Five algorithms behind one calling convention, plus a brute-force
oracle.  ``soft_tensor_select`` walks the m-dimensional index tensor
with one soft heap; ``soft_tree_select`` runs pairwise soft-heap
selection up a balanced binary tree; ``sort_tensor_select`` and
``sort_tree_select`` enumerate values in ascending order (tensor fringe
and tree-of-fringes respectively); ``fast_soft_tree_select`` stacks
layer-ordered-heap pair-sum generators into a tree so sibling work stays
near k+1 values per node.

All six convert and check each axis once, to float64, in ``_checked``;
the selectors then read one ascending list of Python floats per axis.
Every algorithm sums an index tuple with the same balanced grouping
(left half = first ceil(m/2) axes), so equal index tuples give
bit-identical floats across algorithms and the oracle, and outputs can
be compared as exact multisets.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractViolation, GuardError, ParameterError
from .loh import LeafGenerator, LohGenerator
from .pairwise import PairSumNode, soft_select_pairwise
from .select1d import select_k
from .soft_heap import SoftHeap, pop_and_pool

DEFAULT_GUARD = 10_000_000


@dataclass
class SelectionResult:
    """Selected values, ascending when ``sorted`` is True.

    ``indices`` (when present) address the per-axis realized orderings
    documented by each selector: input order for the brute-force oracle,
    ascending order for the sorted selectors.
    """

    values: list[float]
    sorted: bool
    indices: list[tuple[int, ...]] | None = None


@dataclass
class RunStats:
    """Instrumentation counters captured by a selector run.

    pops_per_level maps tree depth (0 = root) to the average number of
    times a node at that depth was asked to produce a value, the
    look-ahead pop included: a merge node realizes a child's next value
    when it enqueues the successor cell, so a node asked for p values asks
    each child for 1 + the deepest (1-based) index it used;
    generated_per_level totals layer-generator output per depth for the
    layered tree method.

    The other three counters measure a different unit of work in each
    selector, so they compare runs of one selector, not two selectors:

    - ``values_generated``: soft-tensor counts soft-heap inserts (tensor
      cells whose sum was evaluated); soft-tree counts the values every
      node hands its parent plus the soft-heap inserts of every pairwise
      selection; sort-tensor counts fringe pushes; sort-tree counts the
      values popped from every node, leaves included; fast-soft-tree
      counts the values in the generated layers of every node, leaves
      included (the sum of ``generated_per_level``).
    - ``corrupted_count``: entries a soft heap corrupted, summed over
      every soft heap of the run (soft-tensor's one heap, every pairwise
      selection of soft-tree, each fast-soft-tree node's one soft heap
      over its lifetime); always 0 for the two sorted selectors.
    - ``fringe_peak``: the most candidates held at once.  soft-tensor
      and sort-tensor count their one heap; soft-tree and fast-soft-tree
      take the largest peak of any single soft heap (settled corrupted
      entries included); sort-tree counts all its merge fringes together.
    """

    pops_per_level: dict[int, float] = field(default_factory=dict)
    values_generated: int = 0
    corrupted_count: int = 0
    fringe_peak: int = 0
    generated_per_level: dict[int, int] = field(default_factory=dict)


def require_finite(values: np.ndarray, name: str = "values") -> None:
    """Reject NaN/Inf at the library boundary, one vectorized pass per axis."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(values[~finite][0])
        raise ParameterError(f"{name} must contain only finite numbers, got {bad!r}")


def _checked(arrays: Sequence[Sequence[float]], k: int) -> list[np.ndarray]:
    """The input boundary: each axis (a row, for a 2-D ndarray) converted once
    to a finite, nonempty 1-D float64 array, with 1 <= k <= cells and the sum
    over axes of max |x| finite, so no sum of one value per axis overflows."""
    if len(arrays) == 0:
        raise ContractViolation("need at least one input array")
    axes = []
    total = 1
    reach = 0.0
    for t, a in enumerate(arrays):
        try:
            raw = np.asarray(a)
            # complex and text axes would convert (dropping the imaginary
            # part, parsing the text), so they are refused before astype
            if raw.dtype.kind in "cUS" or (
                    raw.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in raw.flat)):
                raise TypeError("complex or text values are not real numbers")
            axis = raw.astype(np.float64, copy=False)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ContractViolation(f"array {t} does not convert to float64: {exc}") from None
        if axis.ndim != 1 or axis.size == 0:
            raise ContractViolation(f"input array {t} must be nonempty and 1-D, got shape {axis.shape}")
        require_finite(axis, f"array {t}")
        axes.append(axis)
        total *= axis.size
        reach += float(np.abs(axis).max())
    if k < 1 or k > total:
        raise ContractViolation(f"k={k} outside [1, {total}]")
    if not math.isfinite(reach):
        raise ContractViolation("the sum over arrays of max |x| overflows float64")
    return axes


def _validated(arrays: Sequence[Sequence[float]], k: int) -> list[list[float]]:
    """Checked axes as ascending lists of Python floats, which every leaf
    indexes directly: a sorted list is a valid binary heap and layer order."""
    return [np.sort(axis).tolist() for axis in _checked(arrays, k)]


def _left_size(count: int) -> int:
    return (count + 1) // 2


def _balanced_sum(vals: Sequence[float], lo: int = 0, hi: int | None = None) -> float:
    # Must mirror the tree split so all algorithms produce identical floats.
    if hi is None:
        hi = len(vals)
    if hi - lo == 1:
        return vals[lo]
    mid = lo + _left_size(hi - lo)
    return _balanced_sum(vals, lo, mid) + _balanced_sum(vals, mid, hi)


def theoretical_exponent(alpha: float) -> float:
    """Exponent of m in the layered tree method's runtime: log2(alpha^2)."""
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    return 2.0 * math.log2(alpha)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_select(arrays: Sequence[Sequence[float]], k: int, *,
                       guard: int = DEFAULT_GUARD) -> SelectionResult:
    """Materialize every sum, sort, keep k; refuses above ``guard`` cells."""
    axes = _checked(arrays, k)
    sizes = [len(a) for a in axes]
    total = math.prod(sizes)
    if total > guard:
        raise GuardError(f"{total} tensor cells exceed the materialization guard {guard}")

    def sums(lo: int, hi: int) -> np.ndarray:
        if hi - lo == 1:
            return axes[lo]
        mid = lo + _left_size(hi - lo)
        return np.add.outer(sums(lo, mid), sums(mid, hi)).ravel()

    flat = sums(0, len(axes))
    if k < total:
        picked = np.argpartition(flat, k - 1)[:k]
        picked = picked[np.argsort(flat[picked], kind="stable")]
    else:
        picked = np.argsort(flat, kind="stable")
    values = flat[picked].tolist()

    def decode(code: int, lo: int, hi: int) -> tuple[int, ...]:
        if hi - lo == 1:
            return (code + 1,)
        mid = lo + _left_size(hi - lo)
        right_total = math.prod(sizes[mid:hi])
        return decode(code // right_total, lo, mid) + decode(code % right_total, mid, hi)

    indices = [decode(int(code), 0, len(axes)) for code in picked]
    return SelectionResult(values=values, sorted=True, indices=indices)


# ---------------------------------------------------------------------------
# Soft heap over the m-dimensional index tensor
# ---------------------------------------------------------------------------

def _tensor_children(idx: tuple[int, ...], dims: Sequence[int]):
    """Children of an index tuple; each tuple has exactly one proposer.

    Last component above 1: advance only the last axis in heap order.
    Otherwise every axis from the rightmost component above 1 onward
    advances in heap order (the all-ones root advances every axis).
    """
    m = len(idx)
    last = idx[-1]
    if last > 1:
        for c in (2 * last, 2 * last + 1):
            if c <= dims[-1]:
                yield idx[:-1] + (c,)
        return
    j = 0
    for t in range(m - 2, -1, -1):
        if idx[t] > 1:
            j = t
            break
    for c in (2 * idx[j], 2 * idx[j] + 1):
        if c <= dims[j]:
            yield idx[:j] + (c,) + idx[j + 1:]
    for t in range(j + 1, m):
        for c in (2, 3):
            if c <= dims[t]:
                yield idx[:t] + (c,) + idx[t + 1:]


def soft_tensor_select(arrays: Sequence[Sequence[float]], k: int, *,
                       stats: RunStats | None = None,
                       debug_checks: bool = False) -> SelectionResult:
    """k smallest sums via one soft heap over m-dimensional index tuples."""
    mats = _validated(arrays, k)  # ascending, so each axis is already a binary heap
    m = len(mats)
    dims = [len(h) for h in mats]

    def value_of(idx: tuple[int, ...]) -> float:
        return _balanced_sum([mats[t][idx[t] - 1] for t in range(m)])

    soft = SoftHeap(1.0 / (3 * m))
    seen = {(1,) * m} if debug_checks else None
    soft.insert(value_of((1,) * m), (1,) * m)

    def propose(e) -> None:
        for child in _tensor_children(e.payload, dims):
            if seen is not None:
                if child in seen:
                    raise AssertionError(f"tuple {child} proposed twice")
                seen.add(child)
            soft.insert(value_of(child), child)

    pool: list = []
    pop_and_pool(soft, k, pool, propose)
    if stats is not None:
        stats.values_generated += soft.insert_count
        stats.corrupted_count += soft.corrupted_count
        stats.fringe_peak = max(stats.fringe_peak, soft.peak_size)
    return SelectionResult(values=select_k(pool, k), sorted=False)


# ---------------------------------------------------------------------------
# Balanced tree of pairwise soft-heap selections
# ---------------------------------------------------------------------------

def soft_tree_select(arrays: Sequence[Sequence[float]], k: int, *,
                     stats: RunStats | None = None) -> SelectionResult:
    """k smallest sums via pairwise soft-heap selection up a balanced tree.

    Each node hands its parent its k smallest values, which is always
    enough: siblings jointly contribute at most k+1 distinct source
    values to any k-selection on their sum.
    """
    mats = _validated(arrays, k)

    def run(lo: int, hi: int) -> list:
        count = 1
        for arr in mats[lo:hi]:
            count *= len(arr)
        want = min(k, count)
        if hi - lo == 1:
            out = mats[lo][:want]
        else:
            mid = lo + _left_size(hi - lo)
            out = soft_select_pairwise(run(lo, mid), run(mid, hi), want, stats=stats)
        if stats is not None:
            stats.values_generated += len(out)
        return out

    return SelectionResult(values=run(0, len(mats)), sorted=False)


# ---------------------------------------------------------------------------
# Sorted enumeration over the m-dimensional tensor
# ---------------------------------------------------------------------------

class _SortLeaf:
    """Sort-tree leaf over one ascending axis: each pop reads the next value."""

    __slots__ = ("values", "pop_count", "total")

    def __init__(self, values: list):
        self.values = values
        self.pop_count = 0
        self.total = len(values)

    def has_more(self) -> bool:
        return self.pop_count < self.total

    def pop_next(self) -> float:
        v = self.values[self.pop_count]
        self.pop_count += 1
        return v

    def index_of(self, t: int) -> tuple[int, ...]:
        return (t,)


def sort_tensor_select(arrays: Sequence[Sequence[float]], k: int, *,
                       stats: RunStats | None = None) -> SelectionResult:
    """k smallest sums in ascending order, with index tuples.

    A fringe of candidate index tuples grows from (1, ..., 1); each pop
    appends the m successor tuples not already enqueued.  Indices address
    the ascending order of each axis.
    """
    mats = _validated(arrays, k)
    m = len(mats)
    dims = [len(a) for a in mats]

    root = (1,) * m
    fringe: list[tuple[float, tuple[int, ...]]] = [(_balanced_sum([a[0] for a in mats]), root)]
    enqueued = {root}
    peak = 1
    pushes = 1
    values: list[float] = []
    indices: list[tuple[int, ...]] = []
    for _ in range(k):
        val, idx = heapq.heappop(fringe)
        values.append(val)
        indices.append(idx)
        for t in range(m):
            step = idx[t] + 1
            if step > dims[t]:
                continue
            nxt = idx[:t] + (step,) + idx[t + 1:]
            if nxt in enqueued:
                continue
            enqueued.add(nxt)
            heapq.heappush(fringe, (_balanced_sum([mats[u][nxt[u] - 1] for u in range(m)]), nxt))
            pushes += 1
        if len(fringe) > peak:
            peak = len(fringe)
    if stats is not None:
        stats.values_generated += pushes
        stats.fringe_peak = max(stats.fringe_peak, peak)
    return SelectionResult(values=values, sorted=True, indices=indices)


# ---------------------------------------------------------------------------
# Balanced tree of two-way sorted enumerations
# ---------------------------------------------------------------------------

class _FringeGauge:
    __slots__ = ("current", "peak")

    def __init__(self):
        self.current = 0
        self.peak = 0

    def push(self):
        self.current += 1
        if self.current > self.peak:
            self.peak = self.current

    def pop(self):
        self.current -= 1


class _SortMerge:
    """Two-way sorted merge of child streams over their pair sums.

    After the first pop, each pop realizes at most one new child value
    (at most one margin advances), which the assertion below enforces.
    """

    __slots__ = ("left", "right", "a", "b", "fringe", "enqueued", "history",
                 "total", "gauge")

    def __init__(self, left, right, gauge: _FringeGauge):
        self.left = left
        self.right = right
        self.gauge = gauge
        self.total = left.total * right.total
        self.a = [left.pop_next()]
        self.b = [right.pop_next()]
        self.fringe: list[tuple[float, int, int]] = [(self.a[0] + self.b[0], 1, 1)]
        self.enqueued = {(1, 1)}
        self.history: list[tuple[int, int]] = []
        gauge.push()

    @property
    def pop_count(self) -> int:
        return len(self.history)

    def has_more(self) -> bool:
        return len(self.history) < self.total

    def pop_next(self) -> float:
        val, i, j = heapq.heappop(self.fringe)
        self.gauge.pop()
        self.history.append((i, j))
        advances = 0
        for ni, nj in ((i + 1, j), (i, j + 1)):
            if (ni, nj) in self.enqueued:
                continue
            if ni > len(self.a):
                if not self.left.has_more():
                    continue
                self.a.append(self.left.pop_next())
                advances += 1
            if nj > len(self.b):
                if not self.right.has_more():
                    continue
                self.b.append(self.right.pop_next())
                advances += 1
            self.enqueued.add((ni, nj))
            heapq.heappush(self.fringe, (self.a[ni - 1] + self.b[nj - 1], ni, nj))
            self.gauge.push()
        if advances > 1 and len(self.history) > 1:
            raise AssertionError("both margins advanced after the first pop")
        return val

    def index_of(self, t: int) -> tuple[int, ...]:
        i, j = self.history[t - 1]
        return self.left.index_of(i) + self.right.index_of(j)


def sort_tree_select(arrays: Sequence[Sequence[float]], k: int,
                     want_indices: bool = False, *,
                     stats: RunStats | None = None) -> SelectionResult:
    """k smallest sums in ascending order via a balanced tree of merges."""
    mats = _validated(arrays, k)
    gauge = _FringeGauge()
    levels: dict[int, list] = {}

    def build(lo: int, hi: int, depth: int):
        if hi - lo == 1:
            node = _SortLeaf(mats[lo])
        else:
            mid = lo + _left_size(hi - lo)
            node = _SortMerge(build(lo, mid, depth + 1), build(mid, hi, depth + 1), gauge)
        levels.setdefault(depth, []).append(node)
        return node

    root = build(0, len(mats), 0)
    values = [root.pop_next() for _ in range(k)]
    indices = [root.index_of(t) for t in range(1, k + 1)] if want_indices else None
    if stats is not None:
        stats.pops_per_level.update(
            {d: sum(n.pop_count for n in nodes) / len(nodes) for d, nodes in levels.items()})
        stats.values_generated += sum(n.pop_count for nodes in levels.values() for n in nodes)
        stats.fringe_peak = max(stats.fringe_peak, gauge.peak)
    return SelectionResult(values=values, sorted=True, indices=indices)


# ---------------------------------------------------------------------------
# Balanced tree of layer-ordered pair-sum generators
# ---------------------------------------------------------------------------

def fast_soft_tree_select(arrays: Sequence[Sequence[float]], k: int, alpha: float, *,
                          stats: RunStats | None = None) -> SelectionResult:
    """k smallest sums via a tree of layer-ordered pair-sum generators.

    Leaves slice each layer off their ascending array when asked;
    internal nodes generate their sum layers on demand, so each level of
    the tree produces only about alpha^2 times the values of the level
    above it.  The root generates layers until it holds k values, then an
    exact 1-D selection finishes.
    """
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    mats = _validated(arrays, k)
    levels: dict[int, list[LohGenerator]] = {}

    def build(lo: int, hi: int, depth: int) -> LohGenerator:
        if hi - lo == 1:
            node: LohGenerator = LeafGenerator(mats[lo], alpha)
        else:
            mid = lo + _left_size(hi - lo)
            left = build(lo, mid, depth + 1)
            right = build(mid, hi, depth + 1)
            node = PairSumNode(left, right, alpha)
        levels.setdefault(depth, []).append(node)
        return node

    root = build(0, len(mats), 0)
    while root.generated_count < k:
        root.generate_next_layer()
    if stats is not None:
        for depth, nodes in levels.items():
            stats.generated_per_level[depth] = sum(n.generated_count for n in nodes)
            pair_nodes = [n for n in nodes if isinstance(n, PairSumNode)]
            if pair_nodes:
                stats.pops_per_level[depth] = sum(n.pops_total for n in pair_nodes) / len(pair_nodes)
            for n in pair_nodes:
                stats.corrupted_count += n.soft_heap.corrupted_count
                stats.fringe_peak = max(stats.fringe_peak, n.soft_heap.peak_size)
        stats.values_generated += sum(stats.generated_per_level.values())
    return SelectionResult(values=select_k(root.values, k), sorted=False)
