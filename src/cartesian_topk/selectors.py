"""End-to-end k-selection on the Cartesian sum X1 + X2 + ... + Xm.

Five algorithms share one calling convention, ``select(arrays, k, *,
stats=None, ...)``: every later parameter is keyword-only with a default
(soft-tensor's ``debug_checks``, sort-tree's ``want_indices``,
fast-soft-tree's ``alpha=DEFAULT_ALPHA``; the oracle's ``guard``), so
``SELECTORS``, the one map from CLI name to function, runs any of them.
``soft_tensor_select`` walks the index tensor with one soft heap;
``soft_tree_select`` runs pairwise soft-heap selection up a balanced
binary tree; ``sort_tensor_select`` and ``sort_tree_select`` enumerate
values in ascending order (a tensor fringe, a tree of fringes);
``fast_soft_tree_select`` stacks layer-ordered-heap pair-sum generators
into a tree so sibling work stays near k+1 values per node.

All six convert and check each axis once, to float64, and k once, to an
int, in ``_checked``; the selectors then read each axis as a lazily sorted
``select1d.AscendingPrefix``, and sort-tree's merges read them in place.
Every algorithm and the oracle walk one balanced tree shape, ``_Tree``
(left half = first ceil(m/2) axes), built once per call as a post-order
node list, so equal index tuples give bit-identical floats across
algorithms and the oracle.  All six return the k values ascending (each
1-D cut sorts what it keeps), so outputs compare with ``==`` in returned
order, on any CPU, up to the order of ``-0.0`` and ``0.0``.  The tree
selectors stack their nodes in that list's order; in the tensor
selectors a child cell differs from its parent in one axis, so its sum
re-adds only that leaf's path, and so do the node sums it carries over
from its parent: at most ceil(log2 m) additions each.
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractViolation, GuardError, ParameterError
from .loh import LeafGenerator, LohGenerator
from .pairwise import PairSumNode, soft_select_pairwise
from .select1d import (AscendingPrefix, checked_axis, checked_k, require_finite,
                       require_summable, select_k)
from .soft_heap import SoftHeap, pop_and_pool

DEFAULT_GUARD = 10_000_000
DEFAULT_ALPHA = 1.1


@dataclass
class SelectionResult:
    """Selected values, ascending for every selector and the oracle, in an
    order the input alone fixes, up to the order of ``-0.0`` and ``0.0``.

    ``indices`` (when present) address the per-axis realized orderings
    documented by each selector: input order for the brute-force oracle,
    ascending order for sort-tensor and sort-tree.
    """

    values: list[float]
    indices: list[tuple[int, ...]] | None = None


@dataclass
class RunStats:
    """Instrumentation counters captured by a selector run.

    pops_per_level maps tree depth (0 = root) to an average per node.
    Sort-tree averages over every node at that depth, leaves included, the
    values its parent read from it, and the root's are k: a merge reads a
    child's next value when it pushes the successor cell, so one that
    popped p values read from each child 1 + the deepest (1-based) index
    among them, capped at the child's cells.  Fast-soft-tree averages the
    counted soft-heap extractions of the pair-sum nodes at that depth only,
    since leaves never pop: on the golden tie-heavy case (m=5) depth 2
    holds one pair node and three leaves, and reads 41.0.  The other three
    selectors leave it empty.  generated_per_level totals layer-generator
    output per depth for the layered tree method.  Every call replaces
    both per-level fields, so they describe the last call; the other three
    counters add up over calls, and each measures a different unit of work
    in each selector, so they compare runs of one selector, not two
    selectors:

    - ``values_generated``: soft-tensor counts soft-heap inserts (tensor
      cells whose sum was evaluated); soft-tree counts the values every
      node hands its parent plus the soft-heap inserts of every pairwise
      selection; sort-tensor counts fringe pushes; sort-tree counts the
      values read from every node, leaves included, and k at the root;
      fast-soft-tree counts the values in the generated layers of every
      node, leaves included (the sum of ``generated_per_level``).
    - ``corrupted_count``: items a soft heap corrupted, summed over
      every soft heap of the run (soft-tensor's one heap, every pairwise
      selection of soft-tree, each fast-soft-tree node's one soft heap
      over its lifetime); always 0 for sort-tensor and sort-tree.
    - ``fringe_peak``: the most candidates held at once.  soft-tensor
      and sort-tensor count their one heap; soft-tree and fast-soft-tree
      take the largest peak of any single soft heap (settled corrupted
      items included); sort-tree counts all its merge fringes together.
    """

    pops_per_level: dict[int, float] = field(default_factory=dict)
    values_generated: int = 0
    corrupted_count: int = 0
    fringe_peak: int = 0
    generated_per_level: dict[int, int] = field(default_factory=dict)


def _checked(arrays: Sequence[Sequence[float]], k: int) -> tuple[list[np.ndarray], int]:
    """The input boundary: each axis (a row, for a 2-D ndarray) by ``checked_axis``
    and ``require_finite``, then k by ``checked_k`` into [1, cells], then the
    axes together by ``require_summable``, so no cell's sum overflows."""
    if len(arrays) == 0:
        raise ContractViolation("need at least one input array")
    axes = []
    for t, a in enumerate(arrays):
        axes.append(checked_axis(a, f"array {t}"))
        require_finite(axes[-1], f"array {t}")
    k = checked_k(k, math.prod(axis.size for axis in axes))
    require_summable(axes)
    return axes, k


def _validated(arrays: Sequence[Sequence[float]], k: int,
               stats: RunStats | None) -> tuple[list[AscendingPrefix], int]:
    """Checked axes as ascending prefixes (a sorted list is a valid binary heap
    and layer order), and the checked k; each call starts ``stats`` on empty
    per-level fields."""
    if stats is not None:
        stats.pops_per_level, stats.generated_per_level = {}, {}
    axes, k = _checked(arrays, k)
    return [AscendingPrefix(axis) for axis in axes], k


def _join(ops: list[tuple[int, int]], m: int, lo: int, hi: int) -> int:
    """The node over axes [lo, hi): appends the joins below it to ``ops`` in
    post-order and returns its number.  A module-level function, not a
    closure over the tree, so no reference cycle keeps a call's tree alive
    until the cyclic collector runs."""
    if hi - lo == 1:
        return lo
    mid = lo + (hi - lo + 1) // 2
    ops.append((_join(ops, m, lo, mid), _join(ops, m, mid, hi)))
    return m + len(ops) - 1


class _Tree:
    """The balanced tree over m axes that every selector and the oracle walk
    (left child = first ceil(m/2) axes).  Leaf t is node t; internal node
    m + i joins the two nodes ``ops[i]``, in post-order, so children come
    before their parent and the root is last.  ``depth[v]`` is node v's
    distance from the root, ``paths[t]`` lists the siblings on leaf t's path,
    leaf first, and ``resums[t]`` the ``(node, left, right)`` joins of leaf
    t's ancestors, bottom-up."""

    __slots__ = ("ops", "depth", "paths", "resums")

    def __init__(self, m: int):
        self.ops: list[tuple[int, int]] = []
        _join(self.ops, m, 0, m)
        self.depth = [0] * (m + len(self.ops))
        up: list[list[int]] = [[] for _ in self.depth]  # siblings from v to the root
        joins: list[list[tuple[int, int, int]]] = [[] for _ in self.depth]  # v's ancestors
        for v in range(len(self.depth) - 1, m - 1, -1):
            left, right = self.ops[v - m]
            self.depth[left] = self.depth[right] = self.depth[v] + 1
            up[left], up[right] = [right] + up[v], [left] + up[v]
            joins[left] = joins[right] = [(v, left, right)] + joins[v]
        self.paths = up[:m]
        self.resums = joins[:m]

    def levels(self, counts: Sequence[int], first: int = 0) -> dict[int, list[int]]:
        """``counts[j]``, the count of node ``first + j``, grouped by depth."""
        out: dict[int, list[int]] = {}
        for v, count in enumerate(counts, first):
            out.setdefault(self.depth[v], []).append(count)
        return out

    def partials(self, vals: Sequence[float]) -> list[float]:
        """All 2m-1 node sums of one value per axis; the root's is last."""
        sums = list(vals)
        for left, right in self.ops:
            sums.append(sums[left] + sums[right])
        return sums

    def child(self, sums: list[float], t: int, value: float) -> float:
        """The root sum once leaf t of ``partials`` becomes ``value``, by the
        additions a full re-sum makes on that path, in the same order."""
        for s in self.paths[t]:
            value += sums[s]
        return value

    def advanced(self, sums: list[float], t: int, value: float) -> list[float]:
        """A copy of ``partials`` with leaf t set to ``value`` and only its
        ancestors re-summed, bottom-up: the operands and grouping of a full
        re-sum, in ceil(log2 m) additions at most."""
        sums = sums.copy()
        sums[t] = value
        for v, left, right in self.resums[t]:
            sums[v] = sums[left] + sums[right]
        return sums


def _strides(dims: Sequence[int]) -> list[int]:
    """Place values of a cell's mixed-radix code (unique, ordered like index
    tuples): axis 0 is most significant and digit t is ``idx[t] - 1``."""
    strides = [1] * len(dims)
    for t in range(len(dims) - 2, -1, -1):
        strides[t] = strides[t + 1] * dims[t + 1]
    return strides


def theoretical_exponent(alpha: float) -> float:
    """Exponent of m in the layered tree method's runtime: log2(alpha^2)."""
    if isinstance(alpha, bool) or not (isinstance(alpha, numbers.Real) and alpha > 0):
        raise ParameterError(f"alpha must be a positive real number, got {alpha!r}")
    return 2.0 * math.log2(alpha)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def brute_force_select(arrays: Sequence[Sequence[float]], k: int, *,
                       guard: int = DEFAULT_GUARD) -> SelectionResult:
    """Materialize every sum, keep the k smallest ascending (of cells tied at
    the k-th value, the lowest codes); refuses above ``guard`` cells."""
    axes, k = _checked(arrays, k)
    total = math.prod(len(a) for a in axes)
    if total > guard:
        raise GuardError(f"{total} tensor cells exceed the materialization guard {guard}")
    m = len(axes)
    tree = _Tree(m)
    node, cells = list(axes), [a.size for a in axes]
    for left, right in tree.ops:
        node.append(np.add.outer(node[left], node[right]).ravel())
        cells.append(node[-1].size)
        node[left] = node[right] = None  # each child is read only here: free its array
    flat = node[-1]  # indexed by cell code
    kth = np.partition(flat, k - 1)[k - 1]
    below = np.flatnonzero(flat < kth)
    picked = np.concatenate((below, np.flatnonzero(flat == kth)[:k - below.size]))
    picked = picked[np.argsort(flat[picked], kind="stable")]
    # a node's cell code is (left child's code) * (right child's cells) + right child's code
    code = [None] * (len(node) - 1) + [picked]
    for v in range(len(node) - 1, m - 1, -1):
        left, right = tree.ops[v - m]
        code[left], code[right] = np.divmod(code[v], cells[right])
    indices = list(zip(*((c + 1).tolist() for c in code[:m])))
    return SelectionResult(values=flat[picked].tolist(), indices=indices)


# ---------------------------------------------------------------------------
# Soft heap over the m-dimensional index tensor
# ---------------------------------------------------------------------------

def soft_tensor_select(arrays: Sequence[Sequence[float]], k: int, *,
                       stats: RunStats | None = None,
                       debug_checks: bool = False) -> SelectionResult:
    """k smallest sums via one soft heap over the index tensor.

    A cell that just set axis t to c has every later axis at 1, and is the
    one proposer of (t, 2c), (t, 2c+1), and (u, 2), (u, 3) for each u > t,
    where they exist; the root sets axis 0 to 1.  An item's payload is the
    int ``(p * m + t) * span + c``, p being its proposer's settle number.
    A settling cell keeps its node sums: its proposer's, with leaf t's path
    re-summed (``_Tree.advanced``).  A cell that set ``last``, the last
    axis with more than one value (0 if none has), opens no later axis,
    and its children read only the siblings on leaf t's path, which equal
    its proposer's: it shares its proposer's list.  Only ``debug_checks``
    computes cell codes (``_strides``), to refuse a cell proposed twice.
    """
    axes, k = _validated(arrays, k, stats)  # ascending, so each axis is already a binary heap
    mats = [a.values for a in axes]  # min(16, n) values or more: (u, 2), (u, 3) never miss
    m = len(mats)
    dims = [a.n for a in axes]
    span = max(dims) + 1
    last = max((t for t, n in enumerate(dims) if n > 1), default=0)
    tree = _Tree(m)
    advanced, child = tree.advanced, tree.child
    table = [tree.partials([a[0] for a in mats])]  # node sums by settle number

    soft = SoftHeap(1.0 / (3 * m))
    soft.insert(table[0][-1], 1)  # the root sets axis 0 to 1, proposed by entry 0
    insert, codes = soft.insert, None
    if debug_checks:  # cell codes by settle number, to refuse a cell proposed twice
        strides, codes, seen = _strides(dims), [0], {0}

        def insert(key: float, payload: int) -> None:
            c = payload % span
            cell = codes[-1] + (c - c // 2) * strides[payload // span % m]  # [-1]: the proposer
            if cell in seen:
                raise AssertionError(f"cell code {cell} proposed twice")
            seen.add(cell)
            soft.insert(key, payload)

    def propose(payload: int) -> None:
        rest, c = divmod(payload, span)
        p, t = divmod(rest, m)
        sums = table[p] if t == last else advanced(table[p], t, mats[t][c - 1])
        if codes is not None:
            codes.append(codes[p] + (c - c // 2) * strides[t] if p else 0)
        base = len(table) * m  # this cell's settle number, times m
        table.append(sums)
        c *= 2
        if c <= dims[t]:
            col, key = mats[t], (base + t) * span + c
            if c >= len(col):  # heap children jump past the realized prefix
                axes[t].reach(c + 1)
            insert(child(sums, t, col[c - 1]), key)
            if c < dims[t]:
                insert(child(sums, t, col[c]), key + 1)
        for u in range(t + 1, last + 1):
            n = dims[u]
            if n > 1:
                key = (base + u) * span
                insert(child(sums, u, mats[u][1]), key + 2)
                if n > 2:
                    insert(child(sums, u, mats[u][2]), key + 3)

    pool: list = []
    pop_and_pool(soft, k, pool, propose)
    if stats is not None:
        stats.values_generated += soft.insert_count
        stats.corrupted_count += soft.corrupted_count
        stats.fringe_peak = max(stats.fringe_peak, soft.peak_size)
    return SelectionResult(values=select_k(pool, k))


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
    axes, k = _validated(arrays, k, stats)
    outs = [a.reach(min(k, a.n))[:k] for a in axes]  # min(k, cells) values per node
    for left, right in _Tree(len(axes)).ops:
        want = min(k, len(outs[left]) * len(outs[right]))
        outs.append(soft_select_pairwise(outs[left], outs[right], want, stats=stats))
    if stats is not None:
        stats.values_generated += sum(len(out) for out in outs)
    return SelectionResult(values=outs[-1])


# ---------------------------------------------------------------------------
# Sorted enumeration over the m-dimensional tensor
# ---------------------------------------------------------------------------

def sort_tensor_select(arrays: Sequence[Sequence[float]], k: int, *,
                       stats: RunStats | None = None) -> SelectionResult:
    """k smallest sums in ascending order, with index tuples.

    A fringe of candidate cells grows from (1, ..., 1).  Each cell has one
    proposer, as in ``soft_tensor_select``: a popped cell that advanced axis t
    over its parent pushes its successors along axes t..last only, ``last``
    being the last open axis, the last with more than one value.  Indices
    address the ascending order of each axis.  The fringe keys a cell by its
    code (``_strides``), so equal sums pop in index-tuple order, a proposer
    pops before the cell it proposes, and a successor's code is one addition.
    A fringe entry keeps its parent's tuple, the advanced axis and the
    parent's node sums: one list, shared by all the siblings it pushed and
    alive while any of them is in the fringe.  A pop copies it with only the
    advanced leaf's path re-summed (``_Tree.advanced``), except that a cell on
    the last open axis opens no later axis and shares its proposer's node
    sums, with no copy and no addition.
    """
    axes, k = _validated(arrays, k, stats)
    mats = [a.values for a in axes]
    m = len(mats)
    dims = [a.n for a in axes]
    last = max((t for t, n in enumerate(dims) if n > 1), default=0)
    tree = _Tree(m)
    strides = _strides(dims)

    # (sum, code, parent tuple, advanced axis, parent's node sums); the root's
    # parent is a step before it on axis 0, with the root's own sums
    first = tree.partials([a[0] for a in mats])
    fringe: list[tuple] = [(first[-1], 0, (0,) + (1,) * (m - 1), 0, first)]
    push, pop, advanced = heapq.heappush, heapq.heappop, tree.advanced
    peak = 1
    values: list[float] = []
    indices: list[tuple[int, ...]] = []
    for _ in range(k):
        val, code, parent, axis, sums = pop(fringe)
        i = parent[axis]
        idx = parent[:axis] + (i + 1,) + parent[axis + 1:]
        values.append(val)
        indices.append(idx)
        sums = sums if axis == last else advanced(sums, axis, mats[axis][i])
        for t in range(axis, last + 1):
            i = idx[t]
            if i == dims[t]:
                continue
            try:
                value = mats[t][i]
            except IndexError:
                value = axes[t].reach(i + 1)[i]
            push(fringe, (tree.child(sums, t, value), code + strides[t], idx, t, sums))
        if len(fringe) > peak:
            peak = len(fringe)
    if stats is not None:
        stats.values_generated += k + len(fringe)  # every push, the root's included
        stats.fringe_peak = max(stats.fringe_peak, peak)
    return SelectionResult(values=values, indices=indices)


# ---------------------------------------------------------------------------
# Balanced tree of two-way sorted enumerations
# ---------------------------------------------------------------------------

class _FringeGauge:
    """Entries held by all merge fringes of one sort-tree call, updated on
    each pop that changes them, and the most they held."""

    __slots__ = ("current", "peak")

    def __init__(self):
        self.current = 0
        self.peak = 0


class _SortMerge:
    """Two-way sorted merge of two children over their pair sums, read like an
    ascending axis: ``n`` cells, ``values`` the sums popped so far (ascending,
    extended in place) and ``reach(count)``.  A child is an
    ``AscendingPrefix`` or another merge, read in place: ``rows`` and
    ``cols`` count the values read from the left and right child.

    Each cell has one proposer: a popped (i, j) pushes (i, j+1), and
    (i+1, 1) too when j == 1.  The proposer orders before the cell in the
    fringe's (sum, i, j) order, so cells pop in that order and none is
    pushed twice.  Row i+1 is read when (i, 1) pops and column j+1 when
    (1, j) pops, so only the first pop, (1, 1), advances both counts, and
    only it reads column 2, which the check below enforces.
    With ``history`` (the default), ``history[t - 1]`` is the cell of the
    t-th value.  ``sort_tree_select`` keeps it only when asked for indices:
    recording every pop took about a fifth of a call at m=4, n=2048,
    k=16384 (perfbench's deep-k, paired runs).  Without it ``history`` is
    None, and the check counts ``values`` instead.
    """

    __slots__ = ("left", "right", "n", "values", "rows", "cols", "fringe", "history", "gauge")

    def __init__(self, left, right, gauge: _FringeGauge, history: bool = True):
        self.left, self.right, self.gauge = left, right, gauge
        self.n = left.n * right.n
        self.values: list[float] = []
        self.rows = self.cols = 1
        self.fringe = [(left.reach(1)[0] + right.reach(1)[0], 1, 1)]
        self.history: list[tuple[int, int]] | None = [] if history else None
        gauge.current += 1
        gauge.peak = max(gauge.peak, gauge.current)

    def reach(self, count: int) -> list[float]:
        """``values``, extended by pops to min(count, n) sums."""
        values, fringe, gauge = self.values, self.fringe, self.gauge
        left, right = self.left, self.right
        lv, rv, left_n, right_n = left.values, right.values, left.n, right.n
        record = None if self.history is None else self.history.append
        pop, push = heapq.heappop, heapq.heappush
        while len(values) < count and fringe:
            val, i, j = pop(fringe)
            values.append(val)
            if record:
                record((i, j))
            grown = -1  # fringe entries gained by this pop
            if j == 1 and i < left_n:  # (i, 1) cells pop in increasing i
                self.rows = i + 1
                if i == len(lv):
                    left.reach(i + 1)
                push(fringe, (lv[i] + rv[0], i + 1, 1))
                grown = 0
            if j < right_n:
                if j == self.cols:
                    if j == 1 and len(values) > 1:
                        raise AssertionError("column 2 read after the first pop")
                    self.cols = j + 1
                    if j == len(rv):
                        right.reach(j + 1)
                push(fringe, (lv[i - 1] + rv[j], i, j + 1))
                grown += 1
            if grown:
                gauge.current += grown
                if gauge.current > gauge.peak:
                    gauge.peak = gauge.current
        return values


def sort_tree_select(arrays: Sequence[Sequence[float]], k: int, *,
                     stats: RunStats | None = None,
                     want_indices: bool = False) -> SelectionResult:
    """k smallest sums in ascending order via a balanced tree of merges whose
    leaves are the axes themselves.  With ``want_indices`` each merge keeps
    its ``history`` (``history[t - 1]`` is the cell of the t-th value) and
    indices are decoded down the tree from it; without, no merge records its
    pops, and values and ``stats`` are the same."""
    axes, k = _validated(arrays, k, stats)
    m = len(axes)
    tree = _Tree(m)
    gauge = _FringeGauge()
    nodes: list = list(axes)
    for left, right in tree.ops:
        nodes.append(_SortMerge(nodes[left], nodes[right], gauge, want_indices))
    values = nodes[-1].reach(k)[:k]  # an axis root (m = 1) reads ahead of k
    indices = None
    if want_indices:
        ranks = [None] * (len(nodes) - 1) + [range(1, k + 1)]
        for v in range(len(nodes) - 1, m - 1, -1):
            left, right = tree.ops[v - m]
            history = nodes[v].history
            ranks[left], ranks[right] = zip(*[history[t - 1] for t in ranks[v]])
        indices = list(zip(*ranks[:m]))
    if stats is not None:
        pops = [0] * (len(nodes) - 1) + [k]  # a child's pops are what its parent read
        for v, (left, right) in enumerate(tree.ops, m):
            pops[left], pops[right] = nodes[v].rows, nodes[v].cols
        stats.pops_per_level = {d: sum(c) / len(c) for d, c in tree.levels(pops).items()}
        stats.values_generated += sum(pops)
        stats.fringe_peak = max(stats.fringe_peak, gauge.peak)
    return SelectionResult(values=values, indices=indices)


# ---------------------------------------------------------------------------
# Balanced tree of layer-ordered pair-sum generators
# ---------------------------------------------------------------------------

def fast_soft_tree_select(arrays: Sequence[Sequence[float]], k: int, *,
                          stats: RunStats | None = None,
                          alpha: float = DEFAULT_ALPHA) -> SelectionResult:
    """k smallest sums via a tree of layer-ordered pair-sum generators.

    Leaves slice each layer off their ascending array when asked;
    internal nodes generate their sum layers on demand, so each level of
    the tree produces only about alpha^2 times the values of the level
    above it.  The root generates ascending layers until it holds k
    values; the answer is its ascending prefix of k.  ``LayerSchedule``
    refuses a non-real alpha, or one outside (1, 2), with ``ParameterError``.
    """
    axes, k = _validated(arrays, k, stats)
    m = len(axes)
    tree = _Tree(m)
    nodes: list[LohGenerator] = [LeafGenerator(a, alpha) for a in axes]
    for left, right in tree.ops:
        nodes.append(PairSumNode(nodes[left], nodes[right], alpha))
    root = nodes[-1]
    while root.generated_count < k:
        root.generate_next_layer()
    if stats is not None:
        generated = tree.levels([n.generated_count for n in nodes])
        stats.generated_per_level = {d: sum(c) for d, c in generated.items()}
        pops = tree.levels([n.pops_total for n in nodes[m:]], m)
        stats.pops_per_level = {d: sum(c) / len(c) for d, c in pops.items()}
        for n in nodes[m:]:
            stats.corrupted_count += n.soft_heap.corrupted_count
            stats.fringe_peak = max(stats.fringe_peak, n.soft_heap.peak_size)
        stats.values_generated += sum(stats.generated_per_level.values())
    return SelectionResult(values=root.values[:k])


SELECTORS = {"soft-tensor": soft_tensor_select, "soft-tree": soft_tree_select,
             "sort-tensor": sort_tensor_select, "sort-tree": sort_tree_select,
             "fast-soft-tree": fast_soft_tree_select}
