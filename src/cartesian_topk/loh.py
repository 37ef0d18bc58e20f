"""Layer-ordered heaps.

A layer-ordered heap of rank alpha partitions values into layers
L1, L2, ... with max(L_i) <= min(L_{i+1}); intra-layer order is
arbitrary and consecutive layer sizes approach the ratio alpha.
This module provides the layer-size schedule, the parent/child offset
arithmetic between adjacent layers, ``LayerOrderedHeap`` with its
structural verifier, linear-time construction by repeated partitioning
(``lohify`` over ``split_at``), k-selection through it
(``select_k_loh``), and ``LohGenerator``: a layer-ordered heap still
being filled, the one base of every generator that streams layers on
demand.  The base takes the whole layer step and answers every query
about the generated values, while ``LeafGenerator`` and
``pairwise.PairSumNode`` only make each layer's values
(``_next_layer``).  A leaf slices each layer off an ``AscendingPrefix``,
its axis realized in ascending order only as far as it is read, and a
pair-sum node's layer is the ascending kept part of a
``select1d.split_smallest`` cut, so every generator's values are
ascending.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from typing import Sequence

import numpy as np

from .errors import ContractViolation, ParameterError
from .select1d import AscendingPrefix, checked_axis, checked_k, require_finite


class LayerSchedule:
    """Cumulative layer totals for rank ``alpha`` truncated to ``n`` items.

    Totals follow T1 = 1, T_{i+1} = max(T_i + 1, ceil(alpha * T_i)), so
    T2 = 2, full-layer sizes never shrink, never more than double, and
    their ratio tends to alpha.  Only the final layer may be truncated
    (it absorbs whatever remains of n).  Totals are computed on demand,
    only as far as a layer or position asked about, so ``n`` may be far
    beyond what a float can hold.  ``child_positions`` keeps each answer,
    which depends on the position alone, in a dict filled as positions are
    first asked.  Every total and answer depends on (alpha, n) alone, so
    generators of one size can share a schedule: ``fast_soft_tree_select``
    builds one per node size per call and hands it to every node of that
    size (``schedule_for``).  Filling a schedule changes its lists, so a
    schedule is shared only within one call.
    """

    __slots__ = ("alpha", "n", "_totals", "_kids")

    def __init__(self, alpha: float, n: int):
        if isinstance(alpha, bool) or not (isinstance(alpha, numbers.Real) and 1.0 < alpha < 2.0):
            raise ParameterError(f"alpha must be a real number in (1, 2), got {alpha!r}")
        self.alpha = alpha
        self.n = checked_k(n, math.inf, name="n")
        self._totals = [1]
        self._kids: dict[int, tuple[int, ...]] = {}

    @property
    def num_layers(self) -> int:
        """Number of layers; computes every total."""
        self._extend(self.n)
        return len(self._totals)

    def has_layer(self, i: int) -> bool:
        """True iff layer i exists; computes totals through layer i at most."""
        if i > len(self._totals):
            self._extend(i)
        return 1 <= i <= len(self._totals)

    def total(self, i: int) -> int:
        """Cumulative item count through layer i, truncated to n."""
        if not 0 < i <= len(self._totals):
            self._check_layer(i)
        return min(self._totals[i - 1], self.n)

    def size(self, i: int) -> int:
        """Actual size of layer i (the last layer may be truncated)."""
        self._check_layer(i)
        prev = self._totals[i - 2] if i > 1 else 0
        return min(self._totals[i - 1], self.n) - prev

    def full_size(self, i: int) -> int:
        """Untruncated size of layer i as the recurrence defines it."""
        self._check_layer(i)
        prev = self._totals[i - 2] if i > 1 else 0
        return self._totals[i - 1] - prev

    def child_positions(self, pos: int) -> tuple[int, ...]:
        """Flat positions of the children of ``pos``: ``children_of`` plus the
        layer's base, dropping those past n; none in the last layer."""
        try:  # on fast-soft-tree's hot path, where nearly every position is asked again
            return self._kids[pos]
        except KeyError:
            pass
        kids = self._kids[pos] = self._child_positions(pos)
        return kids

    def _child_positions(self, pos: int) -> tuple[int, ...]:
        if pos < 1 or pos > self.n:
            raise ContractViolation(f"position {pos} outside [1, {self.n}]")
        totals = self._totals
        if totals[-1] < pos:
            self._extend(0, pos)
        i = bisect_left(totals, pos)
        if i + 1 == len(totals):
            if totals[i] >= self.n:
                return ()
            self._extend(i + 2)
        prev, end = totals[i - 1] if i else 0, totals[i]
        j = pos - prev
        two_child = totals[i + 1] - 2 * end + prev  # next full size minus this one
        kids = (end + 2 * j - 1, end + 2 * j) if j <= two_child else (end + j + two_child,)
        return kids if kids[-1] <= self.n else tuple(c for c in kids if c <= self.n)

    def _check_layer(self, i: int) -> None:
        if (i < 1 or i > len(self._totals)) and not self.has_layer(i):
            raise ContractViolation(f"layer {i} does not exist for n={self.n}")

    def _extend(self, i: int, pos: int = 0) -> None:
        # Append totals until layer i and position pos are covered, or all of n.
        totals = self._totals
        t = totals[-1]
        while (len(totals) < i or t < pos) and t < self.n:
            t = max(t + 1, math.ceil(self.alpha * t))
            totals.append(t)


def schedule_for(alpha: float, n: int, schedule: LayerSchedule | None = None) -> LayerSchedule:
    """``schedule`` if it is a schedule for (alpha, n), a new one if it is None.

    A generator of n items at rank alpha takes its layers from this, so a
    caller may share one schedule among generators of one size; a schedule
    for another alpha or n raises ``ContractViolation``.
    """
    if schedule is None:
        return LayerSchedule(alpha, n)
    if not (isinstance(schedule, LayerSchedule) and schedule.alpha == alpha and schedule.n == n):
        raise ContractViolation(f"schedule is not a LayerSchedule for alpha={alpha!r}, n={n}")
    return schedule


def children_of(schedule: LayerSchedule, i: int, j: int) -> tuple[int, ...]:
    """Offsets in layer i+1 of the children of offset j in layer i.

    With c = size(i) and c' = full size of layer i+1, the first
    c' - c offsets have two children (j -> 2j-1, 2j); the rest have one
    (j -> j + (c' - c)).  Offsets are 1-based; over a whole layer the
    images are disjoint and cover 1..c' exactly.  Callers reading a
    truncated final layer must bounds-check the returned offsets.
    """
    if not schedule.has_layer(checked_k(i, math.inf, name="i") + 1):
        raise ContractViolation(f"layer {i + 1} does not exist in the schedule")
    c = schedule.full_size(i)
    c_next = schedule.full_size(i + 1)
    j = checked_k(j, c, name="j")
    two_child = c_next - c  # one-child count is 2c - c', so this many get two
    if j <= two_child:
        return (2 * j - 1, 2 * j)
    return (j + two_child,)


class LayerOrderedHeap:
    """Values stored flat, layered by a schedule; ``values`` may be a
    generated prefix of the ``schedule.n`` values, whole layers only."""

    __slots__ = ("values", "schedule")

    def __init__(self, values: list, schedule: LayerSchedule):
        self.values = values
        self.schedule = schedule

    def layer(self, i: int) -> list:
        """The values of layer i (copy; intra-layer order is arbitrary)."""
        end = self.schedule.total(i)
        if end > len(self.values):
            raise ContractViolation(f"layer {i} not generated yet")
        return self.values[self.schedule.total(i - 1) if i > 1 else 0:end]


def lohify(values: Sequence[float], alpha: float) -> LayerOrderedHeap:
    """Partition values into layer-ordered form.

    Boundaries are realized by selection-based splits taken in balanced
    order (median boundary first), keeping the work at
    O(n log(1/(alpha-1))) instead of the O(n * #layers) of a
    left-to-right sweep.
    """
    axis = checked_axis(values, "values")
    require_finite(axis, "values")
    vals = axis.tolist()
    schedule = LayerSchedule(alpha, len(vals))
    bounds = [schedule.total(i) for i in range(1, schedule.num_layers)]
    _multi_split(vals, 0, len(vals), bounds, 0, len(bounds))
    return LayerOrderedHeap(vals, schedule)


def split_at(a: list, lo: int, hi: int, rank: int) -> None:
    """Rearrange ``a[lo:hi]`` in place so a[lo:rank] <= min(a[rank:hi]).

    ``rank`` is an absolute position with lo <= rank <= hi.  Writes back
    ``np.partition`` of the segment (deterministic, worst case linear).
    """
    if lo < rank < hi:
        a[lo:hi] = np.partition(a[lo:hi], rank - lo).tolist()


def _multi_split(a: list, lo: int, hi: int, bounds: list[int], blo: int, bhi: int) -> None:
    if blo >= bhi:
        return
    mid = (blo + bhi) // 2
    cut = bounds[mid]
    split_at(a, lo, hi, cut)
    _multi_split(a, lo, cut, bounds, blo, mid)
    _multi_split(a, cut, hi, bounds, mid + 1, bhi)


def verify_loh(heap: LayerOrderedHeap) -> bool:
    """True iff every layer is present and max(L_i) <= min(L_{i+1})."""
    sched = heap.schedule
    if len(heap.values) != sched.n:
        return False
    prev_max = -math.inf
    for i in range(1, sched.num_layers + 1):
        block = heap.layer(i)
        if min(block) < prev_max:
            return False
        prev_max = max(block)
    return True


def select_k_loh(values: Sequence[float], k: int, alpha: float) -> list:
    """select_k's multiset, unsorted, through layer-ordered partitioning.

    Layers are accumulated smallest-first until the running total reaches
    k; the layer that overshoots is itself layer-partitioned and the
    search continues inside it, following the recurrence
    r(k) = k + r((alpha - 1) * k).
    """
    LayerSchedule(alpha, 1)  # the alpha check, also when k = n needs no layers
    axis = checked_axis(values, "values")
    require_finite(axis, "values")
    k = checked_k(k, axis.size)

    out: list = []
    segment = axis.tolist()
    need = k
    while need > 0:
        if need >= len(segment):
            out.extend(segment)
            break
        heap = lohify(segment, alpha)
        acc = 0
        overshoot = None
        for i in range(1, heap.schedule.num_layers + 1):
            layer = heap.layer(i)
            if acc + len(layer) <= need:
                out.extend(layer)
                acc += len(layer)
                if acc == need:
                    break
            else:
                overshoot = layer
                break
        need -= acc
        if need == 0:
            break
        segment = overshoot
    return out


class LohGenerator(LayerOrderedHeap):
    """A layer-ordered heap still being filled, one whole layer at a time.

    ``values`` holds exactly the generated layers flat, smallest layer
    first, and ``schedule`` alone fixes every layer's size, so ``layer(i)``
    refuses a layer not generated yet.  A subclass supplies only how a
    layer's values are made: ``_next_layer(end)`` returns the values at
    flat positions ``generated_count`` to ``end`` in ascending order, none
    below the values already generated.  ``generate_next_layer`` takes the
    whole step, appending that layer and recording its count, and does
    nothing once ``has_more_layers()`` is false; a subclass constructor
    calls it once for the first layer.  Layers are immutable once
    generated and ``values`` is ascending, so ``max_generated``, its last
    value, never decreases.
    """

    __slots__ = ("layer_count", "generated_count")

    def __init__(self, schedule: LayerSchedule):
        super().__init__([], schedule)
        self.layer_count = 0
        self.generated_count = 0

    def generate_next_layer(self) -> None:
        if self.generated_count == self.schedule.n:
            return
        end = self.schedule.total(self.layer_count + 1)
        self.values.extend(self._next_layer(end))
        self.layer_count += 1
        self.generated_count = end

    def _next_layer(self, end: int) -> list:
        raise NotImplementedError

    def has_more_layers(self) -> bool:
        return self.generated_count < self.schedule.n

    def max_generated(self) -> float:
        return self.values[-1]

    def size_of_last_layer(self) -> int:
        return self.schedule.size(self.layer_count)

    @property
    def total_size(self) -> int:
        return self.schedule.n


class LeafGenerator(LohGenerator):
    """Generator over a fixed axis that slices its ascending prefix into layers.

    ``values`` is an ``AscendingPrefix``, or a sequence checked like a
    selector's axis whose float64 copy is read into one, so later changes
    to the caller's sequence never reach it.
    Each layer is the next ``schedule.size(i)`` values of the prefix, so
    the generated prefix is sorted, a valid layer order at any alpha.
    ``schedule``, when given, is the leaf's layer schedule, shared with
    other generators of its size (``schedule_for``).
    The constructor makes the first layer.
    """

    __slots__ = ("_axis",)

    def __init__(self, values: Sequence[float] | AscendingPrefix, alpha: float, *,
                 schedule: LayerSchedule | None = None):
        if not isinstance(values, AscendingPrefix):
            values = checked_axis(values, "values")
            require_finite(values, "values")
            values = AscendingPrefix(values.copy())
        super().__init__(schedule_for(alpha, values.n, schedule))
        self._axis = values
        self.generate_next_layer()

    def _next_layer(self, end: int) -> list:
        return self._axis.reach(end)[self.generated_count:end]
