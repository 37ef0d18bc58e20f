"""Layer-ordered heaps.

A layer-ordered heap of rank alpha partitions values into layers
L1, L2, ... with max(L_i) <= min(L_{i+1}); intra-layer order is
arbitrary and consecutive layer sizes approach the ratio alpha.
This module provides the layer-size schedule, linear-time construction
by repeated partitioning (``lohify``), the structural verifier, the
parent/child offset arithmetic between adjacent layers, and the
generator interface used by consumers that stream layers on demand.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import Sequence

from .errors import ContractViolation, ParameterError
from .select1d import split_at


class LayerSchedule:
    """Cumulative layer totals for rank ``alpha`` truncated to ``n`` items.

    Totals follow T1 = 1, T_{i+1} = max(T_i + 1, ceil(alpha * T_i)), so
    T2 = 2, full-layer sizes never shrink, never more than double, and
    their ratio tends to alpha.  Only the final layer may be truncated
    (it absorbs whatever remains of n).
    """

    __slots__ = ("alpha", "n", "_totals")

    def __init__(self, alpha: float, n: int):
        if not 1.0 < alpha < 2.0:
            raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
        if n < 1:
            raise ContractViolation(f"n must be positive, got {n}")
        self.alpha = alpha
        self.n = n
        totals = [1]
        while totals[-1] < n:
            t = totals[-1]
            totals.append(max(t + 1, math.ceil(alpha * t)))
        self._totals = totals

    @property
    def num_layers(self) -> int:
        return len(self._totals)

    def total(self, i: int) -> int:
        """Cumulative item count through layer i, truncated to n."""
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

    def layer_of(self, pos: int) -> tuple[int, int]:
        """Map a 1-based flat position to (layer index, 1-based offset)."""
        if pos < 1 or pos > self.n:
            raise ContractViolation(f"position {pos} outside [1, {self.n}]")
        i = bisect_left(self._totals, pos)
        prev = self._totals[i - 1] if i > 0 else 0
        return i + 1, pos - prev

    def _check_layer(self, i: int) -> None:
        if i < 1 or i > len(self._totals):
            raise ContractViolation(f"layer {i} outside [1, {len(self._totals)}]")


def layer_schedule(alpha: float, n: int) -> LayerSchedule:
    """Build the layer-size schedule for ``n`` items at rank ``alpha``."""
    return LayerSchedule(alpha, n)


def children_of(schedule: LayerSchedule, i: int, j: int) -> tuple[int, ...]:
    """Offsets in layer i+1 of the children of offset j in layer i.

    With c = size(i) and c' = full size of layer i+1, the first
    c' - c offsets have two children (j -> 2j-1, 2j); the rest have one
    (j -> j + (c' - c)).  Offsets are 1-based; over a whole layer the
    images are disjoint and cover 1..c' exactly.  Callers reading a
    truncated final layer must bounds-check the returned offsets.
    """
    if i < 1 or i + 1 > schedule.num_layers:
        raise ContractViolation(f"layer {i + 1} does not exist in the schedule")
    c = schedule.full_size(i)
    c_next = schedule.full_size(i + 1)
    if j < 1 or j > c:
        raise ContractViolation(f"offset {j} outside [1, {c}] in layer {i}")
    two_child = c_next - c  # one-child count is 2c - c', so this many get two
    if j <= two_child:
        return (2 * j - 1, 2 * j)
    return (j + two_child,)


class LayerOrderedHeap:
    """A permutation of the input stored flat, layered by a schedule."""

    __slots__ = ("values", "schedule")

    def __init__(self, values: list, schedule: LayerSchedule):
        self.values = values
        self.schedule = schedule

    @property
    def num_layers(self) -> int:
        return self.schedule.num_layers

    def layer(self, i: int) -> list:
        """The values of layer i (copy; intra-layer order is arbitrary)."""
        start = self.schedule.total(i - 1) if i > 1 else 0
        return self.values[start:self.schedule.total(i)]


def lohify(values: Sequence[float], alpha: float) -> LayerOrderedHeap:
    """Partition values into layer-ordered form.

    Boundaries are realized by selection-based splits taken in balanced
    order (median boundary first), keeping the work at
    O(n log(1/(alpha-1))) instead of the O(n * #layers) of a
    left-to-right sweep.
    """
    vals = list(values)
    if not vals:
        raise ContractViolation("cannot lohify an empty sequence")
    schedule = LayerSchedule(alpha, len(vals))
    bounds = [schedule.total(i) for i in range(1, schedule.num_layers)]
    _multi_split(vals, 0, len(vals), bounds, 0, len(bounds))
    return LayerOrderedHeap(vals, schedule)


def _multi_split(a: list, lo: int, hi: int, bounds: list[int], blo: int, bhi: int) -> None:
    if blo >= bhi:
        return
    mid = (blo + bhi) // 2
    cut = bounds[mid]
    split_at(a, lo, hi, cut)
    _multi_split(a, lo, cut, bounds, blo, mid)
    _multi_split(a, cut, hi, bounds, mid + 1, bhi)


def verify_loh(heap: LayerOrderedHeap) -> bool:
    """True iff sizes match the schedule and max(L_i) <= min(L_{i+1})."""
    sched = heap.schedule
    if len(heap.values) != sched.n:
        return False
    prev_max = None
    pos = 0
    for i in range(1, sched.num_layers + 1):
        size = sched.size(i)
        if size <= 0:
            return False
        block = heap.values[pos:pos + size]
        if len(block) != size:
            return False
        lo = min(block)
        if prev_max is not None and lo < prev_max:
            return False
        prev_max = max(block)
        pos += size
    return pos == len(heap.values)


class LohGenerator(ABC):
    """A source of layer-ordered values produced one whole layer at a time.

    Layers come smallest-first and are immutable once generated, so
    ``max_generated`` never decreases.  ``generate_next_layer`` is a
    no-op once every layer exists.
    """

    @abstractmethod
    def has_more_layers(self) -> bool: ...

    @abstractmethod
    def generate_next_layer(self) -> None: ...

    @property
    @abstractmethod
    def layer_count(self) -> int: ...

    @abstractmethod
    def layer(self, i: int) -> list: ...

    @abstractmethod
    def max_generated(self) -> float: ...

    @abstractmethod
    def size_of_last_layer(self) -> int: ...

    # Extensions used by pairwise consumers.

    @property
    @abstractmethod
    def total_size(self) -> int: ...

    @property
    @abstractmethod
    def generated_count(self) -> int: ...

    @abstractmethod
    def value_at(self, pos: int) -> float:
        """Value at a 1-based flat position within the generated prefix."""

    @property
    @abstractmethod
    def schedule(self) -> LayerSchedule: ...

    def min_value(self) -> float:
        return self.value_at(1)


class LeafGenerator(LohGenerator):
    """Generator over a fixed array, layer-ordered up front.

    The array is LOHified at construction; generating a layer just makes
    the next block visible to the consumer.  The first layer is exposed
    immediately.
    """

    __slots__ = ("_heap", "_exposed", "_layer_maxima")

    def __init__(self, values: Sequence[float], alpha: float):
        self._heap = lohify(values, alpha)
        maxima = []
        running = None
        for i in range(1, self._heap.num_layers + 1):
            m = max(self._heap.layer(i))
            running = m if running is None else max(running, m)
            maxima.append(running)
        self._layer_maxima = maxima
        self._exposed = 1

    def has_more_layers(self) -> bool:
        return self._exposed < self._heap.num_layers

    def generate_next_layer(self) -> None:
        if self._exposed < self._heap.num_layers:
            self._exposed += 1

    @property
    def layer_count(self) -> int:
        return self._exposed

    def layer(self, i: int) -> list:
        if i < 1 or i > self._exposed:
            raise ContractViolation(f"layer {i} not generated yet")
        return self._heap.layer(i)

    def max_generated(self) -> float:
        return self._layer_maxima[self._exposed - 1]

    def size_of_last_layer(self) -> int:
        return self._heap.schedule.size(self._exposed)

    @property
    def total_size(self) -> int:
        return self._heap.schedule.n

    @property
    def generated_count(self) -> int:
        return self._heap.schedule.total(self._exposed)

    def value_at(self, pos: int) -> float:
        return self._heap.values[pos - 1]

    @property
    def schedule(self) -> LayerSchedule:
        return self._heap.schedule
