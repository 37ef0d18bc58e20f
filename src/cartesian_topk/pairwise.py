"""Two-array machinery.

``soft_select_pairwise`` selects the k smallest sums A_i + B_j through a
soft heap over binary-heapified inputs: popping (i, j) proposes
(i, 2j), (i, 2j+1), and (2i, 1), (2i+1, 1) too when j == 1, so every
cell is proposed by exactly one parent.

``concatenation_select`` drives two layer generators until the generated
prefixes cover a k-selection on the concatenation A|B, generating about
alpha^2 * k values in total.

``PairSumNode`` stacks those two ideas into a layer generator for A+B:
each output layer is produced by a soft-heap selection whose proposals
walk the children's layer structure, parking each not-yet-realizable
index pair on the one side that blocks it until that side has
generated enough layers.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

from .loh import LayerSchedule, LohGenerator
from .select1d import (checked_axis, checked_k, require_finite, require_summable, select_k,
                       split_smallest)
from .soft_heap import SoftHeap, pop_and_pool

DEFAULT_EPSILON = 0.25


def soft_select_pairwise(a: Sequence[float], b: Sequence[float], k: int, *,
                         stats=None) -> list:
    """Exact k smallest values of the Cartesian sum A + B.

    Pops k candidates from a soft heap seeded at (1, 1); every popped or
    corrupted candidate contributes its true value to a pool and proposes
    its children, and the answer is an exact 1-D selection over the pool.
    Each input is checked like a selector's axis, so the sums are float64,
    and the two together like a selector's axes, so no sum overflows.
    """
    axis_a, axis_b = checked_axis(a, "a"), checked_axis(b, "b")
    require_finite(axis_a, "a")
    require_finite(axis_b, "b")
    k = checked_k(k, axis_a.size * axis_b.size)
    require_summable((axis_a, axis_b))
    heap_a, heap_b = axis_a.tolist(), axis_b.tolist()
    # heapq order gives a[i] <= a[2i], a[2i+1] in 1-based terms.
    heapq.heapify(heap_a)
    heapq.heapify(heap_b)
    na, nb = len(heap_a), len(heap_b)

    soft = SoftHeap(DEFAULT_EPSILON)
    insert = soft.insert
    # A cell's payload is its 0-based code i * nb + j, decoded once when it settles.
    insert(heap_a[0] + heap_b[0], 0)

    def propose(code) -> None:
        i, j = divmod(code, nb)
        if j == 0:
            for ci in (2 * i + 1, 2 * i + 2):
                if ci < na:
                    insert(heap_a[ci] + heap_b[0], ci * nb)
        for cj in (2 * j + 1, 2 * j + 2):
            if cj < nb:
                insert(heap_a[i] + heap_b[cj], i * nb + cj)

    pool: list = []
    pop_and_pool(soft, k, pool, propose)
    if stats is not None:
        stats.values_generated += soft.insert_count
        stats.corrupted_count += soft.corrupted_count
        stats.fringe_peak = max(stats.fringe_peak, soft.peak_size)
    return select_k(pool, k)


def concatenation_select(gen_a: LohGenerator, gen_b: LohGenerator, k: int,
                         offset_a: float = 0.0, offset_b: float = 0.0) -> None:
    """Generate layers until the k-selection on A|B is covered.

    Alternately generates a layer for whichever side has the smaller
    maximum generated so far until the combined generated count reaches
    k; then, unless the maxima tie, the smaller-max side keeps generating
    until it accumulates the last layer size of the larger-max side,
    stopping early once its maximum catches up.  Exhausted sides are
    skipped; with both sides exhausted the call returns with everything
    generated.  Each side's ``layer_count`` tells how far it went.

    ``offset_a``/``offset_b`` are subtracted from the respective maxima in
    every comparison, letting callers compare the two sides on a common
    zero point (the pair-sum node passes each side's minimum).
    """
    k = checked_k(k, math.inf)
    while gen_a.generated_count + gen_b.generated_count < k:
        a_more = gen_a.has_more_layers()
        b_more = gen_b.has_more_layers()
        if not a_more and not b_more:
            return
        if not a_more:
            gen_b.generate_next_layer()
        elif not b_more:
            gen_a.generate_next_layer()
        elif gen_a.max_generated() - offset_a <= gen_b.max_generated() - offset_b:
            gen_a.generate_next_layer()
        else:
            gen_b.generate_next_layer()

    max_a = gen_a.max_generated() - offset_a
    max_b = gen_b.max_generated() - offset_b
    if max_a == max_b:
        return
    if max_a < max_b:
        small, small_off, big, big_off = gen_a, offset_a, gen_b, offset_b
    else:
        small, small_off, big, big_off = gen_b, offset_b, gen_a, offset_a
    stop = small.generated_count + big.size_of_last_layer()
    while small.generated_count < stop and small.has_more_layers():
        small.generate_next_layer()
        if small.max_generated() - small_off >= big.max_generated() - big_off:
            break


class PairSumNode(LohGenerator):
    """Layer generator for A + B over two child layer generators.

    Settling (i, j) proposes (i, 2j), (i, 2j+1), and (2i, 1), (2i+1, 1) too
    when j == 1, in the children's layer orders (``child_positions``).  Every
    proposed pair lives in exactly one place until consumed: the soft heap
    (both coordinates inside the generated child prefixes, value known), or
    the purgatory list of the one side whose generated prefix it points past:
    a proposal keeps B's coordinate 1, which every child realizes in its
    constructor, or a settled pair's coordinate of A, so no pair is blocked on
    both sides.  Pairs pointing past a child's total size are never made.

    The node keeps one soft heap for its lifetime.  ``_next_layer`` makes
    each output layer by: covering the child prefixes via concatenation
    selection, reviving purgatory pairs whose blocking side has grown, one
    counted extraction per output slot (``pop_and_pool``), and an exact
    1-D selection over the values settled plus those carried over.  So
    ``proposed_total`` is the heap's inserts plus the parked pairs, and
    ``processed_total`` the generated values plus the carry-over.

    Settled corrupted items stay in the heap, yet each layer is exact.
    Take any cell x not yet pooled and not behind a parked pair (the
    concatenation cover does not need those yet).  Its first unsettled
    ancestor y is in the heap, uncorrupted, with key(y) <= x, so every
    counted extraction settles a distinct item in this call whose
    own key is <= key(y) <= x: the pool has ``layer_size`` of them.

    The node does not check its children's values.  Over leaves whose sums
    overflow float64 it generates ``inf``; where they overflow both ways
    (one child's ``inf`` meets the other's ``-inf``) it generates NaN, and
    its layers are then no longer ascending.  The selectors rule both out
    at their boundary (``select1d.require_summable``).
    """

    __slots__ = ("left", "right", "soft_heap", "purgatory_a", "purgatory_b",
                 "carryover", "_seen_a", "_seen_b", "pops_total", "_debug_cells")

    def __init__(self, left: LohGenerator, right: LohGenerator, alpha: float,
                 debug_accounting: bool = False):
        super().__init__(LayerSchedule(alpha, left.total_size * right.total_size))
        self.left = left
        self.right = right
        self.soft_heap = SoftHeap(DEFAULT_EPSILON)
        self.purgatory_a: list[tuple[int, int]] = []
        self.purgatory_b: list[tuple[int, int]] = []
        self.carryover: list = []
        self._seen_a = left.generated_count
        self._seen_b = right.generated_count
        # Lifetime total; soft_heap counts its own inserts, corruption and peak.
        self.pops_total = 0
        self._debug_cells = set() if debug_accounting else None
        self._propose(1, 1)
        self.generate_next_layer()

    def _next_layer(self, end: int) -> list:
        # Child prefixes must cover a (k'+1)-selection on A|B, compared on
        # a common zero point, for the k'-selection on A+B to be realizable.
        concatenation_select(self.left, self.right, end + 1,
                             offset_a=self.left.values[0], offset_b=self.right.values[0])
        self._flush_purgatories()
        layer_size = end - self.generated_count
        self.pops_total += pop_and_pool(self.soft_heap, layer_size, self.carryover, self._settle)
        layer, self.carryover = split_smallest(self.carryover, layer_size)
        return layer

    # -- internals -------------------------------------------------------------

    def _settle(self, cell) -> None:
        ia, ib = cell
        # The scheme proposes each pair once, so it is admitted at once;
        # debug_accounting routes it through _propose's check first.
        admit = self._admit if self._debug_cells is None else self._propose
        if ib == 1:
            for ca in self.left.schedule.child_positions(ia):
                admit(ca, 1)
        for cb in self.right.schedule.child_positions(ib):
            admit(ia, cb)

    def _propose(self, ia: int, ib: int) -> None:
        # First (and only) proposal of a pair; the scheme is duplicate-free.
        if self._debug_cells is not None:
            if (ia, ib) in self._debug_cells:
                raise AssertionError(f"pair {(ia, ib)} proposed twice")
            self._debug_cells.add((ia, ib))
        self._admit(ia, ib)

    def _admit(self, ia: int, ib: int) -> None:
        # Routes a pair to the soft heap or the purgatory of the side blocking it.
        if ia > self.left.generated_count:
            self.purgatory_a.append((ia, ib))
        elif ib > self.right.generated_count:
            self.purgatory_b.append((ia, ib))
        else:
            self.soft_heap.insert(self.left.values[ia - 1] + self.right.values[ib - 1], (ia, ib))

    def _flush_purgatories(self) -> None:
        # A-parked pairs are reconsidered only when A has grown, likewise B.
        a_gained = self.left.generated_count > self._seen_a
        b_gained = self.right.generated_count > self._seen_b
        self._seen_a = self.left.generated_count
        self._seen_b = self.right.generated_count
        retry: list[tuple[int, int]] = []
        if a_gained and self.purgatory_a:
            retry.extend(self.purgatory_a)
            self.purgatory_a = []
        if b_gained and self.purgatory_b:
            retry.extend(self.purgatory_b)
            self.purgatory_b = []
        for ia, ib in retry:
            self._admit(ia, ib)

    def parked_count(self) -> int:
        return len(self.purgatory_a) + len(self.purgatory_b)

    @property
    def proposed_total(self) -> int:
        return self.soft_heap.insert_count + self.parked_count()

    @property
    def processed_total(self) -> int:  # read between layers
        return self.generated_count + len(self.carryover)
