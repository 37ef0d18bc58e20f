"""Two-array machinery.

``soft_select_pairwise`` selects the k smallest sums A_i + B_j through a
soft heap over binary-heapified inputs: popping (i, j) proposes
{(2i,1), (2i+1,1), (i,2), (i,3)} when j == 1 and {(i,2j), (i,2j+1)}
otherwise, so every cell is proposed by exactly one parent.

``concatenation_select`` drives two layer generators until the generated
prefixes cover a k-selection on the concatenation A|B, generating about
alpha^2 * k values in total.

``PairSumNode`` stacks those two ideas into a layer generator for A+B:
each output layer is produced by a soft-heap selection whose proposals
walk the children's layer structure, parking not-yet-realizable index
pairs in purgatory lists until the blocking side has generated enough
layers.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .errors import ContractViolation
from .loh import LayerSchedule, LohGenerator, children_of, layer_schedule
from .select1d import select_k, split_smallest
from .soft_heap import SoftHeap, pop_and_pool

DEFAULT_EPSILON = 0.25


def soft_select_pairwise(a: Sequence[float], b: Sequence[float], k: int,
                         stats=None) -> list:
    """Exact k smallest values of the Cartesian sum A + B.

    Pops k candidates from a soft heap seeded at (1, 1); every popped or
    corrupted candidate contributes its true value to a pool and proposes
    its children, and the answer is an exact 1-D selection over the pool.
    """
    heap_a = list(a)
    heap_b = list(b)
    if not heap_a or not heap_b:
        raise ContractViolation("both inputs must be nonempty")
    total = len(heap_a) * len(heap_b)
    if k < 1 or k > total:
        raise ContractViolation(f"k={k} outside [1, {total}]")
    # heapq order gives a[i] <= a[2i], a[2i+1] in 1-based terms.
    heapq.heapify(heap_a)
    heapq.heapify(heap_b)
    na, nb = len(heap_a), len(heap_b)

    soft = SoftHeap(DEFAULT_EPSILON)
    soft.insert(heap_a[0] + heap_b[0], (1, 1))

    def propose(e) -> None:
        i, j = e.payload
        if j == 1:
            for ci in (2 * i, 2 * i + 1):
                if ci <= na:
                    soft.insert(heap_a[ci - 1] + heap_b[0], (ci, 1))
            for cj in (2, 3):
                if cj <= nb:
                    soft.insert(heap_a[i - 1] + heap_b[cj - 1], (i, cj))
        else:
            for cj in (2 * j, 2 * j + 1):
                if cj <= nb:
                    soft.insert(heap_a[i - 1] + heap_b[cj - 1], (i, cj))

    pool: list = []
    pop_and_pool(soft, k, pool, propose)
    if stats is not None:
        stats.values_generated += soft.insert_count
        stats.corrupted_count += soft.corrupted_count
        stats.fringe_peak = max(stats.fringe_peak, soft.peak_size)
    return select_k(pool, k)


def concatenation_select(gen_a: LohGenerator, gen_b: LohGenerator, k: int,
                         offset_a: float = 0.0, offset_b: float = 0.0) -> tuple[int, int]:
    """Generate layers until the k-selection on A|B is covered.

    Alternately generates a layer for whichever side has the smaller
    maximum generated so far until the combined generated count reaches
    k; then, unless the maxima tie, the smaller-max side keeps generating
    until it accumulates the last layer size of the larger-max side,
    stopping early once its maximum catches up.  Exhausted sides are
    skipped; with both sides exhausted the call returns with everything
    generated.  Returns the two layer counts.

    ``offset_a``/``offset_b`` are subtracted from the respective maxima in
    every comparison, letting callers compare the two sides on a common
    zero point (the pair-sum node passes each side's minimum).
    """
    if k < 1:
        raise ContractViolation(f"k must be positive, got {k}")
    while gen_a.generated_count + gen_b.generated_count < k:
        a_more = gen_a.has_more_layers()
        b_more = gen_b.has_more_layers()
        if not a_more and not b_more:
            return gen_a.layer_count, gen_b.layer_count
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
        return gen_a.layer_count, gen_b.layer_count
    if max_a < max_b:
        small, small_off, big, big_off = gen_a, offset_a, gen_b, offset_b
    else:
        small, small_off, big, big_off = gen_b, offset_b, gen_a, offset_a
    budget = big.size_of_last_layer()
    accumulated = 0
    while accumulated < budget and small.has_more_layers():
        small.generate_next_layer()
        accumulated += small.size_of_last_layer()
        if small.max_generated() - small_off >= big.max_generated() - big_off:
            break
    return gen_a.layer_count, gen_b.layer_count


class PairSumNode(LohGenerator):
    """Layer generator for A + B over two child layer generators.

    Every proposed index pair lives in exactly one place until consumed:
    the soft heap (both coordinates inside the generated child prefixes,
    value known), or one of three purgatory lists (coordinate beyond the
    generated prefix of A, of B, or both).  Pairs pointing past a child's
    total size are never created at all.

    Each output layer is produced by: covering the child prefixes via
    concatenation selection, reviving purgatory pairs whose blocking side
    has grown, popping the soft heap once per output slot, an exact 1-D
    selection over popped + corrupted + carried-over values, and a
    soft-heap rebuild so corruption never accumulates across layers.
    """

    __slots__ = ("left", "right", "alpha", "values", "_layer_sizes",
                 "_layer_max", "_total", "_schedule", "_soft", "purgatory_a",
                 "purgatory_b", "purgatory_ab", "carryover", "_left_min",
                 "_right_min", "_seen_a", "_seen_b",
                 "soft_heap_corrupted", "pops_total", "soft_heap_peak",
                 "proposed_total", "processed_total", "live_in_heap",
                 "_debug_cells")

    def __init__(self, left: LohGenerator, right: LohGenerator, alpha: float,
                 debug_accounting: bool = False):
        self.left = left
        self.right = right
        self.alpha = alpha
        self._total = left.total_size * right.total_size
        self._schedule = layer_schedule(alpha, self._total)
        self.values: list = []
        self._layer_sizes: list[int] = []
        self._layer_max: list[float] = []
        self._soft = SoftHeap(DEFAULT_EPSILON)
        self.purgatory_a: list[tuple[int, int]] = []
        self.purgatory_b: list[tuple[int, int]] = []
        self.purgatory_ab: list[tuple[int, int]] = []
        self.carryover: list = []
        self._left_min = left.min_value()
        self._right_min = right.min_value()
        self._seen_a = left.generated_count
        self._seen_b = right.generated_count
        # Totals over every soft-heap epoch; complete between layers, since
        # each layer ends with a rebuild that folds the old heap in.
        self.soft_heap_corrupted = 0
        self.pops_total = 0
        self.soft_heap_peak = 0
        self.proposed_total = 0
        self.processed_total = 0
        self.live_in_heap = 0
        self._debug_cells = set() if debug_accounting else None
        self._propose(1, 1)
        self.generate_next_layer()

    # -- generator interface -------------------------------------------------

    def has_more_layers(self) -> bool:
        return len(self.values) < self._total

    def generate_next_layer(self) -> None:
        if not self.has_more_layers():
            return
        layer_index = len(self._layer_sizes) + 1
        target_cumulative = self._schedule.total(layer_index)
        layer_size = target_cumulative - len(self.values)

        # Child prefixes must cover a (k'+1)-selection on A|B, compared on
        # a common zero point, for the k'-selection on A+B to be realizable.
        concatenation_select(self.left, self.right, target_cumulative + 1,
                             offset_a=self._left_min, offset_b=self._right_min)
        self._flush_purgatories()

        pool = self.carryover
        self.carryover = []
        self.pops_total += pop_and_pool(self._soft, layer_size, pool, self._settle)

        selected, leftover = split_smallest(pool, layer_size)
        self.values.extend(selected)
        self._layer_sizes.append(layer_size)
        top = max(selected)
        if self._layer_max and self._layer_max[-1] > top:
            top = self._layer_max[-1]
        self._layer_max.append(top)
        self.carryover = leftover
        self._rebuild_soft_heap()

    @property
    def layer_count(self) -> int:
        return len(self._layer_sizes)

    def layer(self, i: int) -> list:
        if i < 1 or i > len(self._layer_sizes):
            raise ContractViolation(f"layer {i} not generated yet")
        start = sum(self._layer_sizes[:i - 1])
        return self.values[start:start + self._layer_sizes[i - 1]]

    def max_generated(self) -> float:
        return self._layer_max[-1]

    def size_of_last_layer(self) -> int:
        return self._layer_sizes[-1]

    @property
    def total_size(self) -> int:
        return self._total

    @property
    def generated_count(self) -> int:
        return len(self.values)

    def value_at(self, pos: int) -> float:
        return self.values[pos - 1]

    @property
    def schedule(self) -> LayerSchedule:
        return self._schedule

    # -- internals -------------------------------------------------------------

    def _settle(self, e) -> None:
        ia, ib = e.payload
        e.payload = None  # processed: children proposed, value pooled
        self.processed_total += 1
        self.live_in_heap -= 1
        if ib == 1:
            for ca in self._loh_children(self.left, ia):
                self._propose(ca, 1)
            for cb in self._loh_children(self.right, 1):
                self._propose(ia, cb)
        else:
            for cb in self._loh_children(self.right, ib):
                self._propose(ia, cb)

    def _rebuild_soft_heap(self) -> None:
        old = self._soft
        self.soft_heap_corrupted += old.corrupted_count
        if old.peak_size > self.soft_heap_peak:
            self.soft_heap_peak = old.peak_size
        survivors = old.drain()
        soft = SoftHeap(DEFAULT_EPSILON)
        for e in survivors:
            if e.payload is not None:
                soft.insert(e.original_key, e.payload)
        self._soft = soft

    @staticmethod
    def _loh_children(gen: LohGenerator, pos: int) -> list[int]:
        sched = gen.schedule
        layer, offset = sched.layer_of(pos)
        if layer + 1 > sched.num_layers:
            return []
        base = sched.total(layer)
        out = []
        for child_offset in children_of(sched, layer, offset):
            child = base + child_offset
            if child <= gen.total_size:  # truncated final layer
                out.append(child)
        return out

    def _propose(self, ia: int, ib: int) -> None:
        # First (and only) proposal of a pair; the scheme is duplicate-free.
        if self._debug_cells is not None:
            if (ia, ib) in self._debug_cells:
                raise AssertionError(f"pair {(ia, ib)} proposed twice")
            self._debug_cells.add((ia, ib))
        self.proposed_total += 1
        self._admit(ia, ib)

    def _admit(self, ia: int, ib: int) -> None:
        # Routes a pair to the soft heap or a purgatory list.
        a_ready = ia <= self.left.generated_count
        b_ready = ib <= self.right.generated_count
        if a_ready and b_ready:
            self._soft.insert(self.left.value_at(ia) + self.right.value_at(ib), (ia, ib))
            self.live_in_heap += 1
        elif not a_ready and not b_ready:
            self.purgatory_ab.append((ia, ib))
        elif not a_ready:
            self.purgatory_a.append((ia, ib))
        else:
            self.purgatory_b.append((ia, ib))

    def _flush_purgatories(self) -> None:
        # A-parked pairs are reconsidered only when A has grown (likewise
        # B); both-parked pairs when either side grew, in which case
        # _admit re-routes pairs still blocked on the other side.
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
        if (a_gained or b_gained) and self.purgatory_ab:
            retry.extend(self.purgatory_ab)
            self.purgatory_ab = []
        for ia, ib in retry:
            self._admit(ia, ib)

    def parked_count(self) -> int:
        return len(self.purgatory_a) + len(self.purgatory_b) + len(self.purgatory_ab)
