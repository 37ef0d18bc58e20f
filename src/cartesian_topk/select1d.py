"""One-dimensional k-selection primitives.

``select_k`` finds the k smallest values of a sequence in expected linear
time using randomized quickselect; after a depth budget is exhausted it
falls back to deterministic median-of-medians pivots, so the worst case
stays linear.  ``select_k_loh`` implements the same contract by repeatedly
partitioning into geometrically growing layers and recursing into the
layer that overshoots the selection threshold.

All functions treat ties at the multiset level: which of several equal
values survives is unspecified.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import ContractViolation, ParameterError

# Segments at or below this size are finished with a plain sort.
_SMALL = 24

# Pivot source for quickselect. Seeded so repeated runs behave identically.
_rng = random.Random(0x51F5E17)


def _partition3(a: list, lo: int, hi: int, pivot) -> tuple[int, int]:
    # Dutch-flag pass: a[lo:lt] < pivot, a[lt:gt] == pivot, a[gt:hi] > pivot.
    lt = i = lo
    gt = hi
    while i < gt:
        v = a[i]
        if v < pivot:
            a[i] = a[lt]
            a[lt] = v
            lt += 1
            i += 1
        elif v > pivot:
            gt -= 1
            a[i] = a[gt]
            a[gt] = v
        else:
            i += 1
    return lt, gt


def _median_of_medians(a: list, lo: int, hi: int):
    # Deterministic pivot value guaranteeing a constant-fraction split.
    meds = []
    i = lo
    while i < hi:
        j = min(i + 5, hi)
        group = sorted(a[i:j])
        meds.append(group[(j - i - 1) // 2])
        i = j
    if len(meds) == 1:
        return meds[0]
    mid = (len(meds) + 1) // 2
    split_at(meds, 0, len(meds), mid)
    return max(meds[:mid])


def split_at(a: list, lo: int, hi: int, rank: int) -> None:
    """Rearrange ``a[lo:hi]`` in place so a[lo:rank] <= min(a[rank:hi]).

    ``rank`` is an absolute position with lo <= rank <= hi.  Expected
    linear time; worst case linear via the median-of-medians fallback.
    """
    budget = 2 * (hi - lo).bit_length() + 8
    while lo < rank < hi:
        if hi - lo <= _SMALL:
            a[lo:hi] = sorted(a[lo:hi])
            return
        if budget > 0:
            pivot = a[_rng.randrange(lo, hi)]
            budget -= 1
        else:
            pivot = _median_of_medians(a, lo, hi)
        lt, gt = _partition3(a, lo, hi, pivot)
        if rank <= lt:
            hi = lt
        elif rank >= gt:
            lo = gt
        else:
            return  # rank falls inside the equal-pivot run


def split_smallest(values: Sequence[float], k: int) -> tuple[list, list]:
    """Split a sequence into (k smallest, the rest) as fresh lists."""
    vals = list(values)
    n = len(vals)
    if k < 0 or k > n:
        raise ContractViolation(f"split point {k} outside [0, {n}]")
    if 0 < k < n:
        split_at(vals, 0, n, k)
    return vals[:k], vals[k:]


def select_k(values: Sequence[float], k: int) -> list:
    """Return the k smallest values (by multiplicity, order unspecified)."""
    vals = list(values)
    n = len(vals)
    if k < 1 or k > n:
        raise ContractViolation(f"k={k} outside [1, {n}]")
    if k < n:
        split_at(vals, 0, n, k)
    return vals[:k]


def select_k_loh(values: Sequence[float], k: int, alpha: float) -> list:
    """select_k implemented through layer-ordered partitioning.

    Layers are accumulated smallest-first until the running total reaches
    k; the layer that overshoots is itself layer-partitioned and the
    search continues inside it, following the recurrence
    r(k) = k + r((alpha - 1) * k).
    """
    if not 1.0 < alpha < 2.0:
        raise ParameterError(f"alpha must lie in (1, 2), got {alpha}")
    vals = list(values)
    n = len(vals)
    if k < 1 or k > n:
        raise ContractViolation(f"k={k} outside [1, {n}]")

    from .loh import lohify  # deferred: loh builds on the partition helpers above

    out: list = []
    segment = vals
    need = k
    while need > 0:
        if need >= len(segment):
            out.extend(segment)
            break
        heap = lohify(segment, alpha)
        acc = 0
        overshoot = None
        for i in range(1, heap.num_layers + 1):
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
