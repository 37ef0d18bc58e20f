"""One-dimensional k-selection primitives.

``split_at`` partitions with ``np.partition``, NumPy's introselect:
deterministic and linear in the worst case, so every result and every
counter built on it depends on the input alone.  ``select_k`` is one
such split, and ``split_smallest`` one that keeps both sides;
``loh.select_k_loh`` meets the same contract through layer-ordered
heaps.  ``AscendingPrefix`` sorts an array only as far as it is read,
one partition per growth.

Values are compared and returned as the array NumPy builds from them,
so a list mixing floats with ints past 2**53 may be compared after
rounding to float64; every selector passes Python floats from
``selectors._checked``.  Ties count at the multiset level: which of
several equal values survives is unspecified.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractViolation


def split_at(a: list, lo: int, hi: int, rank: int) -> None:
    """Rearrange ``a[lo:hi]`` in place so a[lo:rank] <= min(a[rank:hi]).

    ``rank`` is an absolute position with lo <= rank <= hi.  Writes back
    ``np.partition`` of the segment (deterministic, worst case linear).
    """
    if lo < rank < hi:
        a[lo:hi] = np.partition(a[lo:hi], rank - lo).tolist()


def split_smallest(values: Sequence[float], k: int) -> tuple[list, list]:
    """Split a sequence into (k smallest, the rest) as fresh lists."""
    vals = list(values)
    n = len(vals)
    if k < 0 or k > n:
        raise ContractViolation(f"split point {k} outside [0, {n}]")
    split_at(vals, 0, n, k)
    return vals[:k], vals[k:]


def select_k(values: Sequence[float], k: int) -> list:
    """Return the k smallest values (by multiplicity, order unspecified);
    one deterministic ``split_at``, so equal inputs give equal outputs."""
    vals = list(values)
    n = len(vals)
    if k < 1 or k > n:
        raise ContractViolation(f"k={k} outside [1, {n}]")
    split_at(vals, 0, n, k)
    return vals[:k]


class AscendingPrefix:
    """An axis realized in ascending order only as far as it is read: hot
    loops index ``values``, the smallest values of the float64 ``row`` (of
    length ``n``, read again on each growth, not copied) as Python floats,
    and call ``reach`` on a miss.  Equal values keep no order, so ``-0.0``
    and ``0.0`` may trade places."""

    __slots__ = ("row", "values", "n")

    def __init__(self, row: Sequence[float]):
        self.row = np.asarray(row, dtype=np.float64)
        self.n = self.row.size
        self.values: list[float] = []
        self.reach(16)  # sort-tree leaves on the paper's shape read about 3

    def reach(self, count: int) -> list[float]:
        """``values``, extended on a miss to min(max(count, 2 len), n) entries."""
        have = len(self.values)
        if have < count and have < self.n:
            want = min(max(count, 2 * have), self.n)
            block = np.partition(self.row, want - 1)[:want]
            block.sort()
            self.values.extend(block[have:].tolist())
        return self.values
