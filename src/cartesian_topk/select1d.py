"""One-dimensional k-selection primitives.

Each cut is one ``np.partition`` at ``k``, NumPy's introselect:
deterministic and linear in the worst case, so every result and every
counter built on it depends on the input alone, under one NumPy SIMD
dispatch: the kernel NumPy picks for the CPU fixes the order on each
side of a cut, not its multiset.  ``select_k`` keeps the
k smallest, and ``split_smallest`` keeps both sides;
``loh.select_k_loh`` meets the same contract through layer-ordered
heaps.  ``AscendingPrefix`` sorts an array only as far as it is read,
one partition per growth; sort-tree's merges offer the same ``n``,
``values`` and ``reach``, so a merge reads an axis or another merge
alike.

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


def split_smallest(values: Sequence[float], k: int) -> tuple[list, list]:
    """Split a sequence into (k smallest, the rest) as fresh lists; for
    0 < k < n one ``np.partition`` at k, else the input order is kept."""
    n = len(values)
    if k < 0 or k > n:
        raise ContractViolation(f"split point {k} outside [0, {n}]")
    vals = np.partition(values, k).tolist() if 0 < k < n else list(values)
    return vals[:k], vals[k:]


def select_k(values: Sequence[float], k: int) -> list:
    """Return the k smallest values (by multiplicity, order unspecified);
    one deterministic ``np.partition`` at k unless k == n, so equal
    inputs give equal outputs."""
    n = len(values)
    if k < 1 or k > n:
        raise ContractViolation(f"k={k} outside [1, {n}]")
    return np.partition(values, k).tolist()[:k] if k < n else list(values)


class AscendingPrefix:
    """An axis realized in ascending order only as far as it is read: hot
    loops index ``values``, the smallest values of the float64 ``row`` (of
    length ``n``, read again on each growth, not copied) as Python floats,
    and call ``reach`` on a miss.  Sort-tree's merges offer the same
    three names.  Equal values keep no order, so ``-0.0`` and ``0.0`` may
    trade places."""

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
