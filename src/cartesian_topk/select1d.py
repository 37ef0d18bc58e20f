"""One-dimensional k-selection primitives.

Each cut is one ``np.partition`` at ``k``, NumPy's introselect, followed
by a sort of the k values it keeps, so the kept part comes back
ascending.  The kept multiset is fixed by the input, and so is its
ascending order, on any CPU: whichever SIMD kernel NumPy dispatched to
fixes only the order of the rest, and of ``-0.0`` and ``0.0`` among
themselves.  ``select_k`` keeps the k smallest, and ``split_smallest``
keeps both sides; ``loh.select_k_loh`` selects the same multiset through
layer-ordered heaps.  ``AscendingPrefix`` sorts an array only as far as
it is read, one ``select_k`` per growth; sort-tree's merges offer the
same ``n``, ``values`` and ``reach``, so a merge reads an axis or another
merge alike.

Values are compared and returned as the array NumPy builds from them,
as Python scalars, so a list mixing floats with ints past 2**53 may be
compared after rounding to float64; every selector passes Python floats
from ``selectors._checked``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractViolation


def split_smallest(values: Sequence[float], k: int) -> tuple[list, list]:
    """Split a sequence into (k smallest ascending, the rest) as fresh lists;
    for 0 < k < n the rest is as one ``np.partition`` at k left it, else the
    rest keeps the input order."""
    n = len(values)
    if k < 0 or k > n:
        raise ContractViolation(f"split point {k} outside [0, {n}]")
    vals = np.partition(values, k) if 0 < k < n else np.array(values)
    vals[:k].sort()
    return vals[:k].tolist(), vals[k:].tolist()


def select_k(values: Sequence[float], k: int) -> list:
    """Return the k smallest values (by multiplicity) in ascending order: one
    ``np.partition`` at k unless k == n, then a sort of the kept part."""
    n = len(values)
    if k < 1 or k > n:
        raise ContractViolation(f"k={k} outside [1, {n}]")
    return np.sort(np.partition(values, k)[:k] if k < n else values).tolist()


class AscendingPrefix:
    """An axis realized in ascending order only as far as it is read: hot
    loops index ``values``, the smallest values of the float64 ``row`` (of
    length ``n``, read again on each growth, not copied) as Python floats,
    and call ``reach`` on a miss.  Sort-tree's merges offer the same
    three names.  Only ``-0.0`` and ``0.0`` may trade places."""

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
            self.values.extend(select_k(self.row, want)[have:])
        return self.values
