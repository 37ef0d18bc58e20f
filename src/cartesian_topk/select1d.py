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

``checked_k`` and ``checked_axis`` are the package's one input boundary,
for counts and for value sequences.  The cuts compare and return values
as the array NumPy builds from them, as Python scalars, so a list mixing
floats with ints past 2**53 may be compared after rounding to float64;
every selector passes Python floats from ``selectors._checked``.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .errors import ContractViolation, ParameterError


def checked_k(k, high, low: int = 1, name: str = "k") -> int:
    """``k`` as an int in [low, high] (``high`` may be ``math.inf``), NumPy
    integers included; a bool, a fraction or a value outside is refused."""
    if type(k) is not int:  # an exact int needs no conversion, and a bool is not one
        try:  # bools have __index__, so they are refused by type, NumPy's too
            k = operator.index(None if isinstance(k, (bool, np.bool_)) else k)
        except TypeError:
            raise ContractViolation(f"{name}={k!r} is not an integer") from None
    if k < low or k > high:
        raise ContractViolation(f"{name} must be positive, got {k}" if (low, high) == (1, math.inf)
                                else f"{name}={k} outside [{low}, {high}]")
    return k


_NOT_REAL = "cUSMm"  # complex, text and time kinds: float64 would drop or invent meaning


def checked_axis(values, name: str) -> np.ndarray:
    """``values`` once as a nonempty 1-D float64 array (a float64 one as it is);
    complex, text and time values, which would convert, are refused."""
    try:
        raw = np.asarray(values)
        if raw.dtype.kind in _NOT_REAL or (
                raw.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in raw.flat)):
            raise TypeError("complex, text or time values are not real numbers")
        axis = raw.astype(np.float64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractViolation(f"{name} must convert to float64: {exc}") from None
    if axis.ndim != 1 or axis.size == 0:
        raise ContractViolation(f"{name} must be nonempty and 1-D, got shape {axis.shape}")
    return axis


def require_finite(values: np.ndarray, name: str = "values") -> None:
    """Reject NaN/Inf in a ``checked_axis`` array, one vectorized pass."""
    finite = np.isfinite(values)
    if not finite.all():
        bad = float(values[~finite][0])
        raise ParameterError(f"{name} must contain only finite numbers, got {bad!r}")


def split_smallest(values: Sequence[float], k: int) -> tuple[list, list]:
    """Split a sequence into (k smallest ascending, the rest) as fresh lists;
    for 0 < k < n the rest is as one ``np.partition`` at k left it, else the
    rest keeps the input order."""
    n, k = len(values), checked_k(k, len(values), low=0)
    vals = np.partition(values, k) if 0 < k < n else np.array(values)
    vals[:k].sort()
    return vals[:k].tolist(), vals[k:].tolist()


def select_k(values: Sequence[float], k: int) -> list:
    """Return the k smallest values (by multiplicity) in ascending order: one
    ``np.partition`` at k unless k == n, then a sort of the kept part.  The
    array NumPy builds must be 1-D and real; no finiteness pass, on a hot path."""
    vals = np.asarray(values)
    if vals.dtype.kind in _NOT_REAL or vals.ndim != 1:
        raise ContractViolation(f"values must be 1-D real numbers, got {vals.dtype} {vals.shape}")
    k = checked_k(k, vals.size)
    return np.sort(np.partition(vals, k)[:k] if k < vals.size else vals).tolist()


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
