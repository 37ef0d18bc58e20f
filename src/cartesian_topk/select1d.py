"""One-dimensional k-selection primitives.

Each cut returns the part it keeps ascending.  ``select_k`` keeps the k
smallest: one ``np.partition`` at ``k``, NumPy's introselect, followed by
a sort of the k values it keeps.  The kept multiset is fixed by the
input, and so is its ascending order, on any CPU: whichever SIMD kernel
NumPy dispatched to fixes only the order of the rest, and of ``-0.0``
and ``0.0`` among themselves.  ``split_smallest`` keeps both sides, both
ascending, through one sort of a Python list: its one caller, a pair-sum
node's layer step, hands it a carry-over this cut left ascending plus a
few values settled since, which Python's sort merges as runs, with no
NumPy call per layer.  ``loh.select_k_loh`` selects the same multiset
through layer-ordered heaps.  ``AscendingPrefix`` sorts an array only as
far as it is read, one ``select_k`` per growth; sort-tree's merges offer
the same ``n``, ``values`` and ``reach``, so a merge reads an axis or
another merge alike.

``checked_k``, ``checked_axis``, ``require_finite`` and
``require_summable`` are the package's one input boundary, for counts,
for value sequences and for axes that are summed together.
``select_k`` compares and returns values as the array NumPy builds from
them, as Python scalars, so a list mixing floats with ints past 2**53
may be compared after rounding to float64; every selector passes Python
floats from ``selectors._checked``.
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


def _masked(values) -> bool:
    # np.ma loads on first use, so only an ndarray subclass reaches it
    return (isinstance(values, np.ndarray) and type(values) is not np.ndarray
            and isinstance(values, np.ma.MaskedArray))


def checked_axis(values, name: str) -> np.ndarray:
    """``values`` once as a nonempty 1-D float64 array (a float64 one as it is);
    complex, text and time values, which would convert, are refused, and so is
    a masked array, whose mask the conversion would drop."""
    if _masked(values):
        raise ContractViolation(f"{name} must convert to float64 without dropping a mask")
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


def require_summable(axes: Sequence[np.ndarray]) -> None:
    """Refuse finite ``checked_axis`` arrays whose sum of max |x| overflows
    float64, so that no sum of one value from each axis does."""
    if not math.isfinite(sum(float(np.abs(axis).max()) for axis in axes)):
        raise ContractViolation("the sum over arrays of max |x| overflows float64")


def split_smallest(values: Sequence[float], k: int) -> tuple[list, list]:
    """Split a sequence into (k smallest, the rest) as fresh lists, both
    ascending: one sort of a Python list (an ndarray's ``tolist()``), so an
    ascending run the caller kept costs one pass.  At k = 0 nothing is
    compared and the rest keeps the input order."""
    vals = values.tolist() if isinstance(values, np.ndarray) else list(values)
    k = checked_k(k, len(vals), low=0)
    if k:
        try:
            vals.sort()
        except TypeError as exc:  # mixed types that do not compare
            raise ContractViolation(f"values must be real numbers: {exc}") from None
    return vals[:k], vals[k:]


def select_k(values: Sequence[float], k: int) -> list:
    """Return the k smallest values (by multiplicity) in ascending order: one
    ``np.partition`` at k unless k == n, then a sort of the kept part.  The
    array NumPy builds must be 1-D, real and unmasked; no pass over the
    values, on a hot path, so values that do not compare are refused as the
    partition meets them."""
    if _masked(values):
        raise ContractViolation("values must be 1-D real numbers, got a masked array")
    try:
        vals = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged input, or one NumPy cannot read
        raise ContractViolation(f"values must be 1-D real numbers: {exc}") from None
    if vals.dtype.kind in _NOT_REAL or vals.ndim != 1:
        raise ContractViolation(f"values must be 1-D real numbers, got {vals.dtype} {vals.shape}")
    k = checked_k(k, vals.size)
    try:
        return np.sort(np.partition(vals, k)[:k] if k < vals.size else vals).tolist()
    except TypeError as exc:  # an object array whose values do not compare
        raise ContractViolation(f"values must be 1-D real numbers: {exc}") from None


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
