"""One-dimensional k-selection primitives.

``split_at`` partitions with ``np.partition``, NumPy's introselect:
deterministic and linear in the worst case, so every result and every
counter built on it depends on the input alone.  ``select_k`` is one
such split; ``select_k_loh`` implements the same contract by repeatedly
partitioning into geometrically growing layers and recursing into the
layer that overshoots the selection threshold.

Values are compared and returned as the array NumPy builds from them,
so a list mixing floats with ints past 2**53 may be compared after
rounding to float64; every selector passes Python floats from
``selectors._checked``.  Ties count at the multiset level: which of
several equal values survives is unspecified.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractViolation, ParameterError


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
