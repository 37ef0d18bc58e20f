"""Exact k smallest sums of X1 + ... + Xm, independent of the selector code.

The reference walks the same balanced tree the selectors use (left half =
first ceil(m/2) axes).  At each node both children's k smallest values are
sorted, and only the pairs (i, j), 0-based, with (i + 1) * (j + 1) <= k are
summed: any other pair is no smaller than the k pairs in the rectangle below
it, because float addition rounds monotonically.  The same argument lets each
child keep only its k smallest values.  Because the grouping of the additions
matches the selectors', their value multisets compare with ``==``.
"""

from __future__ import annotations

import numpy as np


def smallest_sums(arrays, k: int) -> np.ndarray:
    """The k smallest sums as an ascending float64 array."""

    def node(lo: int, hi: int) -> np.ndarray:
        if hi - lo == 1:
            return np.sort(np.asarray(arrays[lo], dtype=np.float64))[:k]
        mid = lo + (hi - lo + 1) // 2
        a = node(lo, mid)
        b = node(mid, hi)
        # Row i pairs a[i] with b[:k // (i + 1)]; len(a) <= k keeps every count >= 1.
        counts = np.minimum(len(b), k // np.arange(1, len(a) + 1))
        rows = np.repeat(np.arange(len(a)), counts)
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        cols = np.arange(rows.size) - starts
        sums = np.sort(a[rows] + b[cols])
        return sums[:min(k, len(a) * len(b))]

    return node(0, len(arrays))


def self_check(brute_force_select, rng: np.random.Generator, cases: int = 60) -> list[str]:
    """Compare the reference with the brute-force oracle on small tie-heavy inputs.

    Returns a description of every disagreement; an empty list means all agree.
    """
    problems = []
    for case in range(cases):
        m = int(rng.integers(1, 6))
        sizes = rng.integers(1, 7, m)
        if case % 2:
            arrays = [rng.integers(0, 4, s).astype(np.float64).tolist() for s in sizes]
        else:
            arrays = [rng.random(s).tolist() for s in sizes]
        k = int(rng.integers(1, int(np.prod(sizes)) + 1))
        expected = np.asarray(brute_force_select(arrays, k).values, dtype=np.float64)
        if not np.array_equal(smallest_sums(arrays, k), expected):
            problems.append(f"reference disagrees with the oracle: "
                            f"sizes={sizes.tolist()} k={k}")
    return problems
