"""Differential check: every selector against the brute-force oracle.

Stdlib ``random``, seeded per input container, draws small cases across
the inputs the API accepts: m from 1 to 9 with uneven axis lengths up to
40 (at most 300 tensor cells, so k = total stays cheap); tie-heavy
integers 0-3, wide-range floats, presorted and reversed axes; k = 1,
k = total or a random k; alpha 1.05, 1.1, 1.5 or 1.9; and axes given as
lists of float or int, or as float64, float32, int64 or bool ndarrays.

On every case all five selectors must return the oracle's values with
``==``, as Python floats; sort-tensor and sort-tree indices must map back
to their values through the ascending axes; soft-tensor's corruption
must stay within eps times its inserts; and the caller's inputs must be
left as they were.
"""

import random

import numpy as np
import pytest

from cartesian_topk import (RunStats, brute_force_select, fast_soft_tree_select,
                            soft_tensor_select, soft_tree_select, sort_tensor_select,
                            sort_tree_select)

CONTAINERS = ("float-list", "int-list", "float64", "float32", "int64", "bool")
KINDS = ("ties", "wide", "sorted", "reversed")
ALPHAS = (1.05, 1.1, 1.5, 1.9)
MAX_CELLS = 300
CASES_PER_CONTAINER = 100


def _axis(rng, kind, n, container):
    if kind == "ties":
        vals = [rng.randint(0, 3) for _ in range(n)]
    elif kind == "wide":
        vals = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-6, 6) for _ in range(n)]
    else:
        vals = sorted(rng.uniform(-10.0, 10.0) for _ in range(n))
        if kind == "reversed":
            vals.reverse()
    if container == "float-list":
        return [float(v) for v in vals]
    if container == "int-list":
        return [round(v) for v in vals]
    if container == "int64":
        return np.array([round(v) for v in vals], dtype=np.int64)
    if container == "bool":
        return np.array([round(v) % 2 == 1 for v in vals])
    return np.array(vals, dtype=np.float64 if container == "float64" else np.float32)


def make_case(rng, container):
    """One (arrays, k, alpha, kind) case with at most MAX_CELLS tensor cells."""
    lengths, cells = [], 1
    for _ in range(rng.randint(1, 9)):
        n = rng.randint(1, min(40, MAX_CELLS // cells))
        lengths.append(n)
        cells *= n
    rng.shuffle(lengths)
    kind = rng.choice(KINDS)
    arrays = [_axis(rng, kind, n, container) for n in lengths]
    k = rng.choice((1, cells, rng.randint(1, cells)))
    return arrays, k, rng.choice(ALPHAS), kind


def _balanced_sum(vals):
    # the canonical grouping: left half = first ceil(m/2) axes
    if len(vals) == 1:
        return vals[0]
    mid = (len(vals) + 1) // 2
    return _balanced_sum(vals[:mid]) + _balanced_sum(vals[mid:])


def _snapshot(arrays):
    return [a.copy() if isinstance(a, np.ndarray) else list(a) for a in arrays]


@pytest.mark.parametrize("container", CONTAINERS)
def test_selectors_match_oracle(container):
    rng = random.Random(CONTAINERS.index(container))
    for case in range(CASES_PER_CONTAINER):
        arrays, k, alpha, kind = make_case(rng, container)
        where = (container, case, kind, [len(a) for a in arrays], k, alpha)
        before = _snapshot(arrays)
        expected = brute_force_select(arrays, k).values
        ascending = [sorted(np.asarray(a, dtype=np.float64).tolist()) for a in arrays]

        soft = RunStats()
        results = {
            "soft-tensor": soft_tensor_select(arrays, k, stats=soft, debug_checks=True),
            "soft-tree": soft_tree_select(arrays, k),
            "sort-tensor": sort_tensor_select(arrays, k),
            "sort-tree": sort_tree_select(arrays, k, True),
            "fast-soft-tree": fast_soft_tree_select(arrays, k, alpha),
        }
        for name, result in results.items():
            got = result.values if result.sorted else sorted(result.values)
            assert got == expected, (name, where)
            assert all(type(v) is float for v in got), (name, where)
        for name in ("sort-tensor", "sort-tree"):
            result = results[name]
            resummed = [_balanced_sum([ax[i - 1] for ax, i in zip(ascending, idx)])
                        for idx in result.indices]
            assert resummed == result.values, (name, where)
        assert soft.corrupted_count <= soft.values_generated / (3 * len(arrays)), where
        for a, b in zip(arrays, before):
            assert type(a) is type(b) and np.array_equal(a, b), where
