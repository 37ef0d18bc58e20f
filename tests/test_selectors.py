import itertools
import math
import random

import numpy as np
import pytest

from cartesian_topk import (ContractViolation, GuardError, LeafGenerator,
                            PairSumNode, ParameterError, RunStats,
                            brute_force_select, fast_soft_tree_select,
                            soft_tensor_select, soft_tree_select,
                            sort_tensor_select, sort_tree_select,
                            theoretical_exponent)


def balanced_sum(vals):
    # independent reimplementation of the canonical summation grouping
    if len(vals) == 1:
        return vals[0]
    mid = (len(vals) + 1) // 2
    return balanced_sum(vals[:mid]) + balanced_sum(vals[mid:])


def oracle_values(arrays, k):
    sums = sorted(balanced_sum([arr[i] for arr, i in zip(arrays, idx)])
                  for idx in itertools.product(*(range(len(a)) for a in arrays)))
    return sums[:k]


SELECTORS = [
    ("soft-tensor", lambda arrays, k: sorted(soft_tensor_select(arrays, k, debug_checks=True).values)),
    ("soft-tree", lambda arrays, k: sorted(soft_tree_select(arrays, k).values)),
    ("sort-tensor", lambda arrays, k: sort_tensor_select(arrays, k).values),
    ("sort-tree", lambda arrays, k: sort_tree_select(arrays, k, True).values),
    ("fast-soft-tree", lambda arrays, k: sorted(fast_soft_tree_select(arrays, k, 1.3).values)),
]


# -- brute force oracle --------------------------------------------------------

def test_brute_two_by_two():
    r = brute_force_select([[1, 2], [3, 4]], 2)
    assert r.values == [4, 5]
    assert r.sorted


def test_brute_all_zero():
    assert brute_force_select([[0], [0], [0]], 1).values == [0]


def test_brute_three_axes():
    # enumeration of [1,2]x[1,3]x[1,4] gives sums {3,4,5,6,6,7,8,9}
    assert brute_force_select([[1, 2], [1, 3], [1, 4]], 4).values == [3, 4, 5, 6]


def test_brute_matches_independent_enumeration():
    rng = random.Random(41)
    for _ in range(50):
        m = rng.randint(1, 4)
        arrays = [[rng.random() for _ in range(rng.randint(1, 5))] for _ in range(m)]
        total = math.prod(len(a) for a in arrays)
        k = rng.randint(1, total)
        assert brute_force_select(arrays, k).values == oracle_values(arrays, k)


def test_brute_indices_resum():
    rng = random.Random(42)
    arrays = [[rng.random() for _ in range(4)] for _ in range(3)]
    r = brute_force_select(arrays, 10)
    for value, idx in zip(r.values, r.indices):
        assert value == balanced_sum([arrays[t][i - 1] for t, i in enumerate(idx)])


def test_brute_guard():
    with pytest.raises(GuardError):
        brute_force_select([[0.0] * 100] * 4, 5, guard=10**6)


# -- shared contracts ----------------------------------------------------------

@pytest.mark.parametrize("name,run", SELECTORS)
def test_k_out_of_range(name, run):
    with pytest.raises(ContractViolation):
        run([[1.0, 2.0]], 3)
    with pytest.raises(ContractViolation):
        run([[1.0, 2.0]], 0)


def test_nan_rejected_at_boundary():
    with pytest.raises(ParameterError):
        soft_tree_select([[1.0, float("nan")]], 1)
    with pytest.raises(ParameterError):
        sort_tree_select([[float("inf")], [1.0]], 1)


# -- input boundary --------------------------------------------------------------

def _oracle(arrays, k):
    return brute_force_select(arrays, k).values


@pytest.mark.parametrize("arrays,k", [
    ([np.array([0.1, 0.7, 0.3], dtype=np.float32), np.array([0.2, 1e-8], dtype=np.float32)], 4),
    ([np.array([2**62, 1]), np.array([2**62, 3])], 4),
    ([np.array([True]), np.array([True])], 1),
    ([np.array([True, False, True]), np.array([False, True])], 5),
    ([[3, 1, 2], [10**15 + 1, 7]], 5),
    (np.array([[3.0, 1.0, 2.0], [0.5, 4.0, 1.5], [2.0, 2.0, 0.0]]), 7),
], ids=["float32", "int64", "bool", "bool-mixed", "int-lists", "2-d-ndarray"])
def test_any_numeric_dtype_matches_oracle(arrays, k):
    # every axis (a row of a 2-D ndarray) is converted once to float64, and
    # outputs are Python floats
    expected = _oracle(arrays, k)
    assert expected == oracle_values([np.asarray(a, dtype=np.float64).tolist() for a in arrays], k)
    for name, run in SELECTORS:
        got = run(arrays, k)
        assert got == expected, name
        assert all(type(v) is float for v in got + expected), name


@pytest.mark.parametrize("arrays", [
    [[1e308, 1e308], [1e308]],
    [[1.0, "x"], [1.0]],
    [[[1.0, 2.0]], [1.0]],
    [[1.0, [2.0]], [1.0]],
    [[10**400], [1]],
    [np.array([1 + 2j, 3.0]), [1.0]],
    [["1.5", "2"], [1.0]],
    [np.array(["1", "2"]), [1.0]],
    [["1.5", 2**70], [1.0]],
], ids=["sum-overflow", "string", "nested-axis", "ragged-axis", "int-past-float",
        "complex", "numeric-strings", "string-ndarray", "string-in-object-axis"])
@pytest.mark.filterwarnings("error")
def test_boundary_rejects_unrepresentable_inputs(arrays):
    # complex and text axes would convert to float64 (a complex one with only
    # a ComplexWarning), so the boundary refuses them before converting
    for name, run in [("brute-force", _oracle)] + SELECTORS:
        with pytest.raises(ContractViolation):
            run(arrays, 1)


def test_fast_alpha_validation():
    with pytest.raises(ParameterError):
        fast_soft_tree_select([[1.0]], 1, 2.0)
    with pytest.raises(ParameterError):
        fast_soft_tree_select([[1.0]], 1, 0.9)


# -- frozen examples -----------------------------------------------------------

def test_soft_tensor_pairwise_case():
    assert sorted(soft_tensor_select([[1, 2], [3, 4]], 3).values) == [4, 5, 5]


def test_soft_tensor_all_zero():
    for m in (1, 2, 5):
        k = min(3, 2 ** m)
        got = soft_tensor_select([[0.0, 0.0]] * m, k).values
        assert got == [0.0] * k


def test_soft_tree_single_axis():
    assert sorted(soft_tree_select([[4, 2, 9]], 2).values) == [2, 4]


def test_soft_tree_four_identical_axes():
    # 16 sums of [1,2]^4: minimum 4, then four 5s
    assert sorted(soft_tree_select([[1, 2]] * 4, 3).values) == [4, 5, 5]


def test_sort_tensor_example():
    r = sort_tensor_select([[1, 2], [1, 3]], 3)
    assert r.values == [2, 3, 4]


def test_sort_tensor_k1_indices():
    r = sort_tensor_select([[3, 1], [7, 2], [5, 9]], 1)
    assert r.values == [8]
    assert r.indices == [(1, 1, 1)]


def test_sort_tree_pairwise_sorted():
    assert sort_tree_select([[1, 2], [3, 4]], 4).values == [4, 5, 5, 6]


def test_sort_tree_singleton_axes():
    for m in (1, 3, 9):
        r = sort_tree_select([[7.0]] * m, 1)
        assert r.values == [7.0 * m]


def test_fast_example():
    assert sorted(fast_soft_tree_select([[1, 2], [1, 2]], 2, 1.5).values) == [2, 3]


def test_fast_all_zero():
    got = fast_soft_tree_select([[0.0, 0.0]] * 4, 5, 1.1).values
    assert got == [0.0] * 5


def test_exponent_values():
    assert abs(theoretical_exponent(1.05) - 0.1407) <= 0.0001
    assert theoretical_exponent(math.sqrt(2)) == pytest.approx(1.0)
    assert theoretical_exponent(2.0) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        theoretical_exponent(0.0)


# -- cross-algorithm agreement ---------------------------------------------------

def test_agreement_small_grid():
    rng = np.random.Generator(np.random.PCG64(7))
    for m in range(1, 6):
        for n in (1, 2, 3, 5):
            total = n ** m
            for seed in range(4):
                arrays = [row.tolist() for row in rng.random((m, n))]
                ks = sorted({kk for kk in (1, 2, 5, min(12, total)) if kk <= total})
                expected_full = brute_force_select(arrays, max(ks)).values
                for k in ks:
                    expected = expected_full[:k]
                    for name, run in SELECTORS:
                        assert run(arrays, k) == expected, (name, m, n, k)


def test_agreement_medium_m_cross_checked():
    # tensors here exceed the brute-force guard, so the sorted selectors
    # cross-check each other and anchor the soft ones
    rng = np.random.Generator(np.random.PCG64(11))
    for seed in range(5):
        arrays = [row.tolist() for row in rng.random((8, 8))]
        expected = sort_tensor_select(arrays, 64).values
        assert sort_tree_select(arrays, 64).values == expected
        assert sorted(soft_tree_select(arrays, 64).values) == expected
        assert sorted(fast_soft_tree_select(arrays, 64, 1.1).values) == expected

    for seed in range(5):
        arrays = [row.tolist() for row in rng.random((16, 8))]
        expected = sort_tensor_select(arrays, 100).values
        assert sort_tree_select(arrays, 100, True).values == expected
        assert sorted(soft_tree_select(arrays, 100).values) == expected


def test_agreement_deep_m_cross_checked():
    rng = np.random.Generator(np.random.PCG64(13))
    arrays = [row.tolist() for row in rng.random((64, 3))]
    expected = sort_tensor_select(arrays, 200).values
    assert sort_tree_select(arrays, 200).values == expected
    assert sorted(soft_tree_select(arrays, 200).values) == expected
    assert sorted(fast_soft_tree_select(arrays, 200, 1.05).values) == expected


def test_fast_beyond_float_range():
    # 64^256 tensor cells: node schedules must not compute totals past float range
    rng = np.random.Generator(np.random.PCG64(14))
    arrays = [row.tolist() for row in rng.random((256, 64))]
    expected = sort_tree_select(arrays, 1024).values
    assert sorted(fast_soft_tree_select(arrays, 1024, 1.1).values) == expected


@pytest.mark.parametrize("name", ["brute-force"] + [name for name, _ in SELECTORS])
def test_inputs_left_unchanged(name):
    rng = np.random.Generator(np.random.PCG64(15))
    lists = [row.tolist() for row in rng.integers(0, 4, (3, 6)).astype(np.float64)]
    ndarrays = [np.array(row) for row in lists]
    run = dict(SELECTORS).get(name, lambda arrays, k: brute_force_select(arrays, k).values)
    for arrays in (lists, ndarrays, *([a.astype(t) for a in ndarrays]
                                      for t in (np.float32, np.int64, np.bool_))):
        before = [list(a) for a in arrays]
        run(arrays, 20)
        assert [list(a) for a in arrays] == before


def test_fast_leaf_level_generation_bound():
    # leaves produce at most ~alpha^(2 log2 m) * k values in total
    bound = 1.5 * (1.1 ** (2 * math.log2(8))) * 128
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))
        arrays = [row.tolist() for row in rng.random((8, 16))]
        stats = RunStats()
        got = sorted(fast_soft_tree_select(arrays, 128, 1.1, stats=stats).values)
        assert got == sorted(soft_tree_select(arrays, 128).values)
        assert stats.generated_per_level[max(stats.generated_per_level)] <= bound


def test_fast_leaves_do_not_partition_whole_arrays(monkeypatch):
    # the paper's m=64, n=1024, k=512 case: leaves order only the values
    # their layers use, so no leaf may lohify or partition its array
    import cartesian_topk.loh as loh
    from cartesian_topk.bench import generate_inputs

    def refuse(*args, **kwargs):
        raise AssertionError("a leaf partitioned its whole array")

    monkeypatch.setattr(loh, "lohify", refuse)
    monkeypatch.setattr(loh, "split_at", refuse)
    arrays = generate_inputs("exponential", 64, 1024, seed=1)
    stats = RunStats()
    got = sorted(fast_soft_tree_select(arrays, 512, 1.1, stats=stats).values)
    assert got == sort_tree_select(arrays, 512).values
    assert stats.generated_per_level[6] < 0.02 * 64 * 1024


def test_agreement_duplicate_heavy():
    rng = random.Random(43)
    for _ in range(40):
        m = rng.randint(1, 4)
        arrays = [[float(rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
                  for _ in range(m)]
        total = math.prod(len(a) for a in arrays)
        k = rng.randint(1, total)
        expected = brute_force_select(arrays, k).values
        for name, run in SELECTORS:
            assert run(arrays, k) == expected, (name, arrays, k)


# -- sorted output, indices, invariants -----------------------------------------

def test_sorted_flags():
    arrays = [[3.0, 1.0], [2.0, 5.0]]
    assert sort_tensor_select(arrays, 3).sorted
    assert sort_tree_select(arrays, 3).sorted
    assert not soft_tensor_select(arrays, 3).sorted
    assert not soft_tree_select(arrays, 3).sorted
    assert not fast_soft_tree_select(arrays, 3, 1.5).sorted


def test_sorted_outputs_nondecreasing():
    rng = random.Random(44)
    for _ in range(50):
        m = rng.randint(1, 5)
        arrays = [[rng.random() for _ in range(rng.randint(1, 6))] for _ in range(m)]
        total = math.prod(len(a) for a in arrays)
        k = rng.randint(1, min(total, 30))
        for values in (sort_tensor_select(arrays, k).values,
                       sort_tree_select(arrays, k).values):
            assert all(x <= y for x, y in zip(values, values[1:]))


def test_sort_indices_resum_through_sorted_axes():
    rng = random.Random(45)
    for _ in range(30):
        m = rng.randint(1, 4)
        arrays = [[rng.random() for _ in range(rng.randint(1, 5))] for _ in range(m)]
        total = math.prod(len(a) for a in arrays)
        k = rng.randint(1, min(total, 20))
        ordered = [sorted(a) for a in arrays]
        for r in (sort_tensor_select(arrays, k), sort_tree_select(arrays, k, True)):
            assert r.indices is not None
            for value, idx in zip(r.values, r.indices):
                assert value == balanced_sum([ordered[t][i - 1] for t, i in enumerate(idx)])


def test_sort_tree_indices_off_by_default():
    assert sort_tree_select([[1.0, 2.0]], 1).indices is None


def test_soft_tensor_insertion_accounting():
    # insertions stay within 2m * (pops + corrupted) + 1 and the soft
    # heap's corruption within eps * I at eps = 1/(3m)
    rng = random.Random(46)
    for m, n, k in ((2, 12, 100), (4, 6, 500), (6, 5, 800)):
        arrays = [[rng.random() for _ in range(n)] for _ in range(m)]
        stats = RunStats()
        soft_tensor_select(arrays, k, stats=stats)
        inserts = stats.values_generated
        assert inserts <= 2 * m * (k + stats.corrupted_count) + 1
        assert stats.corrupted_count <= inserts / (3 * m)


def test_sort_tree_stats_shape():
    arrays = [[float(i) for i in range(8)] for _ in range(8)]
    stats = RunStats()
    sort_tree_select(arrays, 40, stats=stats)
    assert stats.pops_per_level[0] == 40  # root pops exactly k times
    assert set(stats.pops_per_level) == {0, 1, 2, 3}
    assert stats.fringe_peak > 0


def test_fast_stats_levels():
    arrays = [[random.Random(47).random() for _ in range(8)] for _ in range(8)]
    stats = RunStats()
    fast_soft_tree_select(arrays, 30, 1.2, stats=stats)
    assert set(stats.generated_per_level) == {0, 1, 2, 3}
    assert stats.generated_per_level[0] >= 30
    assert stats.values_generated == sum(stats.generated_per_level.values())


# -- golden counters -----------------------------------------------------------
# Every counter below was recorded from the selectors as they stood before the
# three soft-heap sites shared one settle loop, except the uniform and
# exponential soft-tensor and soft-tree rows, re-recorded when every selector
# began to see its axes in ascending order (their heaps start in that order).
# A refactor that keeps the soft-heap insertion order and the tree shapes
# keeps them all, so any change here means the work done changed, not just
# the code.

def _golden_inputs():
    from cartesian_topk.bench import generate_inputs
    rng = random.Random(5)
    ties = [[float(rng.randint(0, 3)) for _ in range(10)] for _ in range(5)]
    return {
        "uniform": (generate_inputs("uniform", 4, 12, 3), 40),
        "exponential": (generate_inputs("exponential", 3, 16, 4), 50),
        "ties": (ties, 60),
    }


_GOLDEN_RUNNERS = {
    "soft-tensor": lambda a, k, s: soft_tensor_select(a, k, stats=s),
    "soft-tree": lambda a, k, s: soft_tree_select(a, k, stats=s),
    "sort-tensor": lambda a, k, s: sort_tensor_select(a, k, stats=s),
    "sort-tree": lambda a, k, s: sort_tree_select(a, k, stats=s),
    "fast-soft-tree": lambda a, k, s: fast_soft_tree_select(a, k, 1.1, stats=s),
}

# (pops_per_level, generated_per_level, values_generated, corrupted_count, fringe_peak)
_GOLDEN_STATS = {
    ("uniform", "soft-tensor"): ({}, {}, 162, 2, 122),
    ("uniform", "soft-tree"): ({}, {}, 440, 19, 75),
    ("uniform", "sort-tensor"): ({}, {}, 107, 0, 68),
    ("uniform", "sort-tree"): ({0: 40.0, 1: 11.5, 2: 5.5}, {}, 85, 0, 30),
    ("uniform", "fast-soft-tree"): ({0: 41.0, 1: 22.5}, {0: 41, 1: 45, 2: 41}, 127, 4, 17),
    ("exponential", "soft-tensor"): ({}, {}, 130, 1, 80),
    ("exponential", "soft-tree"): ({}, {}, 382, 14, 77),
    ("exponential", "sort-tensor"): ({}, {}, 94, 0, 44),
    ("exponential", "sort-tree"): ({0: 50.0, 1: 10.0, 2: 6.5}, {}, 83, 0, 24),
    ("exponential", "fast-soft-tree"): ({0: 51.0, 1: 51.0}, {0: 51, 1: 60, 2: 32}, 143, 4, 16),
    ("ties", "soft-tensor"): ({}, {}, 216, 0, 156),
    ("ties", "soft-tree"): ({}, {}, 734, 1, 87),
    ("ties", "sort-tensor"): ({}, {}, 221, 0, 161),
    ("ties", "sort-tree"): ({0: 60.0, 1: 12.0, 2: 4.75, 3: 3.0}, {}, 109, 0, 37),
    ("ties", "fast-soft-tree"): ({0: 63.0, 1: 32.5, 2: 41.0},
                                 {0: 63, 1: 65, 2: 71, 3: 20}, 219, 0, 20),
}


@pytest.mark.parametrize("case,name", sorted(_GOLDEN_STATS))
def test_golden_run_stats(case, name):
    arrays, k = _golden_inputs()[case]
    stats = RunStats()
    result = _GOLDEN_RUNNERS[name](arrays, k, stats)
    assert sorted(result.values) == brute_force_select(arrays, k).values
    got = (stats.pops_per_level, stats.generated_per_level, stats.values_generated,
           stats.corrupted_count, stats.fringe_peak)
    assert got == _GOLDEN_STATS[case, name]


def test_identical_calls_repeat_values_and_run_stats():
    # no module state survives a call: an unrelated 1-D selection between
    # three identical calls moves neither the values nor any counter
    from cartesian_topk import select_k
    from cartesian_topk.bench import generate_inputs
    arrays = generate_inputs("exponential", 8, 64, 5)
    rng = random.Random(6)
    unrelated = [rng.random() for _ in range(101)]
    for name, run in _GOLDEN_RUNNERS.items():
        outcomes = []
        for _ in range(3):
            stats = RunStats()
            outcomes.append((run(arrays, 256, stats).values, stats))
            select_k(unrelated, 50)
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0], name


# (proposed_total, processed_total, pops_total, parked_count()) once the node
# over the first two arrays holds k values
_GOLDEN_NODE = {
    "uniform": (54, 43, 41, 0),
    "exponential": (62, 51, 51, 0),
    "ties": (72, 63, 63, 0),
}

# the same counters after each layer on inputs whose two sides differ in
# scale, so pairs park in purgatory and soft-heap corruption shows up
_GOLDEN_NODE_ASYMMETRIC = [
    (5, 2, 2, 1), (7, 3, 3, 1), (9, 4, 4, 1), (11, 5, 5, 1), (14, 6, 6, 2),
    (18, 8, 8, 0), (22, 10, 10, 0), (27, 12, 12, 0), (33, 15, 15, 0),
    (40, 18, 18, 0), (49, 22, 22, 0), (60, 27, 27, 0), (73, 33, 33, 0),
    (88, 40, 40, 0), (99, 49, 48, 0), (109, 59, 58, 0), (122, 72, 70, 0),
    (137, 87, 84, 0), (155, 105, 101, 0), (177, 127, 122, 0),
    (200, 154, 147, 0), (200, 184, 177, 0), (200, 200, 193, 0),
]


def _node_counters(node):
    return (node.proposed_total, node.processed_total, node.pops_total,
            node.parked_count())


@pytest.mark.parametrize("case", sorted(_GOLDEN_NODE))
def test_golden_pair_sum_node_counters(case):
    arrays, k = _golden_inputs()[case]
    node = PairSumNode(LeafGenerator(arrays[0], 1.1), LeafGenerator(arrays[1], 1.1), 1.1)
    while node.generated_count < k:
        node.generate_next_layer()
    assert _node_counters(node) == _GOLDEN_NODE[case]


def test_golden_pair_sum_node_asymmetric_trace():
    a = [i / 100.0 for i in range(50)]
    b = [100.0 + 10.0 * j for j in range(4)]
    node = PairSumNode(LeafGenerator(a, 1.2), LeafGenerator(b, 1.2), 1.2)
    trace = []
    while node.has_more_layers():
        node.generate_next_layer()
        trace.append(_node_counters(node))
    assert trace == _GOLDEN_NODE_ASYMMETRIC


# -- invariant checks under python -O -------------------------------------------

_TAMPERED_CHECKS = """
import cartesian_topk.selectors as sel
from cartesian_topk import LeafGenerator, PairSumNode


def raises(fn):
    try:
        fn()
    except AssertionError:
        return True
    return False


def merge_advances_both_margins():
    leaves = [sel._SortLeaf([1.0, 2.0, 3.0, 4.0]) for _ in range(2)]
    node = sel._SortMerge(leaves[0], leaves[1], sel._FringeGauge())
    node.pop_next()
    node.fringe = [(-1.0, 2, 2)]  # (2, 2) next: both (3, 2) and (2, 3) need a new value
    node.enqueued.add((2, 2))
    node.pop_next()


def tensor_proposes_twice():
    sel._tensor_children = lambda idx, dims: [(2, 1), (2, 1)] if idx == (1, 1) else []
    sel.soft_tensor_select([[1.0, 2.0], [1.0]], 2, debug_checks=True)


def node_proposes_twice():
    node = PairSumNode(LeafGenerator([1.0, 2.0], 1.5), LeafGenerator([1.0, 2.0], 1.5), 1.5,
                       debug_accounting=True)
    node._propose(1, 1)


print(__debug__, raises(merge_advances_both_margins), raises(tensor_proposes_twice),
      raises(node_proposes_twice))
"""


def test_invariant_checks_survive_optimize():
    # -O strips assert statements; these checks must raise anyway
    import os
    import subprocess
    import sys

    import cartesian_topk
    src = os.path.dirname(os.path.dirname(os.path.abspath(cartesian_topk.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-O", "-c", _TAMPERED_CHECKS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False", "True", "True", "True"]
