import itertools
import math
import random
import re
import threading
import tracemalloc

import numpy as np
import pytest

from cartesian_topk import (SELECTORS, ContractViolation, GuardError, LeafGenerator,
                            PairSumNode, ParameterError, RunStats,
                            brute_force_select, fast_soft_tree_select, lohify, select_k_loh,
                            soft_select_pairwise, soft_tensor_select, soft_tree_select,
                            sort_tensor_select, sort_tree_select,
                            theoretical_exponent)
from cartesian_topk.selectors import _Tree


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


# what the agreement tests pass beyond each selector's defaults
KEYWORDS = {"soft-tensor": {"debug_checks": True}, "sort-tree": {"want_indices": True},
            "fast-soft-tree": {"alpha": 1.3}}


def values(name, arrays, k):
    """Values, in returned order, of the registered selector ``name`` called
    with ``KEYWORDS``, or the oracle's for "brute-force"."""
    if name == "brute-force":
        return brute_force_select(arrays, k).values
    return SELECTORS[name](arrays, k, **KEYWORDS.get(name, {})).values


# -- brute force oracle --------------------------------------------------------

def test_brute_two_by_two():
    r = brute_force_select([[1, 2], [3, 4]], 2)
    assert r.values == [4, 5]
    assert r.indices == [(1, 1), (1, 2)]


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


def check_oracle_indices(arrays, result, where=None):
    """The oracle's index tuples are in range, distinct, and resum through
    the input-order axes to their values with ``==``."""
    axes = [np.asarray(a, dtype=np.float64).tolist() for a in arrays]
    assert len(result.indices) == len(result.values), where
    assert len(set(result.indices)) == len(result.indices), where
    for value, idx in zip(result.values, result.indices):
        assert len(idx) == len(axes), where
        assert all(type(i) is int and 1 <= i <= len(ax) for ax, i in zip(axes, idx)), where
        assert balanced_sum([ax[i - 1] for ax, i in zip(axes, idx)]) == value, where


@pytest.mark.parametrize("lengths,k", [
    ([7], 4),                   # m=1: the decode has no internal node
    ([3, 1, 4, 2, 5], 57),      # uneven lengths, k < cells: cells past the k-th value dropped
    ([2, 3, 2, 1, 3], 36),      # k == cells: every cell kept
])
def test_brute_indices_decode_to_input_order(lengths, k):
    # distinct floats, so a wrong index cannot resum to an equal value
    rng = random.Random(43)
    arrays = [[rng.random() for _ in range(n)] for n in lengths]
    check_oracle_indices(arrays, brute_force_select(arrays, k))


def test_brute_breaks_ties_by_lowest_cell_code():
    # of the cells tied at the k-th value the oracle keeps those of lowest
    # code, and it orders the kept cells by (value, code): a pure-Python
    # reference sorts every cell by that key.  Index tuples in lexicographic
    # order are codes in ascending order, and -0.0 == 0.0 ties too.
    rng = random.Random(53)
    for lengths in ([3, 4, 2], [5, 5], [2, 3, 2, 3], [7], [4, 1, 3, 2, 2]):
        for draw in (lambda: float(rng.randint(0, 2)), lambda: rng.choice((-0.0, 0.0, 1.0))):
            arrays = [[draw() for _ in range(n)] for n in lengths]
            cells = sorted((balanced_sum([a[i - 1] for a, i in zip(arrays, idx)]), idx)
                           for idx in itertools.product(*(range(1, n + 1) for n in lengths)))
            ties = 0
            for k in range(1, len(cells) + 1):  # k == cells included
                r = brute_force_select(arrays, k)
                assert r.indices == [idx for _, idx in cells[:k]], (lengths, k)
                assert [v.hex() for v in r.values] == [v.hex() for v, _ in cells[:k]], (lengths, k)
                ties += k < len(cells) and cells[k][0] == cells[k - 1][0]
            assert ties, lengths  # some k cut through a run of equal values


def test_brute_frees_node_arrays_once_summed():
    # length-1 axes make every node on the long axis's path as large as the
    # root; holding them all would multiply the peak by the tree's depth
    cells = 200_000
    arrays = [np.random.default_rng(1).random(cells)] + [[0.5]] * 15
    tracemalloc.start()
    try:
        brute_force_select(arrays, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * cells  # the root and one child, or the root and its argpartition


def _reference_shape(m):
    # the balanced shape by its own recursion over axis spans: internal nodes
    # numbered from m in post-order, each node's depth, each leaf's siblings
    ops, depth, paths = [], {}, [[] for _ in range(m)]

    def build(lo, hi, d):
        if hi - lo == 1:
            depth[lo] = d
            return lo
        mid = (lo + hi + 1) // 2  # left child = first ceil(span/2) axes
        left, right = build(lo, mid, d + 1), build(mid, hi, d + 1)
        for t in range(lo, hi):
            paths[t].append(right if t < mid else left)
        ops.append((left, right))
        depth[m + len(ops) - 1] = d
        return m + len(ops) - 1

    build(0, m, 0)
    return ops, [depth[v] for v in range(2 * m - 1)], paths


def test_tree_shape_matches_reference():
    for m in range(1, 71):
        tree = _Tree(m)
        ops, depth, paths = _reference_shape(m)
        assert tree.ops == ops, m
        assert tree.depth == depth, m
        assert tree.paths == paths, m
        # post-order: children before their parent, every node but the root
        # (the last) a child exactly once
        assert all(left < m + i and right < m + i for i, (left, right) in enumerate(tree.ops)), m
        assert sorted(v for op in tree.ops for v in op) == list(range(2 * m - 2)), m
        for first in (0, m):
            counts = [10 * v + 7 for v in range(first, 2 * m - 1)]
            expected = {}
            for v in range(first, 2 * m - 1):
                expected.setdefault(depth[v], []).append(10 * v + 7)
            assert tree.levels(counts, first) == expected, (m, first)


def test_tree_advanced_resums_only_the_leaf_path():
    # values over 16 decades and both signed zeros: a stale ancestor gives
    # another float, or a zero of the other sign, which repr tells apart
    rng = random.Random(44)
    for m in range(1, 71):
        tree = _Tree(m)
        for zeros in (0.25, 1.0):  # the share of signed zeros drawn
            def draw():
                if rng.random() < zeros:
                    return rng.choice((-0.0, 0.0))
                return rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8)
            vals = [draw() for _ in range(m)]
            sums = tree.partials(vals)
            before = repr(sums)
            for t in range(m):
                value = draw()
                cell = vals[:t] + [value] + vals[t + 1:]
                assert repr(tree.advanced(sums, t, value)) == repr(tree.partials(cell)), (m, t)
            assert repr(sums) == before, m  # the parent's sums are shared, never written


def test_brute_guard():
    with pytest.raises(GuardError):
        brute_force_select([[0.0] * 100] * 4, 5, guard=10**6)


# -- shared contracts ----------------------------------------------------------

@pytest.mark.parametrize("name", SELECTORS)
def test_k_out_of_range(name):
    with pytest.raises(ContractViolation):
        values(name, [[1.0, 2.0]], 3)
    with pytest.raises(ContractViolation):
        values(name, [[1.0, 2.0]], 0)


@pytest.mark.parametrize("k", [2.0, 1.5, "2", True, False, np.True_])
def test_non_integer_k_refused(k):
    for name in ["brute-force", *SELECTORS]:
        with pytest.raises(ContractViolation, match=r"^k=.* not an integer"):
            values(name, [[1.0, 2.0], [3.0]], k)


def test_numpy_integer_k_acts_as_int():
    arrays = [[1.0, 2.0], [3.0]]
    for name in ["brute-force", *SELECTORS]:
        assert values(name, arrays, np.int64(2)) == values(name, arrays, 2) == [4.0, 5.0], name
    stats = [RunStats(), RunStats()]
    for k, s in zip((np.int64(2), 2), stats):
        sort_tree_select(arrays, k, stats=s)
    assert repr(stats[0]) == repr(stats[1])  # no NumPy scalar leaks into the counters


def test_nan_rejected_at_boundary():
    with pytest.raises(ParameterError):
        soft_tree_select([[1.0, float("nan")]], 1)
    with pytest.raises(ParameterError):
        sort_tree_select([[float("inf")], [1.0]], 1)


# -- input boundary --------------------------------------------------------------

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
    expected = values("brute-force", arrays, k)
    assert expected == oracle_values([np.asarray(a, dtype=np.float64).tolist() for a in arrays], k)
    for name in SELECTORS:
        got = values(name, arrays, k)
        assert got == expected, name
        assert all(type(v) is float for v in got + expected), name


_UNREPRESENTABLE = [
    # (id, arrays, what the message must name); each ragged case has
    # equal-length or 2-D ndarray variants, with the bad axis not always first
    ("sum-overflow", [[1e308, 1e308], [1e308]], "overflows"),
    ("string", [[1.0, "x"], [1.0]], r"\barray 0\b"),
    ("nested-axis", [[[1.0, 2.0]], [1.0]], r"\barray 0\b"),
    ("ragged-axis", [[1.0, [2.0]], [1.0]], r"\barray 0\b"),
    ("int-past-float", [[10**400], [1]], r"\barray 0\b"),
    ("complex", [np.array([1 + 2j, 3.0]), [1.0]], r"\barray 0\b"),
    ("numeric-strings", [["1.5", "2"], [1.0]], r"\barray 0\b"),
    ("string-ndarray", [np.array(["1", "2"]), [1.0]], r"\barray 0\b"),
    ("string-in-object-axis", [["1.5", 2**70], [1.0]], r"\barray 0\b"),
    ("datetime64", [np.array(["2020-01-01"], dtype="M8[D]"), [0.0]], r"\barray 0\b"),
    ("timedelta64", [np.array([1, 2], dtype="m8[s]"), [0.0]], r"\barray 0\b"),
    ("sum-overflow-equal", [[1e308, 1e308], [1.0, 1e308]], "overflows"),
    ("sum-overflow-2-d-ndarray", np.array([[1e308, 1e308], [1.0, 1e308]]), "overflows"),
    ("string-equal", [[1.0, 2.0], [1.0, "x"]], r"\barray 1\b"),
    ("nested-axis-equal", [[[1.0, 2.0]], [[1.0, 2.0]]], r"\barray 0\b"),
    ("int-past-float-equal", [[1, 2], [10**400, 3]], r"\barray 1\b"),
    ("complex-equal", [np.array([1.0, 2.0]), np.array([1 + 2j, 3.0])], r"\barray 1\b"),
    ("complex-2-d-ndarray", np.array([[1.0, 2.0], [1 + 2j, 3.0]]), r"\barray 0\b"),
    ("numeric-strings-equal", [[1.0, 2.0], ["1.5", "2"]], r"\barray 1\b"),
    ("string-2-d-ndarray", np.array([["1", "2"], ["3", "4"]]), r"\barray 0\b"),
    ("string-in-object-axis-equal", [[1.0, 2.0], ["1.5", 2**70]], r"\barray 1\b"),
    ("datetime64-equal", [np.array([0.0, 1.0]), np.array(["2020-01-01", "2020-01-02"], dtype="M8[D]")],
     r"\barray 1\b"),
    ("timedelta64-2-d-ndarray", np.array([[1, 2], [3, 4]], dtype="m8[s]"), r"\barray 0\b"),
    ("masked", [np.ma.array([1.0, 2.0], mask=[True, False]), [1.0]], r"\barray 0\b"),
    ("masked-2-d-ndarray", np.ma.array([[1.0, 2.0], [3.0, 4.0]], mask=[[False] * 2, [False, True]]),
     r"\barray 0\b"),
    ("no-axes", [], "^need at least one input array"),
]


# The lower-level entry points that take one sequence of values (the pairwise
# selection two, tried on either side): they check it as the boundary checks
# an axis.
_ONE_AXIS = [
    lambda a: soft_select_pairwise(a, [0.0], 1),
    lambda a: soft_select_pairwise([0.0], a, 1),
    lambda a: LeafGenerator(a, 1.5),
    lambda a: lohify(a, 1.5),
    lambda a: select_k_loh(a, 1, 1.5),
]


def _named_axis(arrays, match):
    """The axis a boundary message must name (``array t``), or None."""
    named = re.search(r"array (\d)", match)
    return arrays[int(named.group(1))] if named else None


@pytest.mark.parametrize("arrays,match", [case[1:] for case in _UNREPRESENTABLE],
                         ids=[case[0] for case in _UNREPRESENTABLE])
@pytest.mark.filterwarnings("error")
def test_boundary_rejects_unrepresentable_inputs(arrays, match):
    # complex, text, datetime and timedelta axes would convert to float64 (a
    # complex one with only a ComplexWarning, a date as days since the epoch),
    # so the boundary refuses them before converting; no axes at all is refused too
    for name in ["brute-force", *SELECTORS]:
        with pytest.raises(ContractViolation, match=match):
            values(name, arrays, 1)
    axis = _named_axis(arrays, match)
    for take in _ONE_AXIS if axis is not None else []:
        with pytest.raises(ContractViolation, match="must convert to float64|nonempty and 1-D"):
            take(axis)


@pytest.mark.parametrize("arrays,match", [
    ([[1.0], [2.0, float("nan")]], "array 1 .* got nan"),
    ([[1.0, 2.0], [float("inf"), 1.0], [float("nan"), 0.0]], "array 1 .* got inf"),
    (np.array([[1.0, 2.0], [3.0, 4.0], [5.0, -np.inf]]), "array 2 .* got -inf"),
], ids=["ragged", "equal-length-lists", "2-d-ndarray"])
def test_boundary_rejects_non_finite_naming_the_axis(arrays, match):
    for name in ["brute-force", *SELECTORS]:
        with pytest.raises(ParameterError, match=match):
            values(name, arrays, 1)
    for take in _ONE_AXIS:
        with pytest.raises(ParameterError, match="finite numbers"):
            take(_named_axis(arrays, match))


def test_fast_alpha_validation():
    with pytest.raises(ParameterError):
        fast_soft_tree_select([[1.0]], 1, alpha=2.0)
    with pytest.raises(ParameterError):
        fast_soft_tree_select([[1.0]], 1, alpha=0.9)
    # LayerSchedule, the one alpha check, refuses a non-real alpha with the
    # documented error, not a TypeError from comparing it with 1 and 2
    for alpha in ("1.5", None, 1.5 + 0j, float("nan")):
        with pytest.raises(ParameterError, match="alpha must be a real number"):
            fast_soft_tree_select([[1, 2], [3, 4]], 2, alpha=alpha)
    got = fast_soft_tree_select([[1, 2], [3, 4]], 2, alpha=np.float32(1.5))
    assert got.values == [4.0, 5.0]


def test_one_calling_convention():
    # arrays and k are the only positional parameters of every registered
    # selector (and of the oracle); stats and each selector's own options
    # are keyword-only with defaults, so one call runs any of them
    import inspect

    from cartesian_topk import soft_select_pairwise
    from cartesian_topk.cli import build_parser
    assert list(SELECTORS) == ["soft-tensor", "soft-tree", "sort-tensor", "sort-tree",
                               "fast-soft-tree"]  # the CLI's names and the CSV's algorithm column
    for name, select in [("brute-force", brute_force_select), *SELECTORS.items()]:
        params = list(inspect.signature(select).parameters.values())
        assert [(p.name, p.kind) for p in params[:2]] == [
            ("arrays", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("k", inspect.Parameter.POSITIONAL_OR_KEYWORD)], name
        assert all(p.kind is p.KEYWORD_ONLY and p.default is not p.empty
                   for p in params[2:]), name
        assert name == "brute-force" or params[2].name == "stats", name
    arrays = [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(TypeError):
        fast_soft_tree_select(arrays, 2, 1.3)
    with pytest.raises(TypeError):
        sort_tree_select(arrays, 2, True)
    algorithm = next(a for a in build_parser()._actions if a.dest == "algorithm")
    assert algorithm.choices == [*SELECTORS, "brute-force", "all"]
    stats = inspect.signature(soft_select_pairwise).parameters["stats"]
    assert (stats.kind, stats.default) == (stats.KEYWORD_ONLY, None)


# -- frozen examples -----------------------------------------------------------

def test_soft_tensor_pairwise_case():
    assert soft_tensor_select([[1, 2], [3, 4]], 3).values == [4, 5, 5]


def test_soft_tensor_all_zero():
    for m in (1, 2, 5):
        k = min(3, 2 ** m)
        got = soft_tensor_select([[0.0, 0.0]] * m, k).values
        assert got == [0.0] * k


def test_soft_tree_single_axis():
    assert soft_tree_select([[4, 2, 9]], 2).values == [2, 4]


def test_soft_tree_four_identical_axes():
    # 16 sums of [1,2]^4: minimum 4, then four 5s
    assert soft_tree_select([[1, 2]] * 4, 3).values == [4, 5, 5]


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
    assert fast_soft_tree_select([[1, 2], [1, 2]], 2, alpha=1.5).values == [2, 3]


def test_fast_all_zero():
    got = fast_soft_tree_select([[0.0, 0.0]] * 4, 5, alpha=1.1).values
    assert got == [0.0] * 5


def test_exponent_values():
    assert abs(theoretical_exponent(1.05) - 0.1407) <= 0.0001
    assert theoretical_exponent(math.sqrt(2)) == pytest.approx(1.0)
    assert theoretical_exponent(2.0) == pytest.approx(2.0)
    assert theoretical_exponent(np.float32(2.0)) == pytest.approx(2.0)
    # refused with the documented error, not a TypeError from comparing with 0
    for alpha in (0.0, -1.0, "1.5", None, 1.5 + 0j, float("nan"), True):
        with pytest.raises(ParameterError, match="alpha must be a positive real number"):
            theoretical_exponent(alpha)


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
                    for name in SELECTORS:
                        assert values(name, arrays, k) == expected, (name, m, n, k)


def test_agreement_medium_m_cross_checked():
    # tensors here exceed the brute-force guard, so the sorted selectors
    # cross-check each other and anchor the soft ones
    rng = np.random.Generator(np.random.PCG64(11))
    for seed in range(5):
        arrays = [row.tolist() for row in rng.random((8, 8))]
        expected = sort_tensor_select(arrays, 64).values
        assert sort_tree_select(arrays, 64).values == expected
        assert soft_tree_select(arrays, 64).values == expected
        assert fast_soft_tree_select(arrays, 64, alpha=1.1).values == expected

    for seed in range(5):
        arrays = [row.tolist() for row in rng.random((16, 8))]
        expected = sort_tensor_select(arrays, 100).values
        assert sort_tree_select(arrays, 100, want_indices=True).values == expected
        assert soft_tree_select(arrays, 100).values == expected


def test_agreement_deep_m_cross_checked():
    rng = np.random.Generator(np.random.PCG64(13))
    arrays = [row.tolist() for row in rng.random((64, 3))]
    expected = sort_tensor_select(arrays, 200).values
    assert sort_tree_select(arrays, 200).values == expected
    assert soft_tree_select(arrays, 200).values == expected
    assert fast_soft_tree_select(arrays, 200, alpha=1.05).values == expected


def test_fast_beyond_float_range():
    # 64^256 tensor cells: node schedules must not compute totals past float range
    rng = np.random.Generator(np.random.PCG64(14))
    arrays = [row.tolist() for row in rng.random((256, 64))]
    expected = sort_tree_select(arrays, 1024).values
    assert fast_soft_tree_select(arrays, 1024, alpha=1.1).values == expected


@pytest.mark.parametrize("name", ["brute-force", *SELECTORS])
def test_inputs_left_unchanged(name):
    rng = np.random.Generator(np.random.PCG64(15))
    lists = [row.tolist() for row in rng.integers(0, 4, (3, 6)).astype(np.float64)]
    ndarrays = [np.array(row) for row in lists]
    for arrays in (lists, ndarrays, *([a.astype(t) for a in ndarrays]
                                      for t in (np.float32, np.int64, np.bool_))):
        before = [list(a) for a in arrays]
        values(name, arrays, 20)
        assert [list(a) for a in arrays] == before


def test_fast_leaf_level_generation_bound():
    # leaves produce at most ~alpha^(2 log2 m) * k values in total
    bound = 1.5 * (1.1 ** (2 * math.log2(8))) * 128
    for seed in range(20):
        rng = np.random.Generator(np.random.PCG64(seed))
        arrays = [row.tolist() for row in rng.random((8, 16))]
        stats = RunStats()
        got = fast_soft_tree_select(arrays, 128, alpha=1.1, stats=stats).values
        assert got == soft_tree_select(arrays, 128).values
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
    got = fast_soft_tree_select(arrays, 512, alpha=1.1, stats=stats).values
    assert got == sort_tree_select(arrays, 512).values
    assert stats.generated_per_level[6] < 0.02 * 64 * 1024


def test_fast_soft_tree_answer_is_the_root_prefix(monkeypatch):
    # every generated layer is ascending, so the root's first k values are
    # the answer: no 1-D selection runs after the layer loop
    import cartesian_topk.pairwise as pw
    import cartesian_topk.selectors as sel

    def refuse(*args, **kwargs):
        raise AssertionError("fast-soft-tree ran a 1-D selection")

    monkeypatch.setattr(sel, "select_k", refuse)
    monkeypatch.setattr(pw, "select_k", refuse)
    ties = np.random.Generator(np.random.PCG64(16)).integers(0, 3, (5, 6)).astype(np.float64)
    cases = [([[3.0, -1.0, 2.0, 2.0, 0.5]], 4),  # m = 1: the root is a leaf
             ([[1.0, 2.0, 3.0], [0.5, 4.0], [2.0, 0.0]], 12),  # k = every cell
             (list(ties), 500),  # heavy ties
             ([[-0.0, 0.0, 1.0], [0.0, -0.0, -0.0], [0.0, -0.0]], 18)]  # signed zeros
    for arrays, k in cases:
        for alpha in (1.05, 1.1, 1.5):
            got = fast_soft_tree_select(arrays, k, alpha=alpha).values
            assert got == brute_force_select(arrays, k).values, (arrays, k, alpha)


def test_fast_nodes_of_one_size_share_one_schedule_per_call(monkeypatch):
    # the paper's shape at small n: 64 leaves of 8 values, 7 node sizes
    import cartesian_topk.selectors as sel
    from cartesian_topk.bench import generate_inputs

    made: list = []

    def recording(cls):
        def make(*args, **kwargs):
            made.append(cls(*args, **kwargs))
            return made[-1]
        return make

    monkeypatch.setattr(sel, "LeafGenerator", recording(LeafGenerator))
    monkeypatch.setattr(sel, "PairSumNode", recording(PairSumNode))
    arrays = generate_inputs("exponential", 64, 8, seed=1)
    calls = []
    for _ in range(2):
        made.clear()
        assert fast_soft_tree_select(arrays, 64).values == sort_tree_select(arrays, 64).values
        assert len(made) == 127
        by_size: dict = {}
        for node in made:
            by_size.setdefault(node.total_size, []).append(node.schedule)
        assert sorted(by_size) == [8 ** 2 ** d for d in range(7)]
        for size, schedules in by_size.items():
            assert all(s is schedules[0] for s in schedules), size
        calls.append([schedules[0] for schedules in by_size.values()])
    assert not any(s is t for s in calls[0] for t in calls[1])


def test_fast_two_threads_at_once_match_the_oracle():
    # each call's schedules are its own, so concurrent calls do not meet
    rng = np.random.Generator(np.random.PCG64(17))
    inputs = [[row.tolist() for row in rng.random((4, 12))] for _ in range(2)]
    expected = [brute_force_select(arrays, 300).values for arrays in inputs]
    start = threading.Barrier(2)
    got: list = [[], []]

    def work(t):
        start.wait()
        for _ in range(5):
            got[t].append(fast_soft_tree_select(inputs[t], 300, alpha=1.05).values)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert got == [[expected[0]] * 5, [expected[1]] * 5]


def test_agreement_duplicate_heavy():
    rng = random.Random(43)
    for _ in range(40):
        m = rng.randint(1, 4)
        arrays = [[float(rng.randint(0, 3)) for _ in range(rng.randint(1, 4))]
                  for _ in range(m)]
        total = math.prod(len(a) for a in arrays)
        k = rng.randint(1, total)
        expected = brute_force_select(arrays, k).values
        for name in SELECTORS:
            assert values(name, arrays, k) == expected, (name, arrays, k)


# -- sorted output, indices, invariants -----------------------------------------

def test_sorted_outputs_nondecreasing():
    # every selector and the oracle, k == cells included, where a cut keeps
    # everything without a partition
    rng = random.Random(44)
    for _ in range(50):
        m = rng.randint(1, 5)
        arrays = [[rng.choice((rng.random(), float(rng.randint(-2, 2))))
                   for _ in range(rng.randint(1, 6))] for _ in range(m)]
        total = math.prod(len(a) for a in arrays)
        for k in {rng.randint(1, min(total, 30)), total}:
            for name in ["brute-force", *SELECTORS]:
                got = values(name, arrays, k)
                assert all(x <= y for x, y in zip(got, got[1:])), (name, arrays, k)


def test_sort_indices_resum_through_sorted_axes():
    rng = random.Random(45)
    for _ in range(30):
        m = rng.randint(1, 4)
        arrays = [[rng.random() for _ in range(rng.randint(1, 5))] for _ in range(m)]
        total = math.prod(len(a) for a in arrays)
        k = rng.randint(1, min(total, 20))
        ordered = [sorted(a) for a in arrays]
        for r in (sort_tensor_select(arrays, k), sort_tree_select(arrays, k, want_indices=True)):
            assert r.indices is not None
            for value, idx in zip(r.values, r.indices):
                assert value == balanced_sum([ordered[t][i - 1] for t, i in enumerate(idx)])


@pytest.mark.parametrize("m", [13, 64])
def test_tensor_selectors_resum_at_wide_m(m):
    # values spanning 16 decades make every grouping of the sum give other
    # floats, so a tensor cell must be summed by the canonical tree exactly
    rng = random.Random(47 + m)
    for _ in range(10):
        arrays = [[rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(rng.randint(2, 3))]
                  for _ in range(m)]
        k = rng.randint(1, 20)
        ordered = [sorted(a) for a in arrays]
        r = sort_tensor_select(arrays, k)
        for value, idx in zip(r.values, r.indices):
            assert value == balanced_sum([ordered[t][i - 1] for t, i in enumerate(idx)])
        assert r.values == sort_tree_select(arrays, k).values
        assert soft_tensor_select(arrays, k, debug_checks=True).values == r.values


@pytest.mark.parametrize("m", [5, 7])
def test_sort_tensor_resums_along_deep_pop_chains(m):
    # a popped cell's node sums are its parent's, advanced on one leaf path,
    # so the k-th cell's come from a chain of sum(idx) - m carried re-sums;
    # over 16 decades (and one signed zero per axis) a stale node gives
    # another float
    rng = random.Random(51 + m)
    arrays = []
    for _ in range(m):
        a = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(63)]
        a.append(rng.choice((-0.0, 0.0)))
        rng.shuffle(a)
        arrays.append(a)
    ordered = [sorted(a) for a in arrays]  # one zero per axis: no order among equals
    r = sort_tensor_select(arrays, 2000)
    assert max(sum(idx) - m for idx in r.indices) >= 40
    for value, idx in zip(r.values, r.indices):
        assert repr(value) == repr(balanced_sum([ordered[t][i - 1] for t, i in enumerate(idx)])), idx


def test_sort_tensor_breaks_ties_by_index_tuple():
    # the fringe orders cells by (sum, index tuple), so on tie-heavy axes
    # the k cells it pops are the first k of every cell sorted that way
    rng = random.Random(48)
    for _ in range(300):
        lengths, cells = [], 1
        for _ in range(rng.randint(1, 9)):
            lengths.append(rng.randint(1, min(6, 300 // cells)))
            cells *= lengths[-1]
        ordered = [sorted(float(rng.randint(0, 3)) for _ in range(n)) for n in lengths]
        k = rng.randint(1, cells)
        every = sorted((balanced_sum([ax[i - 1] for ax, i in zip(ordered, idx)]), idx)
                       for idx in itertools.product(*(range(1, n + 1) for n in lengths)))
        r = sort_tensor_select(ordered, k)
        assert r.indices == [idx for _, idx in every[:k]]
        assert r.values == [value for value, _ in every[:k]]


def _m256_float_ties():
    rng = random.Random(49)
    return [[rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(4)]
            for _ in range(256)]


def _m256_distinct():
    # axis t holds {0, 1 + t/512, 8 + t/512, 9}: the 40 smallest sums are 0
    # and one 1 + t/512 each, all exact and distinct
    rng = random.Random(50)
    arrays = []
    for t in range(256):
        a = [0.0, 1 + t * 2 ** -9, 8 + t * 2 ** -9, 9.0]
        rng.shuffle(a)
        arrays.append(a)
    rng.shuffle(arrays)
    return arrays


@pytest.mark.parametrize("make", [_m256_float_ties, _m256_distinct],
                         ids=["float-ties", "distinct"])
def test_sort_tensor_at_m256(make):
    # 4^256 cells: far past any fixed-width integer that could key a cell in
    # either tensor selector.  On the first input float rounding ties the 40
    # smallest sums, so soft-tensor's wrong codes would show only as a cell
    # proposed twice; on the second they are 40 distinct floats, so a wrong
    # cell also shows in the values.
    arrays = make()
    ordered = [sorted(a) for a in arrays]
    r = sort_tensor_select(arrays, 40)
    assert r.values == sort_tree_select(arrays, 40).values
    assert soft_tensor_select(arrays, 40, debug_checks=True).values == r.values
    for value, idx in zip(r.values, r.indices):
        assert value == balanced_sum([ordered[t][i - 1] for t, i in enumerate(idx)])


def test_sort_tree_indices_off_by_default():
    assert sort_tree_select([[1.0, 2.0]], 1).indices is None


def _sort_merges(arrays):
    import cartesian_topk.selectors as sel
    nodes = [sel.AscendingPrefix(a) for a in arrays]
    gauge = sel._FringeGauge()
    for left, right in _Tree(len(arrays)).ops:
        nodes.append(sel._SortMerge(nodes[left], nodes[right], gauge))
    return nodes


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("kind", ["ties", "distinct"])
def test_sort_merge_reads_like_an_ascending_prefix(kind, m):
    # a merge offers an axis's n, values and reach: reach(c) extends one list
    # in place to the min(c, n) smallest sums of the node's cells, and rows
    # and cols count the child values its pops read, which are the pops a
    # child merge makes (pinned by test_golden_sorted_pop_order)
    import cartesian_topk.selectors as sel
    rng = random.Random(70 + m)
    lengths = [rng.randint(2, 5) for _ in range(m)]
    draw = (lambda: float(rng.randint(0, 3))) if kind == "ties" else rng.random
    arrays = [[draw() for _ in range(n)] for n in lengths]
    sums = [sorted(a) for a in arrays]
    for left, right in _Tree(m).ops:
        sums.append(sorted(x + y for x in sums[left] for y in sums[right]))
    for v in range(m, 2 * m - 1):
        node = _sort_merges(arrays)[v]  # a fresh tree: only this node drives its children
        values = node.values
        for c in range(1, node.n + 6):
            assert node.reach(c) is values
            assert values == sums[v][:c]
            assert node.rows == min(node.left.n, 1 + max(i for i, _ in node.history))
            assert node.cols == min(node.right.n, 1 + max(j for _, j in node.history))
            for child, read in ((node.left, node.rows), (node.right, node.cols)):
                if isinstance(child, sel._SortMerge):
                    assert len(child.values) == read
        assert len(values) == node.n == len(sums[v])


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


def test_soft_tensor_proposes_every_cell_once():
    # every shape of m <= 6 axes of 1, 2 or 3 values, run to exhaustion: the
    # proposer rule reaches each cell exactly once (an insert per cell), past
    # axes of length 1 and 2 where a child falls off its axis
    rng = random.Random(52)
    for m in range(1, 7):
        for lengths in itertools.product((1, 2, 3), repeat=m):
            arrays = [[float(rng.randint(0, 2)) for _ in range(n)] for n in lengths]
            cells = math.prod(lengths)
            stats = RunStats()
            r = soft_tensor_select(arrays, cells, stats=stats, debug_checks=True)
            assert r.values == brute_force_select(arrays, cells).values, lengths
            assert stats.values_generated == cells, lengths
    # m = 256: a payload's axis t runs to 255, and its proposer's settle
    # number p to 512 and beyond
    arrays = [[rng.random() for _ in range(2)] for _ in range(256)]
    r = soft_tensor_select(arrays, 512, debug_checks=True)
    assert r.values == sort_tensor_select(arrays, 512).values


def test_soft_heap_calls_reach_the_class_methods(monkeypatch):
    # counting wrappers on the SoftHeap class, as perfbench/layers.py
    # installs them, see every insert and extraction of the three soft-heap
    # selectors: the selectors reach the kernel only through the instance
    import cartesian_topk.selectors as sel
    from cartesian_topk.soft_heap import SoftHeap
    counts = {"insert": 0, "extract_min": 0}
    for name in counts:
        original = getattr(SoftHeap, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(SoftHeap, name, counted)
    outputs = []
    pairwise = sel.soft_select_pairwise

    def recorded(*args, **kwargs):
        outputs.append(pairwise(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(sel, "soft_select_pairwise", recorded)
    arrays, k = _golden_inputs()["ties"]

    def run(select, **keywords):
        counts.update(insert=0, extract_min=0)
        stats = RunStats()
        select(arrays, k, stats=stats, **keywords)
        return stats

    stats = run(soft_tensor_select)
    assert counts["insert"] == stats.values_generated > 0
    assert counts["extract_min"] >= k
    stats = run(soft_tree_select)
    node_outputs = sum(min(k, len(a)) for a in arrays) + sum(len(out) for out in outputs)
    assert len(outputs) == len(arrays) - 1
    assert counts["insert"] == stats.values_generated - node_outputs > 0
    assert counts["extract_min"] >= k
    run(fast_soft_tree_select, alpha=1.1)
    assert counts["insert"] > 0 and counts["extract_min"] > 0


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
    fast_soft_tree_select(arrays, 30, alpha=1.2, stats=stats)
    assert set(stats.generated_per_level) == {0, 1, 2, 3}
    assert stats.generated_per_level[0] >= 30
    assert stats.values_generated == sum(stats.generated_per_level.values())


def test_fast_stats_reused_across_depths_add_this_calls_levels():
    # a deeper call leaves levels a shallower one does not overwrite; the
    # second call must add its own levels' total, not every level's
    rng = random.Random(50)
    deep = [[rng.random() for _ in range(6)] for _ in range(8)]
    shallow = [[rng.random() for _ in range(6)] for _ in range(2)]
    separate = []
    for arrays in (deep, shallow):
        stats = RunStats()
        fast_soft_tree_select(arrays, 20, alpha=1.2, stats=stats)
        separate.append(stats.values_generated)
    shared = RunStats()
    fast_soft_tree_select(deep, 20, alpha=1.2, stats=shared)
    fast_soft_tree_select(shallow, 20, alpha=1.2, stats=shared)
    assert shared.values_generated == sum(separate)


# -- golden counters -----------------------------------------------------------
# Every counter below was recorded from the selectors as they stood before the
# three soft-heap sites shared one settle loop, except the uniform and
# exponential soft-tensor and soft-tree rows, re-recorded when every selector
# began to see its axes in ascending order (their heaps start in that order),
# and sort-tree's fringe_peak and sort-tensor's values_generated and
# fringe_peak, re-recorded when each cell of the sorted selectors got one
# proposer (the same pops from a smaller fringe).  A refactor that keeps the
# soft-heap insertion order and the tree shapes keeps them all, so any change
# here means the work done changed, not just the code.

def _golden_inputs():
    from cartesian_topk.bench import generate_inputs
    rng = random.Random(5)
    ties = [[float(rng.randint(0, 3)) for _ in range(10)] for _ in range(5)]
    return {
        "uniform": (generate_inputs("uniform", 4, 12, 3), 40),
        "exponential": (generate_inputs("exponential", 3, 16, 4), 50),
        "ties": (ties, 60),
    }


# (pops_per_level, generated_per_level, values_generated, corrupted_count, fringe_peak)
_GOLDEN_STATS = {
    ("uniform", "soft-tensor"): ({}, {}, 162, 2, 122),
    ("uniform", "soft-tree"): ({}, {}, 440, 19, 75),
    ("uniform", "sort-tensor"): ({}, {}, 82, 0, 42),
    ("uniform", "sort-tree"): ({0: 40.0, 1: 11.5, 2: 5.5}, {}, 85, 0, 25),
    ("uniform", "fast-soft-tree"): ({0: 41.0, 1: 22.5}, {0: 41, 1: 45, 2: 41}, 127, 4, 17),
    ("exponential", "soft-tensor"): ({}, {}, 130, 1, 80),
    ("exponential", "soft-tree"): ({}, {}, 382, 14, 77),
    ("exponential", "sort-tensor"): ({}, {}, 66, 0, 16),
    ("exponential", "sort-tree"): ({0: 50.0, 1: 10.0, 2: 6.5}, {}, 83, 0, 18),
    ("exponential", "fast-soft-tree"): ({0: 51.0, 1: 51.0}, {0: 51, 1: 60, 2: 32}, 143, 4, 16),
    ("ties", "soft-tensor"): ({}, {}, 216, 0, 156),
    ("ties", "soft-tree"): ({}, {}, 734, 1, 87),
    ("ties", "sort-tensor"): ({}, {}, 88, 0, 28),
    ("ties", "sort-tree"): ({0: 60.0, 1: 12.0, 2: 4.75, 3: 3.0}, {}, 109, 0, 18),
    ("ties", "fast-soft-tree"): ({0: 63.0, 1: 32.5, 2: 41.0},
                                 {0: 63, 1: 65, 2: 71, 3: 20}, 219, 0, 20),
}


@pytest.mark.parametrize("case,name", sorted(_GOLDEN_STATS))
def test_golden_run_stats(case, name):
    arrays, k = _golden_inputs()[case]
    stats = RunStats()
    result = SELECTORS[name](arrays, k, stats=stats)  # defaults: fast-soft-tree at alpha 1.1
    assert result.values == brute_force_select(arrays, k).values
    got = (stats.pops_per_level, stats.generated_per_level, stats.values_generated,
           stats.corrupted_count, stats.fringe_peak)
    assert got == _GOLDEN_STATS[case, name]


# every RunStats field on the paper's case (m=64, n=1024, k=512, exponential,
# seed 1), recorded after each 1-D cut began to sort what it keeps, which made
# these counters the same on any CPU
_GOLDEN_PAPER_M64 = {
    "soft-tensor": "RunStats(pops_per_level={}, values_generated=22083, corrupted_count=27, "
                   "fringe_peak=21571, generated_per_level={})",
    "soft-tree": "RunStats(pops_per_level={}, values_generated=138557, corrupted_count=5945, "
                 "fringe_peak=905, generated_per_level={})",
    "sort-tensor": "RunStats(pops_per_level={}, values_generated=10778, corrupted_count=0, "
                   "fringe_peak=10266, generated_per_level={})",
    "sort-tree": "RunStats(pops_per_level={6: 3.0625, 5: 3.34375, 4: 4.875, 3: 6.875, "
                 "2: 17.75, 1: 66.5, 0: 512.0}, values_generated=1152, corrupted_count=0, "
                 "fringe_peak=359, generated_per_level={})",
    "fast-soft-tree": "RunStats(pops_per_level={5: 25.40625, 4: 45.8125, 3: 81.875, "
                      "2: 152.75, 1: 281.0, 0: 544.0}, values_generated=4839, "
                      "corrupted_count=278, fringe_peak=140, generated_per_level={6: 921, "
                      "5: 813, 4: 733, 3: 655, 2: 611, 1: 562, 0: 544})",
}


@pytest.mark.parametrize("name", SELECTORS)
def test_golden_run_stats_paper_m64(name):
    from cartesian_topk.bench import generate_inputs
    stats = RunStats()
    SELECTORS[name](generate_inputs("exponential", 64, 1024, 1), 512, stats=stats)
    assert repr(stats) == _GOLDEN_PAPER_M64[name]


# sha256 of the sorted selectors' pop order, recorded before each cell got
# exactly one proposer: values, indices (ties pop in a fixed order) and, for
# sort-tree, pops_per_level, over m = 2..9 on distinct and tie-heavy axes of
# 2-7 values; m = 2 and 3 run to exhaustion
_POP_ORDER_DIGESTS = {
    ("sort-tensor", "distinct"): "bbaf0cfb1530412974e954f0ab0761c4a63f7f9d4eba8005ca70497070836d6b",
    ("sort-tensor", "ties"): "7a93fbf8733a82c4dd6f283b543c92a397a78fa4a57a185ca29e8f53794f87da",
    ("sort-tree", "distinct"): "931142b63b3fa411588cda76c10d5fe94ae12a4c4cf8ee28d5f4800f9c5ea178",
    ("sort-tree", "ties"): "a97c5e2d05dc4a8de85306eea5689d62e4afa9d7ddb84f8841c10e7e9901f43f",
}


def _pop_order_inputs(kind):
    rng = random.Random(7 if kind == "ties" else 8)
    for m in range(2, 10):
        lengths = [rng.randint(2, 7) for _ in range(m)]
        draw = (lambda: float(rng.randint(0, 3))) if kind == "ties" else rng.random
        arrays = [[draw() for _ in range(n)] for n in lengths]
        yield arrays, min(math.prod(lengths), 150)


@pytest.mark.parametrize("name,kind", sorted(_POP_ORDER_DIGESTS))
def test_golden_sorted_pop_order(name, kind):
    import hashlib
    trace = []
    for arrays, k in _pop_order_inputs(kind):
        if name == "sort-tree":
            stats = RunStats()
            result = sort_tree_select(arrays, k, want_indices=True, stats=stats)
            trace.append((result.values, result.indices, stats.pops_per_level))
        else:
            result = sort_tensor_select(arrays, k)
            trace.append((result.values, result.indices))
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == _POP_ORDER_DIGESTS[name, kind]


# sha256 of soft-tensor's values in their returned order and every RunStats
# field, recorded while soft-heap payloads were still index tuples; distinct
# and paper-m64 were re-recorded, with every counter unchanged, when each 1-D
# cut began to sort what it keeps, so the returned order became ascending
_SOFT_TENSOR_SETTLE_DIGESTS = {
    "distinct": "f3cef4f3bfde19fcb77bf00d86aba6e6f8c91f2531d0b93e0640f157a617fc39",
    "ties": "6c0b569aa0b0578d75e05d7209e2a7df0803914587a56c436a9ed9b8e1aeb88d",
    "paper-m64": "7f0a268dee9cd4bace58569f38c1d362fc66ac08b5f458e6a37df91f20a1c1c3",
}


@pytest.mark.parametrize("kind", sorted(_SOFT_TENSOR_SETTLE_DIGESTS))
def test_golden_soft_tensor_settle_order(kind):
    import hashlib
    if kind == "paper-m64":
        from cartesian_topk.bench import generate_inputs
        cases = [(generate_inputs("exponential", 64, 1024, 1), 512)]
    else:
        cases = _pop_order_inputs(kind)
    trace = []
    for arrays, k in cases:
        stats = RunStats()
        trace.append((soft_tensor_select(arrays, k, stats=stats).values, stats))
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == _SOFT_TENSOR_SETTLE_DIGESTS[kind]


def _last_axis_inputs():
    # a deep-k-shaped input (k = 8n, most settles advance the last axis) and a
    # tie-heavy one whose last two axes have length 1, so the last axis with
    # more than one value is not axis m-1
    from cartesian_topk.bench import generate_inputs
    rng = random.Random(27)
    ties = [[float(rng.randint(0, 7)) for _ in range(n)] for n in (9, 7, 12, 6, 1, 1)]
    return {"deep-k": (generate_inputs("uniform", 4, 256, 1), 2048), "ties": (ties, 2000)}


# repr(RunStats) and sha256 of the returned values, recorded while every
# settled cell still copied its proposer's node sums
_SOFT_TENSOR_LAST_AXIS_GOLDEN = {
    "deep-k": ("RunStats(pops_per_level={}, values_generated=5039, corrupted_count=102, "
               "fringe_peak=2991, generated_per_level={})",
               "0199f1e64fec8bff385625f6c2951432c92fb847c2fd8c2145c941ad13a52211"),
    "ties": ("RunStats(pops_per_level={}, values_generated=2976, corrupted_count=1, "
             "fringe_peak=1044, generated_per_level={})",
             "31a17ea19a9509d6375dc3779cca22594aa7d7a1790594f51ac1e8bd85da61b1"),
}


@pytest.mark.parametrize("kind", sorted(_SOFT_TENSOR_LAST_AXIS_GOLDEN))
def test_golden_soft_tensor_last_axis(kind):
    import hashlib
    arrays, k = _last_axis_inputs()[kind]
    stats = RunStats()
    result = soft_tensor_select(arrays, k, stats=stats)
    digest = hashlib.sha256(repr(result.values).encode()).hexdigest()
    assert (repr(stats), digest) == _SOFT_TENSOR_LAST_AXIS_GOLDEN[kind]
    assert result.values == sort_tensor_select(arrays, k).values


# repr(RunStats) and sha256 of the returned (values, indices), recorded while
# every pop still copied its parent's node sums
_SORT_TENSOR_LAST_AXIS_GOLDEN = {
    "deep-k": ("RunStats(pops_per_level={}, values_generated=2510, corrupted_count=0, "
               "fringe_peak=462, generated_per_level={})",
               "5c9d26703e63668e0605ac50375430625d6e25ca230a590bf60d4ba1088bb89b"),
    "ties": ("RunStats(pops_per_level={}, values_generated=2432, corrupted_count=0, "
             "fringe_peak=436, generated_per_level={})",
             "641e80e84583758acbd9f01db61a624b41037ed52dfa55c2c99be636f3f22466"),
}


@pytest.mark.parametrize("kind", sorted(_SORT_TENSOR_LAST_AXIS_GOLDEN))
def test_golden_sort_tensor_last_axis(kind):
    import hashlib
    arrays, k = _last_axis_inputs()[kind]
    stats = RunStats()
    result = sort_tensor_select(arrays, k, stats=stats)
    digest = hashlib.sha256(repr((result.values, result.indices)).encode()).hexdigest()
    assert (repr(stats), digest) == _SORT_TENSOR_LAST_AXIS_GOLDEN[kind]


def _sort_tree_index_cases():
    # the pop-order kinds, the deep-k- and ties-shaped inputs above, a
    # ties-ndarray-shaped one (float64 rows of integers 0..7) and 200 random
    # shapes of m = 1..9 axes, k up to all cells or 300
    yield from _pop_order_inputs("distinct")
    yield from _pop_order_inputs("ties")
    yield from _last_axis_inputs().values()
    rng = np.random.default_rng(32)
    yield rng.integers(0, 8, size=(8, 16)).astype(np.float64), 1500
    rng = random.Random(32)
    for _ in range(200):
        lengths = [rng.randint(1, 6) for _ in range(rng.randint(1, 9))]
        draw = rng.random if rng.random() < 0.5 else (lambda: float(rng.randint(0, 3)))
        arrays = [[draw() for _ in range(n)] for n in lengths]
        yield arrays, rng.randint(1, min(math.prod(lengths), 300))


def test_sort_tree_indices_change_no_values_or_counters():
    # only want_indices=True records each merge's pop history; the values and
    # every RunStats field must not depend on it
    for arrays, k in _sort_tree_index_cases():
        plain, indexed = RunStats(), RunStats()
        without = sort_tree_select(arrays, k, stats=plain)
        with_indices = sort_tree_select(arrays, k, stats=indexed, want_indices=True)
        assert without.indices is None and len(with_indices.indices) == k
        assert without.values == with_indices.values
        assert repr(plain) == repr(indexed)


def test_selectors_leave_no_reference_cycles():
    # with the cyclic collector paused, a call must free everything it made
    # by reference counting alone: no closure or tree outlives its call
    import gc

    from cartesian_topk.bench import generate_inputs
    calls = [(name, select, {}) for name, select in SELECTORS.items()]
    calls += [("oracle", brute_force_select, {}),
              ("sort-tree", sort_tree_select, {"want_indices": True}),
              ("soft-tensor", soft_tensor_select, {"debug_checks": True})]
    for m, n, k in ((7, 6, 50), (64, 3, 40)):
        arrays = generate_inputs("uniform", m, n, 1)
        for name, select, kwargs in calls:
            if name == "oracle" and m == 64:
                continue  # 3^64 cells: past the materialization guard
            gc.collect()
            gc.disable()
            try:
                select(arrays, k, **kwargs)
                assert gc.collect() == 0, (m, name, kwargs)
            finally:
                gc.enable()


@pytest.mark.parametrize("lengths", [(5, 4, 1, 1), (4, 1, 6), (1, 1, 1), (1,), (7,), (3, 1)])
def test_soft_tensor_matches_oracle_around_length_one_axes(lengths):
    # trailing length-1 axes, a length-1 middle axis, all axes of length 1 and
    # m = 1: the last axis with more than one value (axis 0 if there is none)
    # is where either tensor selector stops opening later axes; every k up to
    # exhaustion
    rng = random.Random(sum(lengths) * len(lengths))
    arrays = [[float(rng.randint(0, 3)) for _ in range(n)] for n in lengths]
    ordered = [sorted(a) for a in arrays]
    for k in range(1, math.prod(lengths) + 1):
        expected = brute_force_select(arrays, k).values
        assert soft_tensor_select(arrays, k, debug_checks=True).values == expected, (lengths, k)
        result = sort_tensor_select(arrays, k)
        assert result.values == expected, (lengths, k)
        assert len(set(result.indices)) == k, (lengths, k)
        assert result.values == [balanced_sum([ax[i - 1] for ax, i in zip(ordered, idx)])
                                 for idx in result.indices], (lengths, k)


def test_soft_tensor_shares_node_sums_on_the_last_axis(monkeypatch):
    # a settle on the last axis with more than one value keeps its proposer's
    # node sums, so _Tree.advanced runs only for the other settles
    import cartesian_topk.selectors as sel
    calls = {"advanced": 0, "settled": 0}
    advanced, pop_and_pool = sel._Tree.advanced, sel.pop_and_pool

    def counted(self, *args):
        calls["advanced"] += 1
        return advanced(self, *args)

    def counted_pool(soft, pops, pool, propose):
        def settle(payload):
            calls["settled"] += 1
            propose(payload)
        return pop_and_pool(soft, pops, pool, settle)

    monkeypatch.setattr(sel._Tree, "advanced", counted)
    monkeypatch.setattr(sel, "pop_and_pool", counted_pool)
    arrays, k = _last_axis_inputs()["deep-k"]
    soft_tensor_select(arrays, k)
    assert calls["advanced"] == 308  # 2,056, one per settle, while every settle copied
    assert calls["advanced"] < calls["settled"] == 2056


def test_sort_tensor_shares_node_sums_on_the_last_axis(monkeypatch):
    # a pop on the last axis with more than one value keeps its parent's node
    # sums, so _Tree.advanced runs only for the other pops
    import cartesian_topk.selectors as sel
    calls = []
    advanced = sel._Tree.advanced

    def counted(self, sums, t, value):
        calls.append(t)
        return advanced(self, sums, t, value)

    monkeypatch.setattr(sel._Tree, "advanced", counted)
    arrays, k = _last_axis_inputs()["deep-k"]
    assert len(sort_tensor_select(arrays, k).values) == 2048
    assert len(calls) == 306  # 2,048, one per pop, while every pop copied
    assert 3 not in calls  # axis 3 is the last open axis here


@pytest.mark.parametrize("m", range(2, 7))
def test_sorted_selectors_push_each_cell_once(monkeypatch, m):
    # nothing at run time drops a repeated push, so record every push while
    # both sorted selectors run to exhaustion on a tie-heavy grid: each cell
    # (each merge node's cell, in sort-tree) is pushed once and pops
    import heapq
    import types

    import cartesian_topk.selectors as sel
    pushed = []

    def heappush(heap, item):
        pushed.append((id(heap), item))
        heapq.heappush(heap, item)

    monkeypatch.setattr(sel, "heapq", types.SimpleNamespace(heappush=heappush, heappop=heapq.heappop))
    rng = random.Random(60 + m)
    lengths = [rng.randint(2, 4) for _ in range(m)]
    arrays = [[float(rng.randint(0, 2)) for _ in range(n)] for n in lengths]
    cells = math.prod(lengths)
    every_cell = set(itertools.product(*(range(1, n + 1) for n in lengths)))

    stats = RunStats()
    result = sort_tensor_select(arrays, cells, stats=stats)
    codes = [item[1] for _, item in pushed]
    assert len(set(codes)) == len(codes) and 0 not in codes  # the root (code 0) is seeded
    assert set(result.indices) == every_cell
    assert len(codes) + 1 == stats.values_generated

    pushed.clear()
    result = sort_tree_select(arrays, cells, want_indices=True)
    keys = [(heap, item[1], item[2]) for heap, item in pushed]
    assert len(set(keys)) == len(keys)
    assert set(result.indices) == every_cell
    sizes = list(lengths)
    for left, right in _Tree(m).ops:
        sizes.append(sizes[left] * sizes[right])
    assert len(keys) == sum(size - 1 for size in sizes[m:])  # each merge seeds its (1, 1)


def test_identical_calls_repeat_values_and_run_stats():
    # no module state survives a call: an unrelated 1-D selection between
    # three identical calls moves neither the values nor any counter
    from cartesian_topk import select_k
    from cartesian_topk.bench import generate_inputs
    arrays = generate_inputs("exponential", 8, 64, 5)
    rng = random.Random(6)
    unrelated = [rng.random() for _ in range(101)]
    for name, select in SELECTORS.items():
        outcomes = []
        for _ in range(3):
            stats = RunStats()
            outcomes.append((select(arrays, 256, stats=stats).values, stats))
            select_k(unrelated, 50)
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0], name


@pytest.mark.parametrize("name", sorted(SELECTORS))
def test_reused_run_stats_levels_describe_the_last_call(name):
    # one object through an m=8 fast-soft-tree call (both per-level fields
    # filled at depths 0-3), an m=8 and an m=2 call: the per-level fields
    # equal the m=2 call's alone, and the other counters add up
    rng = random.Random(50)
    deep = [[rng.random() for _ in range(6)] for _ in range(8)]
    shallow = [[rng.random() for _ in range(6)] for _ in range(2)]
    calls = [(SELECTORS["fast-soft-tree"], deep), (SELECTORS[name], deep),
             (SELECTORS[name], shallow)]
    alone = []
    for select, arrays in calls:
        alone.append(RunStats())
        select(arrays, 20, stats=alone[-1])
    shared = RunStats()
    for select, arrays in calls:
        select(arrays, 20, stats=shared)
    assert shared.pops_per_level == alone[-1].pops_per_level
    assert shared.generated_per_level == alone[-1].generated_per_level
    assert shared.values_generated == sum(s.values_generated for s in alone)
    assert shared.corrupted_count == sum(s.corrupted_count for s in alone)
    assert shared.fringe_peak == max(s.fringe_peak for s in alone)


def test_sort_tree_leaves_realize_only_what_they_read(monkeypatch):
    # the paper's m=64, n=1024, k=512 case: a leaf realizes a short ascending
    # prefix of its axis and grows it only when read past its end, so the
    # values realized in all 64 leaves are pinned here, without timing, and
    # stay far below the m * n that full sorts would realize
    import cartesian_topk.selectors as sel
    from cartesian_topk.bench import generate_inputs
    axes = []
    validated = sel._validated

    def keep_axes(*args):
        prefixes, k = validated(*args)
        axes.extend(prefixes)
        return prefixes, k

    monkeypatch.setattr(sel, "_validated", keep_axes)
    arrays = generate_inputs("exponential", 64, 1024, seed=1)
    stats = RunStats()
    sort_tree_select(arrays, 512, stats=stats)
    realized = sum(len(axis.values) for axis in axes)
    assert realized == 1024  # 16 per leaf: no leaf read past its first prefix
    assert realized < 64 * 1024 // 32
    assert stats.pops_per_level[6] * 64 <= realized  # every value a leaf popped was realized


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


def test_golden_pair_sum_node_insert_order(monkeypatch):
    # sha256 of every (key, payload) the asymmetric node inserts, in order,
    # recorded while the B step of a settled (i, 1) was a branch of its own
    import hashlib

    from cartesian_topk.soft_heap import SoftHeap
    inserted = []
    original = SoftHeap.insert

    def insert(self, key, payload=None):
        inserted.append((key, payload))
        return original(self, key, payload)

    monkeypatch.setattr(SoftHeap, "insert", insert)
    a = [i / 100.0 for i in range(50)]
    b = [100.0 + 10.0 * j for j in range(4)]
    node = PairSumNode(LeafGenerator(a, 1.2), LeafGenerator(b, 1.2), 1.2)
    while node.has_more_layers():
        node.generate_next_layer()
    assert len(inserted) == 200
    assert hashlib.sha256(repr(inserted).encode()).hexdigest() == (
        "2d182fe4d4f02e36eddeecd4a0b053fde21a2f32a4167246cdd958be282e034d")


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


def merge_advances_both_margins(history=True):
    leaves = [sel.AscendingPrefix([1.0, 2.0, 3.0, 4.0]) for _ in range(2)]
    node = sel._SortMerge(leaves[0], leaves[1], sel._FringeGauge(), history)
    node.reach(1)
    node.cols = 1  # (2, 1) next: both (3, 1) and (2, 2) need a new value
    node.fringe = [(-1.0, 2, 1)]
    node.reach(2)


def tensor_proposes_twice():
    sel._strides = lambda dims: [0] * len(dims)  # every cell gets code 0: two cells collide
    sel.soft_tensor_select([[1.0, 2.0], [1.0]], 2, debug_checks=True)


def node_proposes_twice():
    node = PairSumNode(LeafGenerator([1.0, 2.0], 1.5), LeafGenerator([1.0, 2.0], 1.5), 1.5,
                       debug_accounting=True)
    node._propose(1, 1)


print(__debug__, raises(merge_advances_both_margins),
      raises(lambda: merge_advances_both_margins(history=False)), raises(tensor_proposes_twice),
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
    assert proc.stdout.split() == ["False", "True", "True", "True", "True"]
