import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from cartesian_topk import (ContractViolation, LayerSchedule, LeafGenerator, ParameterError,
                            children_of, concatenation_select, select_k, select_k_loh,
                            soft_select_pairwise)
from cartesian_topk.select1d import AscendingPrefix, split_smallest
from cartesian_topk.selectors import _checked


def test_singleton():
    assert select_k([7], 1) == [7]


def test_two_of_three():
    # sort-based oracle: sorted([5,1,3])[:2] == [1,3]
    assert select_k([5, 1, 3], 2) == [1, 3]


def test_k_equals_n_returns_all():
    assert Counter(select_k([2, 2, 2, 2], 4)) == Counter([2, 2, 2, 2])


def test_bad_k_rejected():
    with pytest.raises(ContractViolation):
        select_k([1, 2, 3], 0)
    with pytest.raises(ContractViolation):
        select_k([1, 2, 3], 4)
    for k in (-1, 4):  # split_smallest allows 0 and n, nothing beyond
        with pytest.raises(ContractViolation, match="outside"):
            split_smallest([1, 2, 3], k)
    # values that are not real numbers in one dimension are refused by the
    # dtype and shape of the array NumPy builds, not ordered as text
    for bad in (["1.5", "10", "2"], [1 + 2j, 3.0], np.array([1, 2], dtype="m8[s]"), [[1.0, 2.0]]):
        with pytest.raises(ContractViolation, match="1-D real numbers"):
            select_k(bad, 1)
    # an object array's values, ragged input and a masked array (whose mask
    # NumPy's conversion would drop) are refused too, by the partition or the
    # conversion, not with Python's or NumPy's own error
    masked = np.ma.array([1.0, 2.0], mask=[True, False])
    for bad in (["1.5", 2**70], [1.0, [2.0]], [1.0, None], masked):
        for k in (1, 2):
            with pytest.raises(ContractViolation, match="1-D real numbers"):
                select_k(bad, k)


def test_matches_sort_oracle():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 400)
        vals = [rng.choice([rng.random(), 0.5, 0.25]) for _ in range(n)]
        k = rng.randint(1, n)
        assert select_k(vals, k) == sorted(vals)[:k]


def test_permutation_invariant():
    rng = random.Random(2)
    vals = [rng.random() for _ in range(200)] + [0.5] * 20
    k = 37
    base = Counter(select_k(vals, k))
    for _ in range(10):
        rng.shuffle(vals)
        assert Counter(select_k(vals, k)) == base


def test_partition_correctness():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 300)
        vals = [rng.randint(0, 20) * 1.0 for _ in range(n)]
        k = rng.randint(1, n - 1)
        low = select_k(vals, k)
        rest = Counter(vals) - Counter(low)
        assert max(low) <= min(rest.elements())


def test_select_k_on_constant_and_staircase_input():
    # Constant and staircase inputs: all-equal and heavily tied segments.
    for vals in ([1.0] * 5000, [float(i % 7) for i in range(5000)]):
        assert select_k(vals, 1234) == sorted(vals)[:1234]


def test_split_smallest_partitions_exactly():
    vals = [5.0, 1.0, 4.0, 1.0, 3.0]
    low, high = split_smallest(vals, 2)
    assert low == [1.0, 1.0]
    assert Counter(low + high) == Counter(vals)
    # Every cut returns its kept part ascending, so the input alone fixes it
    # on any CPU, up to the order of -0.0 and 0.0: floats are compared by hex
    # after mapping -0.0 to 0.0.  split_smallest returns the rest ascending
    # too, so a caller that carries it into its next cut hands over one
    # ascending run; at k = 0 it compares nothing and keeps the input order.
    def hexes(xs):
        return [(x + 0.0).hex() for x in xs]

    rng = random.Random(11)
    ties = [float(rng.randint(0, 3)) for _ in range(300)]  # long enough for introselect
    zeros = [0.0, -0.0, 1.0, -0.0, -1.0, 0.0, -0.0, 0.0, -1.0]
    for vals in (ties, zeros, [rng.choice((-0.0, 0.0, 2.0)) for _ in range(300)]):
        n = len(vals)
        ascending = hexes(sorted(vals))
        for k in range(1, n):
            low, high = split_smallest(vals, k)
            assert hexes(low) == ascending[:k]
            assert hexes(high) == ascending[k:]
            assert hexes(select_k(vals, k)) == ascending[:k]
        low, high = split_smallest(vals, 0)
        assert low == [] and [x.hex() for x in high] == [x.hex() for x in vals]
        assert high is not vals
        low, high = split_smallest(vals, n)
        assert hexes(low) == ascending and high == [] and low is not vals
        assert hexes(select_k(vals, n)) == ascending
    # Python floats at every k, from an ndarray too, which is left as it was
    arr = np.array([3.0, 1.0, 2.0])
    assert select_k(arr, 3) == [1.0, 2.0, 3.0]
    for k in range(4):
        low, high = split_smallest(arr, k)
        assert all(type(v) is float for v in low + high), k
        assert low + high == ([3.0, 1.0, 2.0] if k == 0 else [1.0, 2.0, 3.0]), k
        assert k == 0 or all(type(v) is float for v in select_k(arr, k)), k
    assert arr.tolist() == [3.0, 1.0, 2.0]


def test_split_smallest_refuses_mixed_types():
    # values that do not compare with each other are refused as the sort
    # meets them, not with Python's TypeError; at k = 0 nothing is compared
    for bad in (["a", 1.0], [1.0, None, 2.0], np.array([1.0, "x"], dtype=object)):
        for k in (1, len(bad)):
            with pytest.raises(ContractViolation, match="real numbers"):
                split_smallest(bad, k)
        assert split_smallest(bad, 0) == ([], list(bad))


def test_ascending_prefix_grows_on_demand():
    # starts at the 16 smallest values, and a miss grows the same list to
    # max(count, twice its length), capped at n; the caller's list stays
    rng = random.Random(9)
    vals = [float(rng.randint(0, 30)) for _ in range(100)]
    before = list(vals)
    prefix = AscendingPrefix(vals)
    values = prefix.values
    assert prefix.n == 100 and values == sorted(vals)[:16]
    for count, size in ((16, 16), (17, 32), (40, 64), (64, 64), (65, 100), (500, 100)):
        assert prefix.reach(count) is values and len(values) == size
        assert values == sorted(vals)[:size]
        assert all(type(v) is float for v in values)
    assert vals == before
    assert AscendingPrefix([3, 1]).values == [1.0, 3.0]
    assert AscendingPrefix([]).reach(1) == []


def test_loh_select_descending_input():
    # oracle: the three smallest of 9..0 are {0,1,2}
    assert sorted(select_k_loh([9, 8, 7, 6, 5, 4, 3, 2, 1, 0], 3, 1.5)) == [0, 1, 2]


def test_loh_select_singleton():
    assert select_k_loh([1], 1, 1.1) == [1]


def test_loh_select_alpha_validation():
    with pytest.raises(ParameterError):
        select_k_loh([1, 2], 1, 1.0)
    with pytest.raises(ParameterError):
        select_k_loh([1, 2], 1, 2.0)
    with pytest.raises(ContractViolation):
        select_k_loh([1, 2], 3, 1.5)


def test_loh_select_n1000_k137():
    for seed in range(100):
        rng = random.Random(seed)
        vals = [rng.random() for _ in range(1000)]
        assert Counter(select_k_loh(vals, 137, 1.3)) == Counter(select_k(vals, 137))


def test_loh_select_equals_select_k():
    rng = random.Random(4)
    for trial in range(100):
        n = rng.randint(1, 1000)
        vals = [rng.random() for _ in range(n)]
        if trial % 3 == 0:  # duplicate-heavy variant
            vals = [round(v, 1) for v in vals]
        k = rng.randint(1, n)
        alpha = rng.choice([1.05, 1.1, 1.3, 1.5, 1.9])
        assert Counter(select_k_loh(vals, k, alpha)) == Counter(select_k(vals, k))


def _covered(k):
    """Layers each side generated to cover a k-selection on their concatenation."""
    a, b = LeafGenerator([3.0, 1.0, 2.0, 5.0], 1.5), LeafGenerator([4.0, 0.0, 6.0], 1.5)
    concatenation_select(a, b, k)
    return a.layer_count, b.layer_count


_K_TAKERS = {
    "_checked": lambda k: _checked([[3.0, 1.0, 2.0]], k)[1],
    "select_k": lambda k: select_k([3.0, 1.0, 2.0], k),
    "select_k_loh": lambda k: sorted(select_k_loh([3.0, 1.0, 2.0], k, 1.5)),
    "soft_select_pairwise": lambda k: soft_select_pairwise([3.0, 1.0, 2.0], [0.0], k),
    "split_smallest": lambda k: split_smallest([3.0, 1.0, 2.0], k),
    "concatenation_select": lambda k: _covered(k),
    "LayerSchedule": lambda n: LayerSchedule(1.5, n).num_layers,
    "children_of-i": lambda i: children_of(LayerSchedule(1.5, 100), i, 1),
    "children_of-j": lambda j: children_of(LayerSchedule(1.5, 100), 4, j),
}
_NOT_INTEGERS = (1.5, 2.5, 2.0, True, np.bool_(True), "2")


@pytest.mark.parametrize("name", sorted(_K_TAKERS))
def test_k_must_be_an_integer(name):
    # every entry point that takes a count (k, a split point, a schedule's n,
    # a layer and an offset) converts it the same way: an integer of any kind
    # is accepted, a bool or a fraction is refused before the range.
    # A fractional k could keep select_k_loh running, so its fractions are
    # tried in a child interpreter below.
    take = _K_TAKERS[name]
    assert take(np.int64(2)) == take(2)
    for k in _NOT_INTEGERS:
        if name == "select_k_loh" and isinstance(k, float):
            continue
        with pytest.raises(ContractViolation, match="is not an integer"):
            take(k)


def test_loh_select_fractional_k_returns():
    # a fractional k once left select_k_loh re-layering a one-value overshoot
    # forever; a child interpreter with a timeout turns a hang into a failure
    import cartesian_topk
    src = os.path.dirname(os.path.dirname(os.path.abspath(cartesian_topk.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    code = ("from cartesian_topk import ContractViolation, select_k_loh\n"
            "for k in (2.5, 1.5, 2.0):\n"
            "    try:\n"
            "        select_k_loh([3.0, 1.0, 2.0], k, 1.5)\n"
            "    except ContractViolation as exc:\n"
            "        print(exc)\n")
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                              timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("select_k_loh with a fractional k did not return within 60 s")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [f"k={k} is not an integer" for k in (2.5, 1.5, 2.0)]
