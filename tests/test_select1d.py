import random
from collections import Counter

import numpy as np
import pytest

from cartesian_topk import ContractViolation, ParameterError, select_k, select_k_loh
from cartesian_topk.select1d import AscendingPrefix, split_smallest


def test_singleton():
    assert select_k([7], 1) == [7]


def test_two_of_three():
    # sort-based oracle: sorted([5,1,3])[:2] == [1,3]
    assert sorted(select_k([5, 1, 3], 2)) == [1, 3]


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


def test_matches_sort_oracle():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 400)
        vals = [rng.choice([rng.random(), 0.5, 0.25]) for _ in range(n)]
        k = rng.randint(1, n)
        assert sorted(select_k(vals, k)) == sorted(vals)[:k]


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


def test_median_of_medians_fallback_on_adversarial_input():
    # Constant and staircase inputs: all-equal and heavily tied segments.
    for vals in ([1.0] * 5000, [float(i % 7) for i in range(5000)]):
        assert sorted(select_k(vals, 1234)) == sorted(vals)[:1234]


def test_split_smallest_partitions_exactly():
    vals = [5.0, 1.0, 4.0, 1.0, 3.0]
    low, high = split_smallest(vals, 2)
    assert sorted(low) == [1.0, 1.0]
    assert Counter(low + high) == Counter(vals)
    # The cut's order fixes which value sits at each flat position of a
    # pair-sum node's layer, hence every proposal and golden counter: it is
    # np.partition at k, or the input order when k is 0 or n.  Floats are
    # compared by hex, so -0.0 and 0.0 count as different.
    rng = random.Random(11)
    ties = [float(rng.randint(0, 3)) for _ in range(300)]  # long enough for introselect
    zeros = [0.0, -0.0, 1.0, -0.0, -1.0, 0.0, -0.0, 0.0, -1.0]
    for vals in (ties, zeros, [rng.choice((-0.0, 0.0, 2.0)) for _ in range(300)]):
        n = len(vals)
        for k in range(1, n):
            p = [x.hex() for x in np.partition(vals, k).tolist()]
            low, high = split_smallest(vals, k)
            assert ([x.hex() for x in low], [x.hex() for x in high]) == (p[:k], p[k:])
            assert [x.hex() for x in select_k(vals, k)] == p[:k]
        same = [x.hex() for x in vals]
        for low, high in (split_smallest(vals, 0), split_smallest(vals, n)):
            assert [x.hex() for x in low + high] == same
            assert low is not vals and high is not vals
        assert [x.hex() for x in select_k(vals, n)] == same


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
