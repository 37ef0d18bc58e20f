import itertools
import random

import numpy as np
import pytest

from cartesian_topk import (ContractViolation, LeafGenerator, PairSumNode, ParameterError,
                            concatenation_select, fast_soft_tree_select, soft_select_pairwise,
                            verify_loh)
from cartesian_topk.loh import LohGenerator
from cartesian_topk.pairwise import DEFAULT_EPSILON


def brute_pair(a, b, k):
    return sorted(x + y for x in a for y in b)[:k]


class StubGenerator(LohGenerator):
    """Layer generator over explicit layer lists, for algorithm traces."""

    def __init__(self, layers, exposed=1):
        self._layers = [list(block) for block in layers]
        self._exposed = exposed

    def has_more_layers(self):
        return self._exposed < len(self._layers)

    def generate_next_layer(self):
        if self.has_more_layers():
            self._exposed += 1

    @property
    def layer_count(self):
        return self._exposed

    def layer(self, i):
        return list(self._layers[i - 1])

    def max_generated(self):
        return max(max(block) for block in self._layers[:self._exposed])

    def size_of_last_layer(self):
        return len(self._layers[self._exposed - 1])

    @property
    def total_size(self):
        return sum(len(block) for block in self._layers)

    @property
    def generated_count(self):
        return sum(len(block) for block in self._layers[:self._exposed])

    @property
    def schedule(self):
        raise NotImplementedError("stub has no schedule")


# -- soft_select_pairwise ----------------------------------------------------

def test_pairwise_example_small():
    # brute force over the four sums {4, 5, 5, 6}
    assert soft_select_pairwise([1, 2], [3, 4], 3) == [4, 5, 5]


def test_pairwise_singletons():
    assert soft_select_pairwise([3.5], [2.5], 1) == [6.0]


def test_pairwise_example_decades():
    # brute force over the nine sums of [1,10,100] with itself
    assert soft_select_pairwise([1, 10, 100], [1, 10, 100], 4) == [2, 11, 11, 20]


def test_pairwise_k_range_checks():
    with pytest.raises(ContractViolation):
        soft_select_pairwise([1], [1], 0)
    with pytest.raises(ContractViolation):
        soft_select_pairwise([1, 2], [1], 3)
    with pytest.raises(ContractViolation):
        soft_select_pairwise([], [1], 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_pairwise_refuses_non_finite(bad):
    # like every selector's input boundary, on either side
    for a, b in (([1.0, bad], [3.0, 4.0]), ([3.0, 4.0], np.array([bad, 1.0]))):
        with pytest.raises(ParameterError, match=f"finite numbers, got {bad!r}"):
            soft_select_pairwise(a, b, 2)
    assert soft_select_pairwise([2**70, 3], [1, 2], 2) == [4, 5]  # ints past int64 are finite
    with pytest.raises(ContractViolation, match="must convert to float64"):
        soft_select_pairwise([10**400], [1], 1)  # an int past float range, as at the boundary


def test_pairwise_refuses_sums_past_float64():
    # every value is finite, but 1e308 + 1e308 is not: refused like every
    # selector's axes, by the sum over the two of max |x|, on either side
    for a, b in (([1e308, 1e308], [1e308, 1.0]), ([2.0, -1e308], np.array([-1e308, 1.0]))):
        for first, second in ((a, b), (b, a)):
            with pytest.raises(ContractViolation, match="overflows float64"):
                soft_select_pairwise(first, second, 4)
    assert soft_select_pairwise([1e307, 0.0], [-1e307, 1.0], 4) == [-1e307, 0.0, 1.0, 1e307]


def test_pairwise_exhaustive_tiny():
    # every |A|, |B| <= 4 over a duplicate-heavy alphabet, every k
    values = [0.0, 1.0, 1.0, 2.0]
    for na, nb in itertools.product(range(1, 5), repeat=2):
        for a in itertools.combinations_with_replacement(values, na):
            b = values[:nb]
            for k in range(1, na * nb + 1):
                assert soft_select_pairwise(list(a), b, k) == brute_pair(a, b, k)


def test_pairwise_child_scheme_edges(monkeypatch):
    # na, nb <= 4 reach every branch of the child scheme at its bounds,
    # (i, 2) and (i, 3) at nb <= 3 included: no cell is proposed twice and
    # every k gives the oracle's multiset, on shuffled inputs whose heap
    # order is not their sorted order
    from cartesian_topk import brute_force_select
    from cartesian_topk.soft_heap import SoftHeap
    inserted = []
    original = SoftHeap.insert

    def insert(self, key, payload=None):
        inserted.append(payload)
        return original(self, key, payload)

    monkeypatch.setattr(SoftHeap, "insert", insert)
    rng = random.Random(33)
    for na, nb in itertools.product(range(1, 5), repeat=2):
        for ties in (False, True):
            a = [float(rng.randint(0, 2)) if ties else rng.random() for _ in range(na)]
            b = [float(rng.randint(0, 2)) if ties else rng.random() for _ in range(nb)]
            for k in range(1, na * nb + 1):
                inserted.clear()
                got = soft_select_pairwise(a, b, k)
                assert got == brute_force_select([a, b], k).values
                assert inserted and len(set(inserted)) == len(inserted), (na, nb, k)
                assert len(inserted) <= na * nb


def test_golden_pairwise_insert_order(monkeypatch):
    # sha256 of every (key, payload) one tie-heavy call inserts, in order,
    # recorded while the B step of a popped (i, 1) was a branch of its own
    import hashlib

    from cartesian_topk.soft_heap import SoftHeap
    inserted = []
    original = SoftHeap.insert

    def insert(self, key, payload=None):
        inserted.append((key, payload))
        return original(self, key, payload)

    monkeypatch.setattr(SoftHeap, "insert", insert)
    rng = random.Random(34)
    a = [float(rng.randint(0, 3)) for _ in range(40)]
    b = [float(rng.randint(0, 3)) for _ in range(30)]
    assert soft_select_pairwise(a, b, 500) == brute_pair(a, b, 500)
    assert len(inserted) == 710
    assert hashlib.sha256(repr(inserted).encode()).hexdigest() == (
        "9d680a1b8f2e4c635704ae5e373c6c9536599aeceaba4abd9b61fc0050643041")


def test_pairwise_random_wide():
    rng = random.Random(31)
    for _ in range(1000):
        na, nb = rng.randint(1, 32), rng.randint(1, 32)
        a = [rng.random() for _ in range(na)]
        b = [rng.random() for _ in range(nb)]
        k = rng.randint(1, na * nb)
        assert soft_select_pairwise(a, b, k) == brute_pair(a, b, k)


def test_pairwise_large_forces_corruption():
    rng = random.Random(32)
    a = [rng.random() for _ in range(400)]
    b = [rng.random() for _ in range(400)]
    from cartesian_topk import RunStats
    stats = RunStats()
    got = soft_select_pairwise(a, b, 3000, stats=stats)
    assert got == brute_pair(a, b, 3000)
    assert stats.corrupted_count > 0  # the run actually exercised corruption


def test_sibling_source_count_bound():
    # minimal distinct source counts a, b from the brute-force top-k
    # always satisfy a + b - 1 <= k
    rng = random.Random(33)
    for _ in range(300):
        na, nb = rng.randint(1, 64), rng.randint(1, 64)
        a = sorted(rng.random() for _ in range(na))
        b = sorted(rng.random() for _ in range(nb))
        k = rng.randint(1, min(64, na * nb))
        cells = sorted((x + y, i, j)
                       for i, x in enumerate(a, 1) for j, y in enumerate(b, 1))
        top = cells[:k]
        a_used = max(i for _, i, _ in top)
        b_used = max(j for _, _, j in top)
        assert a_used + b_used - 1 <= k


# -- concatenation_select ----------------------------------------------------

def test_concat_trace_example():
    gen_a = StubGenerator([[1], [2, 3]])
    gen_b = StubGenerator([[10], [20, 30]])
    assert concatenation_select(gen_a, gen_b, 2) is None
    # u = 2 >= k after the first layers; max(A1)=1 < max(B1)=10, so A
    # generates its second layer and stops (budget |B last| = 1 reached)
    assert (gen_a.layer_count, gen_b.layer_count) == (2, 1)
    generated = gen_a.layer(1) + gen_a.layer(2) + gen_b.layer(1)
    assert set(sorted([1, 2])) <= set(generated)  # 2-selection on A|B covered


def test_concat_identical_generators_immediate():
    gen_a = StubGenerator([[5], [6, 7]])
    gen_b = StubGenerator([[5], [6, 7]])
    concatenation_select(gen_a, gen_b, 1)
    assert (gen_a.layer_count, gen_b.layer_count) == (1, 1)
    with pytest.raises(ContractViolation):
        concatenation_select(gen_a, gen_b, 0)


def test_concat_exhaustion_returns_everything():
    gen_a = StubGenerator([[1]])
    gen_b = StubGenerator([[2]])
    concatenation_select(gen_a, gen_b, 10)
    assert (gen_a.layer_count, gen_b.layer_count) == (1, 1)
    assert gen_a.generated_count + gen_b.generated_count == 2


def test_concat_covers_k_selection():
    rng = random.Random(34)
    for _ in range(100):
        alpha = rng.choice([1.1, 1.3, 1.5])
        na, nb = rng.randint(1, 300), rng.randint(1, 300)
        a = [rng.random() for _ in range(na)]
        b = [rng.random() for _ in range(nb)]
        k = rng.randint(1, na + nb)
        gen_a, gen_b = LeafGenerator(a, alpha), LeafGenerator(b, alpha)
        concatenation_select(gen_a, gen_b, k)
        generated = sorted(gen_a.values[:gen_a.generated_count]
                           + gen_b.values[:gen_b.generated_count])
        want = sorted(a + b)[:k]
        assert generated[:k] == want


def test_concat_gap_comparison_is_exact():
    from cartesian_topk.pairwise import _gap_sign
    # gaps that round to one float: 1e17 - 1 and 1e17
    assert _gap_sign(-1.0, -1e17, 1e17, 0.0) == -1
    assert _gap_sign(1e17, 0.0, -1.0, -1e17) == 1
    # gaps that overflow float64 on both sides: 1.8e308 and 1.81e308
    assert _gap_sign(0.9e308, -0.9e308, 0.95e308, -0.86e308) == -1
    assert _gap_sign(0.95e308, -0.86e308, 0.9e308, -0.9e308) == 1
    # true ties, on any zero point
    assert _gap_sign(3.0, 1.0, 2.5, 0.5) == 0
    assert _gap_sign(1e308, -1e308, 1e308, -1e308) == 0


def test_concat_generation_bound():
    # about alpha^2 * k values generated in total
    for alpha in (1.1, 1.3):
        k = 1000
        for seed in range(30):
            rng = np.random.Generator(np.random.PCG64(seed))
            n = int(alpha * alpha * k * 1.5) + 64
            gen_a = LeafGenerator(rng.random(n).tolist(), alpha)
            gen_b = LeafGenerator(rng.random(n).tolist(), alpha)
            concatenation_select(gen_a, gen_b, k)
            generated = gen_a.generated_count + gen_b.generated_count
            assert generated <= 1.2 * alpha * alpha * k + 64


# -- PairSumNode ---------------------------------------------------------------

def test_node_singleton_children():
    node = PairSumNode(LeafGenerator([0.0], 1.5), LeafGenerator([0.0], 1.5), 1.5)
    assert node.layer(1) == [0.0]
    assert not node.has_more_layers()
    node.generate_next_layer()  # exhausted: no-op
    assert node.generated_count == 1


def test_node_two_by_two_layers():
    # sums of [1,2] x [1,2] are {2, 3, 3, 4}; schedule sizes are 1, 1, 2
    node = PairSumNode(LeafGenerator([1, 2], 1.9), LeafGenerator([1, 2], 1.9), 1.9)
    while node.has_more_layers():
        node.generate_next_layer()
    assert node.layer(1) == [2]
    assert node.layer(2) == [3]
    assert sorted(node.layer(3)) == [3, 4]


def test_node_layers_match_brute_prefixes():
    rng = random.Random(35)
    for _ in range(60):
        alpha = rng.choice([1.1, 1.3, 1.5, 1.9])
        na, nb = rng.randint(1, 12), rng.randint(1, 12)
        a = [rng.choice([rng.random(), 0.5]) for _ in range(na)]
        b = [rng.choice([rng.random(), 0.5]) for _ in range(nb)]
        node = PairSumNode(LeafGenerator(a, alpha), LeafGenerator(b, alpha), alpha,
                           debug_accounting=True)
        heap = node.soft_heap
        full = sorted(x + y for x in a for y in b)
        while node.has_more_layers():
            node.generate_next_layer()
            # conservation: every proposed pair is inserted or parked, never both
            assert len(node._debug_cells) == heap.insert_count + node.parked_count()
            # the node's one soft heap keeps its corruption bound for life
            assert heap.corrupted_count <= DEFAULT_EPSILON * heap.insert_count
        assert sorted(node.values) == full
        # the layer blocks really are layer-ordered over the true sums
        assert verify_loh(node)


def test_node_cumulative_prefix_is_selection():
    rng = random.Random(36)
    a = [rng.random() for _ in range(20)]
    b = [rng.random() for _ in range(15)]
    node = PairSumNode(LeafGenerator(a, 1.3), LeafGenerator(b, 1.3), 1.3)
    full = sorted(x + y for x in a for y in b)
    while node.has_more_layers():
        node.generate_next_layer()
        t = node.generated_count
        assert sorted(node.values) == full[:t]


def test_node_asymmetric_scales():
    # one side much denser than the other: purgatories and the shifted
    # comparison both matter here
    a = [i / 100.0 for i in range(50)]
    b = [100.0 + 10.0 * j for j in range(4)]
    node = PairSumNode(LeafGenerator(a, 1.2), LeafGenerator(b, 1.2), 1.2)
    full = sorted(x + y for x in a for y in b)
    while node.has_more_layers():
        node.generate_next_layer()
    assert sorted(node.values) == full


def test_node_gaps_finer_than_float_spacing():
    # A's gap -1 - (-1e17) and B's 1e17 - 0 round to the same float; the
    # cover must still see A's as the smaller and grow A, or the -1.0 of
    # A's second -1 lands in a layer after a 0.0
    a = [-1e17] * 9 + [-1.0, -1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0] + [1e17] * 16
    b = [0.0, 1e17]
    full = sorted(x + y for x in a for y in b)
    for alpha in (1.05, 1.1):
        node = PairSumNode(LeafGenerator(a, alpha), LeafGenerator(b, alpha), alpha)
        while node.has_more_layers():
            node.generate_next_layer()
            assert node.values == full[:node.generated_count], alpha
        assert fast_soft_tree_select([a, b], 30, alpha=alpha).values == full[:30], alpha


def test_node_refuses_layers_past_float64():
    # the two layers of 1e308 + 1.0 are finite; the last holds 1e308 + 1e308
    node = PairSumNode(LeafGenerator([1e308, 1e308], 1.5), LeafGenerator([1e308, 1.0], 1.5), 1.5)
    with pytest.raises(ContractViolation, match="overflows float64"):
        while node.has_more_layers():
            node.generate_next_layer()
    assert node.values == [1e308, 1e308]
    # a first layer of -inf is refused at once, so no node above it can
    # meet -inf on one side and inf on the other and make NaN
    with pytest.raises(ContractViolation, match="overflows float64"):
        PairSumNode(LeafGenerator([-1e308, 0.0], 1.5), LeafGenerator([-1e308, 1.0], 1.5), 1.5)


def test_node_purgatories_actually_park():
    rng = random.Random(37)
    a = [rng.random() for _ in range(200)]
    b = [rng.random() for _ in range(200)]
    node = PairSumNode(LeafGenerator(a, 1.05), LeafGenerator(b, 1.05), 1.05)
    parked_seen = 0
    for _ in range(12):
        if not node.has_more_layers():
            break
        node.generate_next_layer()
        parked_seen = max(parked_seen, node.parked_count())
    assert parked_seen > 0


def _one_side_inputs(kind, na, nb):
    rng = random.Random(38)
    if kind == "distinct":
        return [rng.random() for _ in range(na)], [rng.random() for _ in range(nb)]
    if kind == "ties":
        return ([float(rng.randint(0, 3)) for _ in range(na)],
                [float(rng.randint(0, 3)) for _ in range(nb)])
    return [i / 100.0 for i in range(na)], [100.0 + 10.0 * j for j in range(nb)]


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.5])
@pytest.mark.parametrize("kind", ["distinct", "ties", "asymmetric"])
@pytest.mark.parametrize("children", ["leaves", "pair-sum-nodes"])
def test_node_parks_each_pair_on_one_side(monkeypatch, children, kind, alpha):
    # a proposal keeps B's coordinate 1 or a settled pair's coordinate of A,
    # and generated prefixes never shrink, so no pair, proposed or retried,
    # is ever blocked on both sides, and an A-parked pair waits on A alone
    both_blocked = []
    original = PairSumNode._admit

    def admit(self, ia, ib):
        if ia > self.left.generated_count and ib > self.right.generated_count:
            both_blocked.append((ia, ib))
        return original(self, ia, ib)

    monkeypatch.setattr(PairSumNode, "_admit", admit)
    if children == "leaves":
        a, b = _one_side_inputs(kind, 40, 30)
        left, right = LeafGenerator(a, alpha), LeafGenerator(b, alpha)
    else:
        x, y = _one_side_inputs(kind, 20, 16)
        left = PairSumNode(LeafGenerator(x[:10], alpha), LeafGenerator(x[10:], alpha), alpha)
        right = PairSumNode(LeafGenerator(y[:8], alpha), LeafGenerator(y[8:], alpha), alpha)
        a, b = brute_pair(x[:10], x[10:], 100), brute_pair(y[:8], y[8:], 64)
    node = PairSumNode(left, right, alpha)
    nodes = [g for g in (left, right, node) if isinstance(g, PairSumNode)]
    parked = 0
    while node.has_more_layers():
        node.generate_next_layer()
        assert both_blocked == []
        for g in nodes:
            parked += g.parked_count()
            assert all(ib <= g.right.generated_count for _, ib in g.purgatory_a)
    assert parked > 0  # the purgatories were in use
    assert sorted(node.values) == brute_pair(a, b, len(a) * len(b))
