import random
from bisect import bisect_left
from collections import Counter

import numpy as np
import pytest

from cartesian_topk import (ContractViolation, LayerOrderedHeap, LayerSchedule,
                            LeafGenerator, PairSumNode, ParameterError, children_of,
                            lohify, verify_loh)

ALPHA_GRID = (1.05, 1.1, 1.3, 1.5, 1.9)


def sizes_of(schedule):
    return [schedule.size(i) for i in range(1, schedule.num_layers + 1)]


def test_schedule_alpha_19_n8():
    # hand recurrence: totals 1, 2, 4, 8 -> sizes 1, 1, 2, 4
    assert sizes_of(LayerSchedule(1.9, 8)) == [1, 1, 2, 4]


def test_schedule_alpha_11_n5():
    # ceil(1.1 * T) == T + 1 while T <= 9, so five singleton layers
    assert sizes_of(LayerSchedule(1.1, 5)) == [1, 1, 1, 1, 1]


def test_schedule_n1():
    for alpha in ALPHA_GRID:
        assert sizes_of(LayerSchedule(alpha, 1)) == [1]


def test_schedule_first_two_totals():
    for alpha in ALPHA_GRID:
        sched = LayerSchedule(alpha, 100)
        assert sched.total(1) == 1
        assert sched.total(2) == 2


def test_schedule_alpha_validation():
    for alpha in (1.0, 2.0, 0.5, 2.5, True):  # a bool is refused by type
        with pytest.raises(ParameterError):
            LayerSchedule(alpha, 10)
    with pytest.raises(ContractViolation, match="n must be positive"):
        LayerSchedule(1.5, 0)


def test_generators_refuse_a_schedule_for_another_size_or_alpha():
    a, b = [3.0, 1.0, 2.0], [5.0, 4.0]
    for bad in (LayerSchedule(1.5, 4), LayerSchedule(1.3, 3), "schedule"):
        with pytest.raises(ContractViolation, match="not a LayerSchedule for alpha=1.5, n=3"):
            LeafGenerator(a, 1.5, schedule=bad)
    for bad in (LayerSchedule(1.5, 5), LayerSchedule(1.3, 6)):
        with pytest.raises(ContractViolation, match="not a LayerSchedule for alpha=1.5, n=6"):
            PairSumNode(LeafGenerator(a, 1.5), LeafGenerator(b, 1.5), 1.5, schedule=bad)
    # a matching schedule is taken as it is, and layers as a node's own does
    shared = LayerSchedule(1.5, 6)
    node = PairSumNode(LeafGenerator(a, 1.5), LeafGenerator(b, 1.5), 1.5, schedule=shared)
    own = PairSumNode(LeafGenerator(a, 1.5), LeafGenerator(b, 1.5), 1.5)
    assert node.schedule is shared
    while node.has_more_layers():
        node.generate_next_layer()
        own.generate_next_layer()
        assert node.values == own.values and node.layer_count == own.layer_count


def test_schedule_growth_bounds():
    # full layers: c_i <= c_{i+1} <= 2 c_i, for every alpha up to n = 10^6
    for alpha in ALPHA_GRID:
        sched = LayerSchedule(alpha, 10**6)
        full = [sched.full_size(i) for i in range(1, sched.num_layers + 1)]
        for a, b in zip(full, full[1:]):
            assert a <= b <= 2 * a, (alpha, a, b)


def test_schedule_ratio_convergence():
    for alpha in ALPHA_GRID:
        sched = LayerSchedule(alpha, 10**6)
        for i in range(1, sched.num_layers - 1):
            if sched.total(i) >= 1000:
                ratio = sched.full_size(i + 1) / sched.full_size(i)
                assert abs(ratio - alpha) <= 0.05, (alpha, i, ratio)


def test_child_positions_refuse_positions_outside_the_heap():
    # a flat position outside [1, n] is refused, on a fresh schedule and on
    # one whose totals are all computed; the first and the last are not
    fresh, full = LayerSchedule(1.3, 500), LayerSchedule(1.3, 500)
    assert full.total(full.num_layers) == 500
    for sched in (fresh, full):
        for pos in (0, 501):
            with pytest.raises(ContractViolation, match=f"position {pos} outside"):
                sched.child_positions(pos)
        assert sched.child_positions(1) == (2,)
        assert sched.child_positions(500) == ()


def test_lohify_example():
    # partition oracle at pivot ranks 1, 2, 4 over seven values
    h = lohify([5, 3, 7, 1, 6, 2, 4], 1.9)
    assert h.layer(1) == [1]
    assert h.layer(2) == [2]
    assert sorted(h.layer(3)) == [3, 4]
    assert sorted(h.layer(4)) == [5, 6, 7]


def test_lohify_constant_values():
    h = lohify([3.0, 3.0, 3.0], 1.5)
    assert verify_loh(h)


def test_lohify_empty_rejected():
    with pytest.raises(ContractViolation):
        lohify([], 1.5)


def test_lohify_sorted_input_verifies():
    h = lohify(list(range(10_000)), 1.2)
    assert verify_loh(h)


def test_lohify_is_permutation_and_verifies():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 2000)
        vals = [rng.choice([rng.random(), 0.5]) for _ in range(n)]
        alpha = rng.choice(ALPHA_GRID)
        h = lohify(vals, alpha)
        assert verify_loh(h)
        assert Counter(h.values) == Counter(vals)


def test_verify_loh_rejects_bad_order():
    sched = LayerSchedule(1.9, 3)  # sizes [1, 1, 1]
    assert not verify_loh(LayerOrderedHeap([2.0, 1.0, 3.0], sched))


def test_verify_loh_equal_boundary_allowed():
    sched = LayerSchedule(1.9, 3)
    assert verify_loh(LayerOrderedHeap([1.0, 1.0, 1.0], sched))


def test_layer_refuses_what_is_not_there():
    # one layer(i) for both kinds of heap: a lohified heap returns every
    # layer; a generator, or a heap whose values stop short of its schedule,
    # refuses the first layer it lacks and any layer past the schedule
    h = lohify([5, 3, 7, 1, 6, 2, 4], 1.9)
    layers = h.schedule.num_layers
    assert [len(h.layer(i)) for i in range(1, layers + 1)] == [1, 1, 2, 3]
    gen = LeafGenerator([5, 3, 7, 1, 6, 2, 4], 1.9)
    gen.generate_next_layer()
    assert gen.layer(2) == [2.0]
    for heap, missing in ((gen, 3), (gen, layers + 1), (h, layers + 1)):
        with pytest.raises(ContractViolation):
            heap.layer(missing)
    short = LayerOrderedHeap([1.0, 2.0, 3.0], LayerSchedule(1.9, 4))  # sizes [1, 1, 2]
    assert short.layer(2) == [2.0]
    with pytest.raises(ContractViolation, match="layer 3 not generated yet"):
        short.layer(3)
    assert not verify_loh(short)


def test_children_of_two_then_three():
    # alpha=1.5 gives full sizes 1,1,1,2,3,...; layers 4 and 5 are (2, 3)
    sched = LayerSchedule(1.5, 27)
    assert sched.full_size(4) == 2 and sched.full_size(5) == 3
    assert children_of(sched, 4, 1) == (1, 2)
    assert children_of(sched, 4, 2) == (3,)


def test_children_of_singleton_chain():
    sched = LayerSchedule(1.1, 5)  # all singleton layers
    assert children_of(sched, 1, 1) == (1,)


def test_children_of_full_doubling():
    # alpha=1.9 gives sizes 1,1,2,4,8: layer 4 -> 5 doubles every offset
    sched = LayerSchedule(1.9, 16)
    seen = []
    for j in range(1, 5):
        kids = children_of(sched, 4, j)
        assert len(kids) == 2
        seen.extend(kids)
    assert sorted(seen) == list(range(1, 9))


def test_children_partition_next_layer():
    rng = random.Random(22)
    for _ in range(50):
        alpha = rng.choice(ALPHA_GRID)
        n = rng.randint(2, 5000)
        sched = LayerSchedule(alpha, n)
        for i in range(1, sched.num_layers):
            seen = []
            for j in range(1, sched.full_size(i) + 1):
                seen.extend(children_of(sched, i, j))
            assert sorted(seen) == list(range(1, sched.full_size(i + 1) + 1)), (alpha, n, i)


def test_children_of_range_checks():
    sched = LayerSchedule(1.5, 27)
    with pytest.raises(ContractViolation):
        children_of(sched, sched.num_layers, 1)  # no next layer
    with pytest.raises(ContractViolation):
        children_of(sched, 1, 2)  # offset beyond layer size


def _children_by_offsets(ref, totals, pos):
    """``pos``'s flat children through ``children_of``, truncated to n; the
    layer comes from bisecting ``totals``, the totals asked of ``ref`` so far."""
    while totals[-1] < pos:
        totals.append(ref.total(len(totals)))
    layer = bisect_left(totals, pos)
    if not ref.has_layer(layer + 1):
        return ()
    base = ref.total(layer)
    offsets = children_of(ref, layer, pos - totals[layer - 1])
    return tuple(base + c for c in offsets if base + c <= ref.n)


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.5, 1.9])
def test_child_positions_match_children_of(alpha):
    # flat-position children equal the layer offset map of children_of,
    # truncated to n, on fresh schedules that extend their totals lazily:
    # asked in order, each call extends one layer ahead; asked a far
    # position first, child_positions jumps ahead to cover it.  The reference
    # maps a position to its layer by bisecting the totals it asks for.
    for n in [*range(1, 121), 10**30]:
        sched, ref = LayerSchedule(alpha, n), LayerSchedule(alpha, n)
        totals = [0]
        for pos in range(1, min(n, 3000) + 1):
            assert sched.child_positions(pos) == _children_by_offsets(ref, totals, pos), (n, pos)
        for pos in {min(n, 3000), (min(n, 3000) + 1) // 2}:
            assert LayerSchedule(alpha, n).child_positions(pos) == sched.child_positions(pos), (n, pos)
    if alpha == 1.1:  # position 5000 asked first, as walked in order it gives 5540
        assert LayerSchedule(alpha, 10**6).child_positions(5000) == (5540,)
    sched = LayerSchedule(alpha, 50)
    for pos in (0, 51):
        with pytest.raises(ContractViolation):
            sched.child_positions(pos)


@pytest.mark.parametrize("alpha", [1.05, 1.1, 1.5, 1.9])
def test_child_positions_keep_their_answers(alpha):
    # one schedule asked every position twice, in shuffled order, answers each
    # time what a fresh schedule and children_of answer: a kept answer depends
    # on the position alone, not on what was asked before it
    rng = random.Random(f"kept-{alpha}")
    for n in (1, 2, 3, 10, 57, 400):
        sched, ref, totals = LayerSchedule(alpha, n), LayerSchedule(alpha, n), [0]
        order = [*range(1, n + 1)] * 2
        rng.shuffle(order)
        for pos in order:
            want = _children_by_offsets(ref, totals, pos)
            assert sched.child_positions(pos) == want, (n, pos)
            assert LayerSchedule(alpha, n).child_positions(pos) == want, (n, pos)
        for pos in (0, n + 1):  # a position outside is refused each time it is asked
            for _ in range(2):
                with pytest.raises(ContractViolation, match=f"position {pos} outside"):
                    sched.child_positions(pos)


def test_prefix_layers_match_selection():
    # whole-layer prefixes are exactly the T_i smallest values
    rng = random.Random(23)
    vals = [rng.random() for _ in range(500)]
    h = lohify(vals, 1.3)
    expected = sorted(vals)
    for i in range(1, h.schedule.num_layers + 1):
        t = h.schedule.total(i)
        assert sorted(h.values[:t]) == expected[:t]


def _leaf_case():
    rng = random.Random(24)
    vals = [rng.random() for _ in range(300)]
    return LeafGenerator(vals, 1.5), vals


def _pair_sum_case():
    rng = random.Random(25)
    a = [rng.random() for _ in range(20)]
    b = [rng.random() for _ in range(15)]
    gen = PairSumNode(LeafGenerator(a, 1.5), LeafGenerator(b, 1.5), 1.5)
    return gen, [x + y for x in a for y in b]


@pytest.mark.parametrize("make", [_leaf_case, _pair_sum_case], ids=["leaf", "pair-sum-node"])
def test_leaf_generator_streams_layers(make):
    # the contract of the shared generator base, on both kinds of generator
    gen, vals = make()
    assert gen.layer_count == 1
    assert gen.generated_count == 1
    assert gen.values[0] == min(vals)
    running = []
    while True:
        running.extend(gen.layer(gen.layer_count))
        assert gen.generated_count == len(running)
        assert gen.max_generated() == max(running)
        assert gen.size_of_last_layer() == len(gen.layer(gen.layer_count))
        assert gen.size_of_last_layer() == gen.schedule.size(gen.layer_count)
        if not gen.has_more_layers():
            break
        prev_max = gen.max_generated()
        gen.generate_next_layer()
        assert gen.max_generated() >= prev_max
    assert Counter(running) == Counter(vals)
    layers = gen.layer_count
    gen.generate_next_layer()  # exhausted: no-op
    assert gen.generated_count == gen.total_size == len(vals)
    assert gen.layer_count == layers
    with pytest.raises(ContractViolation):
        gen.layer(layers + 1)
    assert verify_loh(gen)


def test_schedule_totals_on_demand():
    # a product of sizes far beyond float range: only the totals asked for
    # are computed, with the same recurrence as a small schedule
    huge = LayerSchedule(1.1, 2**2000)
    small = LayerSchedule(1.1, 10**6)
    assert huge.total(40) == small.total(40)
    assert huge.size(40) == small.size(40)
    assert huge.child_positions(small.total(40)) == small.child_positions(small.total(40))
    assert children_of(huge, 40, 1) == children_of(small, 40, 1)
    assert huge.has_layer(41) and not huge.has_layer(0)
    with pytest.raises(ContractViolation):
        huge.total(0)


def test_leaf_generator_pops_layers_lazily():
    # a leaf holds exactly its generated layers, each the matching slice of
    # the sorted input, and leaves the caller's list as it was
    rng = random.Random(26)
    vals = [float(rng.randrange(500)) for _ in range(5000)]
    rng.shuffle(vals)
    before = list(vals)
    ordered = sorted(vals)
    gen = LeafGenerator(vals, 1.1)
    while True:
        assert len(gen.values) == gen.generated_count
        i = gen.layer_count
        lo = gen.schedule.total(i - 1) if i > 1 else 0
        assert Counter(gen.layer(i)) == Counter(ordered[lo:gen.schedule.total(i)])
        if not gen.has_more_layers():
            break
        gen.generate_next_layer()
    assert gen.generated_count == len(vals)
    gen.generate_next_layer()  # exhausted: no-op
    assert len(gen.values) == gen.generated_count == len(vals)
    assert gen.layer_count == gen.schedule.num_layers
    assert vals == before
    with pytest.raises(ContractViolation):
        LeafGenerator([], 1.1)


@pytest.mark.parametrize("container", ["list", "float64-ndarray"])
def test_leaf_generator_keeps_its_own_copy(container):
    # a leaf realizes its axis lazily, so it reads its own copy: a caller
    # that reuses its buffer between layers changes none of the layers
    vals = [float(v) for v in range(100, 0, -1)]
    source = list(vals) if container == "list" else np.array(vals)
    gen = LeafGenerator(source, 1.5)
    source[:] = [-1.0] * 100
    while gen.has_more_layers():
        gen.generate_next_layer()
    assert gen.values == sorted(vals)
