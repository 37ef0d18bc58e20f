import gc
import hashlib
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cartesian_topk import ContractViolation, ParameterError, SoftHeap
from cartesian_topk.soft_heap import pop_and_pool


def test_new_heap_is_empty():
    h = SoftHeap(0.25)
    assert len(h) == 0
    assert h.insert_count == 0


def test_epsilon_one_over_3m():
    # the m-axis selector uses epsilon = 1/(3m); m=4 gives 1/12
    h = SoftHeap(1.0 / 12.0)
    assert len(h) == 0


@pytest.mark.parametrize("eps", [0.5, 0.0, -0.1, 0.75, float("nan"), "0.25", None, 0.25j, True])
def test_epsilon_open_interval(eps):
    with pytest.raises(ParameterError, match="epsilon must be a real number"):
        SoftHeap(eps)


@pytest.mark.parametrize("eps", [np.float32(0.25), np.float64(0.25), Fraction(1, 4)])
def test_epsilon_any_real_type(eps):
    # any real number type in (0, 1/2) is an epsilon, not only float and int
    h = SoftHeap(eps)
    assert h.epsilon == 0.25 and type(h.epsilon) is float


def test_single_insert_extract():
    h = SoftHeap(0.25)
    h.insert(5.0, "payload")
    item, fresh, key = h.extract_min()
    assert item[0] == 5.0
    assert item[1] == "payload"
    assert not item[0] < key
    assert fresh == []
    assert len(h) == 0


def test_extract_empty_heap():
    with pytest.raises(ContractViolation):
        SoftHeap(0.25).extract_min()


def test_small_epsilon_extracts_sorted():
    # three inserts at eps=0.01 stay below 1/eps, forcing zero corruption
    h = SoftHeap(0.01)
    for v in (2.0, 3.0, 1.0):
        h.insert(v)
    out = [h.extract_min()[0][0] for _ in range(3)]
    assert out == [1.0, 2.0, 3.0]


def test_below_one_over_epsilon_no_corruption():
    rng = random.Random(11)
    for eps in (0.01, 0.1, 0.25, 0.4):
        n = int(1 / eps) - 1
        if n < 1:
            continue
        h = SoftHeap(eps)
        vals = [rng.random() for _ in range(n)]
        for v in vals:
            h.insert(v)
        out = [h.extract_min()[0][0] for _ in range(n)]
        assert out == sorted(vals)
        assert h.corrupted_count == 0


def test_keys_only_raised_and_bound_holds():
    h = SoftHeap(0.25)
    n = 10_000
    rng = random.Random(12)
    vals = [rng.random() for _ in range(n)]
    for v in vals:
        h.insert(v)
    corrupted = 0
    out = []
    reported = set()  # ids of the live items reported corrupted so far
    for _ in range(n):
        item, fresh, key = h.extract_min()
        assert key >= item[0]
        reported.update(map(id, fresh))
        # flagged corrupted iff a newly_corrupted list so far held it, this one included
        assert (item[0] < key) == (id(item) in reported)
        reported.discard(id(item))
        corrupted += len(fresh)
        out.append(item[0])
    assert corrupted == h.corrupted_count <= 0.25 * n
    assert Counter(out) == Counter(vals)


def test_corruption_reported_once():
    h = SoftHeap(0.4)
    rng = random.Random(13)
    for _ in range(5000):
        h.insert(rng.random())
    seen = set()
    while len(h):
        fresh = h.extract_min()[1]
        for e in fresh:
            assert id(e) not in seen
            seen.add(id(e))


def test_adversarial_interleavings_respect_bound():
    rng = random.Random(14)
    for eps in (0.01, 0.1, 0.25, 0.4):
        for pattern in ("up", "down", "saw", "rand"):
            h = SoftHeap(eps)
            inserted, removed = [], []
            live = 0
            for i in range(20_000):
                if live == 0 or rng.random() < 0.6:
                    v = {"up": float(i), "down": float(-i), "saw": float(i % 101),
                         "rand": rng.random()}[pattern]
                    h.insert(v)
                    inserted.append(v)
                    live += 1
                else:
                    removed.append(h.extract_min()[0][0])
                    live -= 1
                assert h.corrupted_count <= eps * h.insert_count
            removed.extend(e[0] for e in h.drain())
            assert Counter(removed) == Counter(inserted)


def _check_forest(h):
    # each root sits under its own rank; below it keys are heap-ordered and
    # ranks fall; a node holds one bare (key, payload) item or, only above
    # the rank cutoff where car-pooling makes them, a nonempty list of
    # items; no node has a right child without a left one, every item's key
    # is at most its node's key, and the items in the forest and the
    # pending list add up to len(h)
    live = len(h._pending)
    for root_rank, root in h._trees.items():
        assert root[4] == root_rank
        stack = [root]
        while stack:
            key, items, left, right, rank = stack.pop()
            if type(items) is list:
                assert items and rank > h._rank_cutoff
            else:
                assert type(items) is tuple and len(items) == 2
                items = [items]
            assert all(type(item) is tuple and item[0] <= key for item in items)
            live += len(items)
            assert left is not None or right is None
            for child in (left, right):
                if child is not None:
                    assert child[0] >= key and child[4] < rank
                    stack.append(child)
    assert live == len(h)


@pytest.mark.parametrize("eps, seed, burst_steps, insert_p", [
    (0.25, 1, 0, 0.3),
    # 1,082 pending items settle in the first extraction, which car-pools at rank 10
    (1 / 192, 2, 440, 0.1),
])
def test_forest_invariants_after_every_operation(eps, seed, burst_steps, insert_p):
    # bursts of 1-4 inserts of integer keys 0-3 (inserts only, for the first
    # burst_steps steps), interleaved with single extractions; then extract
    # to empty
    rng = random.Random(seed)
    h = SoftHeap(eps)
    for step in range(burst_steps + 1000):
        if len(h) == 0 or step < burst_steps or rng.random() < insert_p:
            for _ in range(rng.randint(1, 4)):
                h.insert(float(rng.randint(0, 3)))
                _check_forest(h)
        else:
            h.extract_min()
            _check_forest(h)
    while len(h):
        h.extract_min()
        _check_forest(h)
    if eps == 0.25:
        assert h.corrupted_count > 0  # the trace reaches the corrupting step


def test_live_items_hold_few_tracked_objects():
    # each settled item costs its tuple and about one node list: a lone
    # item sits in its node without a list of its own.  Counts objects the
    # collector tracks, with automatic collection paused so none is freed.
    rng = random.Random(18)
    keys = [rng.random() for _ in range(4096)]
    h = SoftHeap(0.25)
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for x in keys:
            h.insert(x)
        h.extract_min()
        grown = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert grown / len(h) <= 2.2


def _tie_heavy_trace(eps, seed, steps):
    # bursts of 1-4 inserts of integer keys 0-3, each payload its insert
    # number, interleaved with single extractions; then extract to empty
    rng = random.Random(seed)
    h = SoftHeap(eps)
    events = []
    payload = 0
    for _ in range(steps):
        if len(h) == 0 or rng.random() < 0.4:
            for _ in range(rng.randint(1, 4)):
                h.insert(float(rng.randint(0, 3)), payload)
                payload += 1
        else:
            item, fresh, _ = h.extract_min()
            events.append((item[1], [e[1] for e in fresh]))
    while len(h):
        item, fresh, _ = h.extract_min()
        events.append((item[1], [e[1] for e in fresh]))
    digest = hashlib.sha256(repr(events).encode()).hexdigest()
    return digest, h.corrupted_count, h.peak_size, h.insert_count


@pytest.mark.parametrize("eps, seed, steps, expected", [
    (0.25, 1, 3000,
     ("d433c750d3a0eb30d6d3d8887282286af4fb3c7977979051be0ee85f5e45c52f", 87, 1258, 3029)),
    (1 / 192, 2, 12000,
     ("fdd591a608395f602098d52467740d5f0acc639460dcd96aaa070b7f3be5e5b6", 7, 4890, 12092)),
])
def test_golden_tie_heavy_trace(eps, seed, steps, expected):
    # every extracted payload and the payloads each extraction first
    # reported corrupted, in order, pin which item wins each tie and which
    # items a refill corrupts; eps 1/192 is soft-tensor's at m=64
    assert _tie_heavy_trace(eps, seed, steps) == expected


def _full_kernel_trace(eps, seed, steps, ties):
    # like _tie_heavy_trace, but records each extraction's current key and
    # flag, and every counter after every operation, inserts included
    rng = random.Random(seed)
    h = SoftHeap(eps)
    events = []
    payload = 0

    def extract():
        item, fresh, key = h.extract_min()
        events.append((item[1], key, item[0] < key, [e[1] for e in fresh]))

    def counters():
        events.append((len(h), len(h), h.insert_count, h.peak_size, h.corrupted_count))

    for _ in range(steps):
        if len(h) == 0 or rng.random() < 0.5:
            for _ in range(rng.randint(1, 4)):
                h.insert(float(rng.randint(0, 3)) if ties else rng.random(), payload)
                payload += 1
                counters()
        else:
            extract()
            counters()
    while len(h):
        extract()
        counters()
    return hashlib.sha256(repr(events).encode()).hexdigest()


# (eps, tie-heavy keys, seed) -> sha256 of the whole trace.  eps 0.25 is
# the pairwise selections' and the pair-sum nodes', 1/192 soft-tensor's at
# m=64; 0.01 car-pools at the same ranks as 1/192 (10 and 12 here), so it
# draws other seeds
_FULL_KERNEL_DIGESTS = {
    (0.25, False, 1): "6f992408ade00855e9e6e78bedc9aabd84fe7a623e82f3b0a8d3065244393a73",
    (0.25, False, 2): "d33888895a4897f3f0678e5e449b2793d070e3cecd4b8ea46eec0361588699e7",
    (0.25, True, 1): "d05eff20293c8f178e095e672b2d082b11adee0e0d99b23ad5f6815f1d4560fb",
    (0.25, True, 2): "6410473154eeea20417e846f7717d47bb91bc64ed7af679b6164feda04cf9eba",
    (1 / 192, False, 1): "4f4124dac2020ee285a74e25dbe4c3e12fd95cf44ddb41526a50acb3e6dd74f9",
    (1 / 192, False, 2): "51c971ab6db3df2c78239e145ecd58a95b0764366b44af125fd1a19c7e54d8cc",
    (1 / 192, True, 1): "05ced075665a24a1be4a123a693ff0688c9717ddea53ba64046174f6ad10dddf",
    (1 / 192, True, 2): "3a6c6a3641f387cbc87e045ff576d5a96ea1df37b0eade86671c6e760ecf3abb",
    (0.01, False, 3): "594d3e1b270c90e73acc71d997a6287af106088adf096fb3da4cf35c98bc8900",
    (0.01, False, 4): "7ed44167960c3ca2e4e84022c793b898304a174483b25f810a0bb185b73bdae1",
    (0.01, True, 3): "c2985dddd8e663a347a9b3fd77996b4aa439c645f74c6f3a4ee802b6870fcd0f",
    (0.01, True, 4): "6d2d989646bdcc1c2da1fbb0f8a13a6d17810822e633907c2b173b963489a108",
}


@pytest.mark.parametrize("eps, ties, seed", sorted(_FULL_KERNEL_DIGESTS))
def test_golden_full_kernel_trace(eps, ties, seed):
    # every extraction (payload, current key, flag, newly corrupted
    # payloads) and, after every insert and extraction, size, len,
    # insert_count, peak_size and corrupted_count: the counters must read
    # the same between inserts however the heap settles them
    assert _full_kernel_trace(eps, seed, 6000, ties) == _FULL_KERNEL_DIGESTS[eps, ties, seed]


def _pool_calls_digest(eps, seed):
    # One heap kept across many pop_and_pool calls, as a pair-sum node keeps
    # it across layers, with keys 0-3 and no payloads, so many items compare
    # equal; bursts of tied keys arrive between calls and from propose.
    rng = random.Random(seed)
    h = SoftHeap(eps)

    def propose(_):
        if rng.random() < 0.3:
            h.insert(float(rng.randint(0, 3)))

    for _ in range(600):
        h.insert(float(rng.randint(0, 3)))
    calls = []
    while len(h):
        for _ in range(rng.randint(0, 3)):
            h.insert(float(rng.randint(0, 3)))
        pool: list = []
        done = pop_and_pool(h, (1, 3, 7)[len(calls) % 3], pool, propose)
        calls.append((done, sorted(pool)))
    return hashlib.sha256(repr(calls).encode()).hexdigest()


# (eps, seed) -> sha256 of every call's result; 0.25 and 0.4 share a rank
# cutoff, so they draw other seeds
_POOL_CALLS_DIGESTS = {
    (0.1, 1): "fef6b7de41de1892a8c830e645bc7053cd132e5e73725c6d77b4887dc7396783",
    (0.25, 2): "5f8b238003f54fe32048900decde49ba358aec2fd756ef076817b7bc82882eb7",
    (0.4, 3): "8c26d9e8d52e00d6858bf201fe4adf1c78496e5b75fbfde0a5b115bb7394cffc",
}


@pytest.mark.parametrize("eps, seed", sorted(_POOL_CALLS_DIGESTS))
def test_golden_pop_and_pool_on_equal_items(eps, seed):
    # every call's counted extractions and pooled keys: an extraction of an
    # item an earlier call settled as corrupted must not count, even when an
    # equal item was first reported corrupted in this call
    assert _pool_calls_digest(eps, seed) == _POOL_CALLS_DIGESTS[eps, seed]


def test_drain_empty():
    assert SoftHeap(0.25).drain() == []


def test_drain_returns_original_keys():
    h = SoftHeap(0.25)
    h.insert(4.0, "a")
    h.insert(1.0, "b")
    drained = h.drain()
    assert Counter(e[0] for e in drained) == Counter([1.0, 4.0])
    assert len(h) == 0
    assert h.insert_count == 0


def test_drain_size_accounting():
    rng = random.Random(15)
    h = SoftHeap(0.1)
    n, j = 500, 123
    for _ in range(n):
        h.insert(rng.random())
    for _ in range(j):
        h.extract_min()
    assert len(h.drain()) == n - j


def test_completeness_extractions_plus_drain():
    rng = random.Random(16)
    h = SoftHeap(0.25)
    vals = [rng.random() for _ in range(2000)]
    for v in vals:
        h.insert(v)
    got = [h.extract_min()[0][0] for _ in range(700)]
    got += [e[0] for e in h.drain()]
    assert Counter(got) == Counter(vals)


def test_corrupted_count_matches_reported():
    # the heap counts corruptions without keeping the items; drain resets it
    h = SoftHeap(0.4)
    rng = random.Random(17)
    for _ in range(4000):
        h.insert(rng.random())
    reported = []
    while len(h) > 1000:
        reported.extend(h.extract_min()[1])
    assert reported and h.corrupted_count == len(reported)
    h.drain()
    assert h.corrupted_count == 0


def test_pop_and_pool_skips_entries_an_earlier_call_settled():
    # A heap kept across calls, as a pair-sum node keeps it across layers:
    # items the first call settled as corrupted stay in the heap, and the
    # second call must neither pool them again nor count their extraction.
    rng = random.Random(13)
    keys = [rng.random() for _ in range(300)]
    h = SoftHeap(0.25)
    for i, x in enumerate(keys):
        h.insert(x, i)
    settled: list = []
    first: list = []
    assert pop_and_pool(h, 30, first, settled.append) == 30
    left_in_heap = len(settled) - 30  # settled as corrupted, not extracted
    assert left_in_heap > 0
    unsettled = len(keys) - len(settled)
    second: list = []
    assert pop_and_pool(h, unsettled, second, settled.append) == unsettled
    assert len(set(settled)) == len(settled) == len(keys)
    assert len(second) == unsettled
    assert Counter(first + second) == Counter(keys)
