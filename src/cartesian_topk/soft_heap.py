"""Soft heap: a priority queue that trades exactness for speed.

Every item is a plain ``(key, payload)`` tuple that is never changed.
Items sit in per-node lists inside a forest of binary trees, at most one
tree per rank, and an item's current key is always its node's key.
insert only appends to a pending list; the next extract_min settles the
counters (size, inserts, peak) for all pending items at once and
carries each into the forest like a binary increment.  A rank-0 tree is
always a leaf holding one item, so a pending item that meets one builds
the rank-1 node directly: the smaller key (the pending item's on a tie)
goes up, the other stays below as its only child.

An emptied node refills by pulling up its smaller-key child's list
together with its key, then refilling that child the same way down to a
leaf, which raises no key.  Corruption happens in one place only: a new
even-rank node above a cutoff derived from epsilon refills once more
("car-pooling") and keeps its residents, whose node key rises.  An item
is "corrupted" iff its key is below its node's key; at most epsilon * I
items ever are, where I counts insertions, and each is reported once,
by the extract_min that corrupts it.  Keys are never lowered.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable

from .errors import ContractViolation, ParameterError


class _Node:
    __slots__ = ("rank", "key", "items", "left", "right")

    def __init__(self, rank: int, key: float, items: list, left=None, right=None):
        self.rank = rank
        self.key = key
        self.items = items
        self.left = left
        self.right = right


_node_key = operator.attrgetter("key")


class SoftHeap:
    """Priority queue with amortized O(1) insert and bounded corruption.

    extract_min returns (item, newly_corrupted, key): the item had the
    minimum current key, which is ``key``, so it is corrupted iff
    ``item[0] < key``; newly_corrupted lists every live item first
    corrupted during this call (each item is reported at most once ever).
    """

    def __init__(self, epsilon: float):
        if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon < 0.5):
            raise ParameterError(f"epsilon must lie in (0, 1/2), got {epsilon}")
        self.epsilon = float(epsilon)
        # Item lists double only when an even-rank node above this cutoff
        # is created.  At most I/2^r nodes of rank r ever exist and a
        # rank-r creation corrupts at most 2^((r-cutoff)/2) items, so the
        # items ever corrupted stay below I * 2^-cutoff <= epsilon * I / 2.
        self._rank_cutoff = math.ceil(math.log2(1.0 / self.epsilon)) + 1
        self._trees: dict[int, _Node] = {}
        self._pending: list[tuple[float, Any]] = []
        self._size = 0
        self._inserts = 0
        self._corrupted = 0
        self._peak_size = 0

    # -- observers ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size + len(self._pending)

    def __len__(self) -> int:
        return self._size + len(self._pending)

    @property
    def insert_count(self) -> int:
        """Insertions since construction or the last drain."""
        return self._inserts + len(self._pending)

    @property
    def corrupted_count(self) -> int:
        """Items corrupted since construction or the last drain."""
        return self._corrupted

    @property
    def peak_size(self) -> int:
        return max(self._peak_size, self._size + len(self._pending))

    # -- operations --------------------------------------------------------

    def insert(self, key: float, payload: Any = None) -> None:
        self._pending.append((key, payload))

    def extract_min(self) -> tuple[tuple[float, Any], list, float]:
        fresh: list = []
        if self._pending:
            self._consolidate(fresh)
        elif not self._size:
            raise ContractViolation("extract_min from an empty soft heap")
        trees = self._trees
        root = min(trees.values(), key=_node_key)  # first of equal keys
        key = root.key
        items = root.items
        item = items.pop()
        self._size -= 1
        if not items:
            if root.left is None:
                del trees[root.rank]
            else:
                _refill(root)
        return item, fresh, key

    def drain(self) -> list:
        """Remove and return every live item; counters reset to zero."""
        out = list(self._pending)
        stack = list(self._trees.values())
        while stack:
            node = stack.pop()
            out.extend(node.items)
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        self._trees = {}
        self._pending = []
        self._size = 0
        self._inserts = 0
        self._corrupted = 0
        self._peak_size = 0
        return out

    # -- internals ----------------------------------------------------------

    def _consolidate(self, fresh: list) -> None:
        pending = self._pending
        self._pending = []
        self._inserts += len(pending)
        self._size += len(pending)
        self._peak_size = max(self._peak_size, self._size)
        trees = self._trees
        cutoff = self._rank_cutoff
        for item in pending:
            key = item[0]
            leaf = trees.pop(0, None)
            if leaf is None:
                trees[0] = _Node(0, key, [item])
                continue
            if leaf.key < key:  # rank-0 carry: the smaller key rises, ties to the new item
                node = _Node(1, leaf.key, leaf.items, leaf)
                leaf.key = key
                leaf.items = [item]
            else:
                node = _Node(1, key, [item], leaf)
            rank = 1
            other = trees.pop(1, None)
            while other is not None:
                node = _Node(rank + 1, 0.0, None, node, other)
                _refill(node)
                rank += 1
                if rank > cutoff and not rank & 1:
                    _car_pool(node, fresh)
                other = trees.pop(rank, None)
            trees[rank] = node
        self._corrupted += len(fresh)


def _refill(x: _Node) -> None:
    # Pulls up the list of x's smaller-key child (the left one on a tie)
    # and refills that child the same way; a drained leaf is dropped.
    while True:
        y, z = x.left, x.right
        if z is not None and z.key < y.key:
            y, z = z, y
            x.left, x.right = y, z
        x.items = y.items
        x.key = y.key
        if y.left is None:
            x.left = z
            x.right = None
            return
        x = y


def _car_pool(x: _Node, fresh: list) -> None:
    # The only step that corrupts: x refills once more, keeping its
    # residents ahead of the list it pulls up, under its new key.  When the
    # key rises, a resident still at the old key was not corrupted before.
    items, key = x.items, x.key
    _refill(x)
    if x.key > key:
        fresh.extend([e for e in items if e[0] == key])
    items.extend(x.items)
    x.items = items


def pop_and_pool(soft: SoftHeap, pops: int, pool: list,
                 propose: Callable[[Any], None]) -> int:
    """Extract up to ``pops`` times, settling every item each extraction frees.

    An item settles exactly once: when it is first reported corrupted, or
    when it is extracted uncorrupted.  Settling appends its key to ``pool``
    and calls ``propose(payload)``, which inserts its children.  The newly
    corrupted items of an extraction settle before the extracted one, which
    fixes the insertion order.  An extraction counts toward ``pops`` unless
    its item is corrupted and was first reported before this call, i.e.
    settled by an earlier call on the same heap.  Stops early once the heap
    is empty; returns the number of counted extractions.
    """
    done = 0
    # ids of the items first reported corrupted in this call: two distinct
    # items can compare equal.  An item freed after its extraction may pass
    # its id on, but only to an item inserted in this call, which if
    # corrupted is reported in this call too, so the count stays exact.
    reported: set = set()
    extract = soft.extract_min
    while done < pops and (soft._size or soft._pending):
        item, fresh, key = extract()
        if fresh:
            reported.update(map(id, fresh))
        corrupted = item[0] < key
        if not corrupted:
            fresh.append(item)
        for value, payload in fresh:
            pool.append(value)
            propose(payload)
        if not corrupted or id(item) in reported:
            done += 1
    return done
