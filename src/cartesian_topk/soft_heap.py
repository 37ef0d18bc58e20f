"""Soft heap: a priority queue that trades exactness for speed.

Entries are stored in per-node item lists inside a forest of binary
trees.  When a node refills from its children its key can rise, raising
the current key of every entry still sitting in its list; such entries
are "corrupted" (current key > original key).  Corruption is confined
to nodes above a rank cutoff derived from epsilon, which bounds the
number of entries ever corrupted by epsilon * I, where I counts
insertions.

Inserts go into a pending buffer and the forest is consolidated at the
next extract_min, so all corruption surfaces inside extract_min and is
reported through its return value.  Keys are never lowered.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable

from .errors import ContractViolation, ParameterError


class SoftHeapEntry:
    """One inserted item; ``corrupted`` iff current_key > original_key."""

    __slots__ = ("original_key", "current_key", "payload", "corrupted")

    def __init__(self, key: float, payload: Any):
        self.original_key = key
        self.current_key = key
        self.payload = payload
        self.corrupted = False

    def __repr__(self):  # pragma: no cover - debugging aid
        flag = "*" if self.corrupted else ""
        return f"SoftHeapEntry({self.original_key}->{self.current_key}{flag})"


class _Node:
    __slots__ = ("rank", "key", "items", "left", "right")

    def __init__(self, rank: int, key: float, items: list, left=None, right=None):
        self.rank = rank
        self.key = key
        self.items = items
        self.left = left
        self.right = right


class SoftHeap:
    """Priority queue with amortized O(1) insert and bounded corruption.

    extract_min returns (entry, newly_corrupted): the entry had the
    minimum current key, and newly_corrupted lists every live entry whose
    key was first raised during this call (each entry is reported at most
    once ever).
    """

    def __init__(self, epsilon: float):
        if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon < 0.5):
            raise ParameterError(f"epsilon must lie in (0, 1/2), got {epsilon}")
        self.epsilon = float(epsilon)
        # Item lists double only when an even-rank node above this cutoff
        # is created.  At most I/2^r nodes of rank r ever exist and a
        # rank-r creation corrupts at most 2^((r-cutoff)/2) entries, so the
        # entries ever corrupted stay below I * 2^-cutoff <= epsilon * I / 2.
        self._rank_cutoff = math.ceil(math.log2(1.0 / self.epsilon)) + 1
        self._trees: dict[int, _Node] = {}
        self._pending: list[SoftHeapEntry] = []
        self._size = 0
        self._inserts = 0
        self._corrupted: list[SoftHeapEntry] = []
        self._peak_size = 0

    # -- observers ---------------------------------------------------------

    @property
    def size(self) -> int:
        return self._size

    def __len__(self) -> int:
        return self._size

    @property
    def insert_count(self) -> int:
        """Insertions since construction or the last drain."""
        return self._inserts

    @property
    def corrupted_count(self) -> int:
        return len(self._corrupted)

    @property
    def peak_size(self) -> int:
        return self._peak_size

    def corrupted_entries(self) -> list[SoftHeapEntry]:
        """Every entry corrupted since construction or the last drain."""
        return list(self._corrupted)

    # -- operations --------------------------------------------------------

    def insert(self, key: float, payload: Any = None) -> None:
        self._pending.append(SoftHeapEntry(key, payload))
        self._size += 1
        self._inserts += 1
        if self._size > self._peak_size:
            self._peak_size = self._size

    def extract_min(self) -> tuple[SoftHeapEntry, list[SoftHeapEntry]]:
        if self._size == 0:
            raise ContractViolation("extract_min from an empty soft heap")
        fresh: list[SoftHeapEntry] = []
        self._consolidate(fresh)
        root = min(self._trees.values(), key=operator.attrgetter("key"))  # first of equal keys
        entry = root.items.pop()
        self._size -= 1
        if not root.items:
            if root.left is None:
                del self._trees[root.rank]
            else:
                self._fill(root, fresh)
        return entry, fresh

    def drain(self) -> list[SoftHeapEntry]:
        """Remove and return every live entry; counters reset to zero."""
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
        self._corrupted = []
        self._peak_size = 0
        return out

    # -- internals ----------------------------------------------------------

    def _consolidate(self, fresh: list[SoftHeapEntry]) -> None:
        pending = self._pending
        if not pending:
            return
        self._pending = []
        trees = self._trees
        for entry in pending:
            node = _Node(0, entry.current_key, [entry])
            while node.rank in trees:
                other = trees.pop(node.rank)
                node = self._combine(node, other, fresh)
            trees[node.rank] = node

    def _combine(self, x: _Node, y: _Node, fresh: list[SoftHeapEntry]) -> _Node:
        z = _Node(x.rank + 1, 0.0, [], x, y)
        self._fill(z, fresh)
        # Car-pooling happens here and only here: a second fill at the
        # creation of an even-rank node above the cutoff merges two item
        # lists and raises the keys of the residents.
        if z.rank > self._rank_cutoff and z.rank % 2 == 0 and z.left is not None:
            self._fill(z, fresh)
        return z

    def _fill(self, x: _Node, fresh: list[SoftHeapEntry]) -> None:
        # Pull the item list up from the smaller-key child, then refill that
        # child the same way, down to a leaf.  Entries already sitting at x
        # get their keys raised to the new node key; the nodes below it on
        # the path hold none, each having just been emptied.
        while True:
            left, right = x.left, x.right
            if right is not None and right.key < left.key:
                x.left, x.right = right, left
                left = right
            new_key = left.key
            if x.items:
                if new_key > x.key:
                    for e in x.items:
                        if not e.corrupted:
                            e.corrupted = True
                            fresh.append(e)
                            self._corrupted.append(e)
                        e.current_key = new_key
                x.items.extend(left.items)
            else:
                x.items = left.items
            x.key = new_key
            left.items = []
            if left.left is None:
                x.left = x.right
                x.right = None
                return
            x = left


def pop_and_pool(soft: SoftHeap, pops: int, pool: list,
                 propose: Callable[[SoftHeapEntry], None]) -> int:
    """Extract up to ``pops`` times, settling every entry each extraction frees.

    An entry settles exactly once: when it is first reported corrupted, or
    when it is extracted uncorrupted.  Settling appends its original key to
    ``pool`` and calls ``propose(entry)``, which inserts its children.  The
    newly corrupted entries of an extraction settle before the extracted
    one, which fixes the insertion order.  An extraction counts toward
    ``pops`` unless its entry is corrupted and was first reported before
    this call, i.e. settled by an earlier call on the same heap.  Stops
    early once the heap is empty; returns the number of counted extractions.
    """
    done = 0
    reported: set = set()  # entries first reported corrupted in this call
    while done < pops and soft.size > 0:
        entry, fresh = soft.extract_min()
        if fresh:
            reported.update(fresh)
        if not entry.corrupted:
            fresh.append(entry)
        for e in fresh:
            pool.append(e.original_key)
            propose(e)
        if not entry.corrupted or entry in reported:
            done += 1
    return done
