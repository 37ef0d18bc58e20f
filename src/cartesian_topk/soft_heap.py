"""Soft heap: a priority queue that trades exactness for speed.

Every item is a plain ``(key, payload)`` tuple that is never changed.
Items sit in per-node lists inside a forest of binary trees, at most one
tree per rank, kept in a dict from rank to root in insertion order.  A
node is a plain list ``[key, items, left, right, rank]``, and an item's
current key is always its node's key.  insert only appends to a pending
list.  extract_min is the one path that changes the forest: it first
settles the counters (size, inserts, peak) for all pending items at once
and carries each into the forest like a binary increment, then pops the
first root of least key.  A rank-0 tree is always a leaf holding one
item, so a pending item that meets one builds the rank-1 node directly:
the smaller key (the pending item's on a tie) goes up, the other stays
below as its only child.

An emptied node refills by pulling up its smaller-key child's list (the
left one on a tie) together with its key, then refilling that child the
same way down to a leaf, which raises no key.  Corruption happens in one
place only: a new even-rank node above a cutoff derived from epsilon
refills once more ("car-pooling") and keeps its residents, whose node
key rises.  An item is "corrupted" iff its key is below its node's key;
at most epsilon * I items ever are, where I counts insertions, and each
is reported once, by the extract_min that corrupts it.  Keys are never
lowered.
"""

from __future__ import annotations

import math
import numbers
import operator
from typing import Any, Callable

from .errors import ContractViolation, ParameterError

_key = operator.itemgetter(0)  # of a node [key, items, left, right, rank]


class SoftHeap:
    """Priority queue with amortized O(1) insert and bounded corruption.

    extract_min returns (item, newly_corrupted, key): the item had the
    minimum current key, which is ``key``, so it is corrupted iff
    ``item[0] < key``; newly_corrupted lists every live item first
    corrupted during this call (each item is reported at most once ever).
    """

    def __init__(self, epsilon: float):
        if not (isinstance(epsilon, numbers.Real) and 0.0 < epsilon < 0.5):
            raise ParameterError(f"epsilon must be a real number in (0, 1/2), got {epsilon!r}")
        self.epsilon = float(epsilon)
        # Item lists double only when an even-rank node above this cutoff
        # is created.  At most I/2^r nodes of rank r ever exist and a
        # rank-r creation corrupts at most 2^((r-cutoff)/2) items, so the
        # items ever corrupted stay below I * 2^-cutoff <= epsilon * I / 2.
        self._rank_cutoff = math.ceil(math.log2(1.0 / self.epsilon)) + 1
        self._trees: dict[int, list] = {}
        self._pending: list[tuple[float, Any]] = []
        self._size = 0
        self._inserts = 0
        self._corrupted = 0
        self._peak_size = 0

    # -- observers ---------------------------------------------------------

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
        trees = self._trees
        pending = self._pending
        size = self._size
        if pending:
            self._pending = []
            self._inserts += len(pending)
            size += len(pending)
            if size > self._peak_size:
                self._peak_size = size
            pop = trees.pop
            cutoff = self._rank_cutoff
            for item in pending:
                key = item[0]
                leaf = pop(0, None)
                if leaf is None:
                    trees[0] = [key, [item], None, None, 0]
                    continue
                if leaf[0] < key:  # rank-0 carry: the smaller key rises, ties to the new item
                    node = [leaf[0], leaf[1], leaf, None, 1]
                    leaf[0] = key
                    leaf[1] = [item]
                else:
                    node = [key, [item], leaf, None, 1]
                rank = 1
                other = pop(1, None)
                while other is not None:
                    # the new root takes the smaller root's list (node's on a
                    # tie); that root, refilled, is its left child, or is
                    # dropped if it was a leaf
                    rank += 1
                    if other[0] < node[0]:
                        node, other = other, node
                    if node[2] is None:
                        node = [node[0], node[1], other, None, rank]
                    else:
                        node = [node[0], node[1], node, other, rank]
                        _refill(node[2])
                    if rank > cutoff and not rank & 1:
                        _car_pool(node, fresh)
                    other = pop(rank, None)
                trees[rank] = node
            self._corrupted += len(fresh)
        elif not size:
            raise ContractViolation("extract_min from an empty soft heap")
        self._size = size - 1
        root = min(trees.values(), key=_key)  # first of equal keys
        key = root[0]
        items = root[1]
        item = items.pop()
        if not items:
            if root[2] is None:
                del trees[root[4]]
            else:
                _refill(root)
        return item, fresh, key

    def drain(self) -> list:
        """Remove and return every live item; counters reset to zero."""
        out = list(self._pending)
        stack = list(self._trees.values())
        while stack:
            _, items, left, right, _ = stack.pop()
            out.extend(items)
            if left is not None:
                stack.append(left)
            if right is not None:
                stack.append(right)
        self._trees = {}
        self._pending = []
        self._size = 0
        self._inserts = 0
        self._corrupted = 0
        self._peak_size = 0
        return out


def _refill(x: list) -> None:
    # Pulls up the list of x's smaller-key child (the left one on a tie)
    # and refills that child the same way; a drained leaf is dropped.
    while True:
        y, z = x[2], x[3]
        if z is not None and z[0] < y[0]:
            y, z = z, y
            x[2] = y
            x[3] = z
        x[0] = y[0]
        x[1] = y[1]
        if y[2] is None:
            x[2] = z
            x[3] = None
            return
        x = y


def _car_pool(x: list, fresh: list) -> None:
    # The only step that corrupts: x refills once more, keeping its
    # residents ahead of the list it pulls up, under its new key.  When the
    # key rises, a resident still at the old key was not corrupted before.
    key, items = x[0], x[1]
    _refill(x)
    if x[0] > key:
        fresh.extend([e for e in items if e[0] == key])
    items.extend(x[1])
    x[1] = items


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
    add = pool.append
    while done < pops and (soft._size or soft._pending):
        item, fresh, key = extract()
        if fresh:
            reported.update(map(id, fresh))
        corrupted = item[0] < key
        if not corrupted:
            fresh.append(item)
        for value, payload in fresh:
            add(value)
            propose(payload)
        if not corrupted or id(item) in reported:
            done += 1
    return done
