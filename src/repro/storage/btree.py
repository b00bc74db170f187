"""B+-tree index.

ESM supplies MOOD with B+-tree indexing (Section 3.2, ``IndSel``); the cost
model's Table 9 records, per index ``I``: its order ``v(I)``, number of
levels ``level(I)``, number of leaves ``leaves(I)``, key size ``keysize(I)``
and unique flag ``unique(I)``.  This implementation maintains all five.

The tree stores ``(key, value)`` entries; duplicate keys are supported (for
non-unique indexes) by ordering entries on the composite ``(key, value)``,
so every entry has a unique position and deletes are exact.  Each node is
considered to occupy one disk page: every node visited during a descent is
reported to an optional *accountant* callback, which the storage manager
wires to a random-page-read charge -- this makes measured index I/O
comparable with the INDCOST formula of Section 5.

The tree is parameterised by its order ``v``: nodes hold at most ``2v``
entries (leaves) or keys (internal nodes) and at least ``v`` except for the
root, as in the classical definition used by the paper's INDCOST derivation.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.core.errors import IndexStructureError


class _MinSentinel:
    """Orders below every value; used to form open lower range bounds."""

    def __lt__(self, other: object) -> bool:
        return not isinstance(other, _MinSentinel)

    def __gt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return True

    def __ge__(self, other: object) -> bool:
        return isinstance(other, _MinSentinel)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _MinSentinel)

    def __hash__(self) -> int:
        return hash("_MinSentinel")


class _MaxSentinel:
    """Orders above every value; used to form open upper range bounds."""

    def __lt__(self, other: object) -> bool:
        return False

    def __gt__(self, other: object) -> bool:
        return not isinstance(other, _MaxSentinel)

    def __le__(self, other: object) -> bool:
        return isinstance(other, _MaxSentinel)

    def __ge__(self, other: object) -> bool:
        return True

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _MaxSentinel)

    def __hash__(self) -> int:
        return hash("_MaxSentinel")


_MIN = _MinSentinel()
_MAX = _MaxSentinel()


class _Node:
    __slots__ = ("leaf", "keys", "children", "values", "next")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.keys: list[Any] = []      # composite (key, value) keys
        self.children: list[_Node] = []  # internal only
        self.values: list[Any] = []    # leaf only: the value parts
        self.next: _Node | None = None  # leaf chain


@dataclass(frozen=True)
class BTreeParams:
    """The paper's Table 9 parameters for a B+-tree index ``I``."""

    v: int
    level: int
    leaves: int
    keysize: int
    unique: bool


@dataclass
class BTreeStats:
    node_reads: int = 0
    splits: int = 0

    def reset(self) -> None:
        self.node_reads = 0
        self.splits = 0


class BPlusTree:
    """Order-``v`` B+-tree over ``(key, value)`` entries."""

    def __init__(
        self,
        order: int = 32,
        unique: bool = False,
        keysize: int = 8,
        on_node_access: Callable[[], None] | None = None,
    ):
        if order < 2:
            raise IndexStructureError("B+-tree order must be at least 2")
        self.order = order
        self.unique = unique
        self.keysize = keysize
        self.stats = BTreeStats()
        self._on_node_access = on_node_access
        self._root = _Node(leaf=True)
        self._height = 1
        self._num_leaves = 1
        self._num_entries = 0

    # -- bookkeeping -----------------------------------------------------

    @property
    def max_entries(self) -> int:
        return 2 * self.order

    @property
    def min_entries(self) -> int:
        return self.order

    def __len__(self) -> int:
        return self._num_entries

    def params(self) -> BTreeParams:
        return BTreeParams(
            v=self.order,
            level=self._height,
            leaves=self._num_leaves,
            keysize=self.keysize,
            unique=self.unique,
        )

    def _visit(self, node: _Node) -> None:
        self.stats.node_reads += 1
        if self._on_node_access is not None:
            self._on_node_access()

    @staticmethod
    def _composite(key: Any, value: Any) -> tuple[Any, Any]:
        return (key, value)

    # -- search -----------------------------------------------------------

    def _descend_to_leaf(self, ckey: tuple[Any, Any]) -> _Node:
        node = self._root
        self._visit(node)
        while not node.leaf:
            index = bisect.bisect_right(node.keys, ckey)
            node = node.children[index]
            self._visit(node)
        return node

    def search(self, key: Any) -> list[Any]:
        """Return every value stored under ``key`` (possibly empty)."""
        return [value for _, value in self.range_scan(key, key)]

    def contains(self, key: Any) -> bool:
        for _ in self.range_scan(key, key):
            return True
        return False

    def range_scan(
        self,
        lo: Any = None,
        hi: Any = None,
        lo_inclusive: bool = True,
        hi_inclusive: bool = True,
    ) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` pairs with ``lo <= key <= hi`` in order.

        ``None`` bounds are open.  Exclusive bounds are selected with the
        ``*_inclusive`` flags.
        """
        if lo is None:
            start: tuple[Any, Any] = (_MIN, _MIN)
        else:
            start = (lo, _MIN) if lo_inclusive else (lo, _MAX)
        node = self._descend_to_leaf(start)
        index = bisect.bisect_left(node.keys, start)
        if not lo_inclusive and lo is not None:
            index = bisect.bisect_right(node.keys, start)
        while node is not None:
            while index < len(node.keys):
                key, value = node.keys[index]
                if hi is not None:
                    if hi_inclusive and key > hi:
                        return
                    if not hi_inclusive and key >= hi:
                        return
                yield key, value
                index += 1
            node = node.next
            if node is not None:
                self._visit(node)
            index = 0

    def items(self) -> Iterator[tuple[Any, Any]]:
        return self.range_scan()

    def min_key(self) -> Any:
        for key, _ in self.range_scan():
            return key
        return None

    def max_key(self) -> Any:
        node = self._root
        self._visit(node)
        while not node.leaf:
            node = node.children[-1]
            self._visit(node)
        if not node.keys:
            return None
        return node.keys[-1][0]

    # -- insertion -----------------------------------------------------------

    def insert(self, key: Any, value: Any) -> None:
        if self.unique and self.contains(key):
            raise IndexStructureError(
                f"duplicate key {key!r} in unique index"
            )
        ckey = self._composite(key, value)
        split = self._insert_into(self._root, ckey)
        if split is not None:
            sep, right = split
            new_root = _Node(leaf=False)
            new_root.keys = [sep]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._num_entries += 1

    def _insert_into(
        self, node: _Node, ckey: tuple[Any, Any]
    ) -> tuple[tuple[Any, Any], _Node] | None:
        self._visit(node)
        if node.leaf:
            index = bisect.bisect_left(node.keys, ckey)
            if index < len(node.keys) and node.keys[index] == ckey:
                raise IndexStructureError(
                    f"entry {ckey!r} already present in index"
                )
            node.keys.insert(index, ckey)
            if len(node.keys) <= self.max_entries:
                return None
            return self._split_leaf(node)
        index = bisect.bisect_right(node.keys, ckey)
        split = self._insert_into(node.children[index], ckey)
        if split is None:
            return None
        sep, right = split
        node.keys.insert(index, sep)
        node.children.insert(index + 1, right)
        if len(node.keys) <= self.max_entries:
            return None
        return self._split_internal(node)

    def _split_leaf(self, node: _Node) -> tuple[tuple[Any, Any], _Node]:
        self.stats.splits += 1
        mid = len(node.keys) // 2
        right = _Node(leaf=True)
        right.keys = node.keys[mid:]
        node.keys = node.keys[:mid]
        right.next = node.next
        node.next = right
        self._num_leaves += 1
        return right.keys[0], right

    def _split_internal(self, node: _Node) -> tuple[tuple[Any, Any], _Node]:
        self.stats.splits += 1
        mid = len(node.keys) // 2
        sep = node.keys[mid]
        right = _Node(leaf=False)
        right.keys = node.keys[mid + 1:]
        right.children = node.children[mid + 1:]
        node.keys = node.keys[:mid]
        node.children = node.children[:mid + 1]
        return sep, right

    # -- deletion ------------------------------------------------------------

    def delete(self, key: Any, value: Any) -> bool:
        """Remove the exact ``(key, value)`` entry; return whether found."""
        ckey = self._composite(key, value)
        removed = self._delete_from(self._root, ckey)
        if not removed:
            return False
        if not self._root.leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
            self._height -= 1
        self._num_entries -= 1
        return True

    def _delete_from(self, node: _Node, ckey: tuple[Any, Any]) -> bool:
        self._visit(node)
        if node.leaf:
            index = bisect.bisect_left(node.keys, ckey)
            if index >= len(node.keys) or node.keys[index] != ckey:
                return False
            node.keys.pop(index)
            return True
        index = bisect.bisect_right(node.keys, ckey)
        child = node.children[index]
        removed = self._delete_from(child, ckey)
        if removed:
            self._rebalance(node, index)
        return removed

    def _min_load(self, node: _Node) -> int:
        return self.min_entries

    def _rebalance(self, parent: _Node, index: int) -> None:
        child = parent.children[index]
        if len(child.keys) >= self._min_load(child):
            return
        left = parent.children[index - 1] if index > 0 else None
        right = parent.children[index + 1] if index + 1 < len(parent.children) else None
        if left is not None and len(left.keys) > self._min_load(left):
            self._borrow_from_left(parent, index, left, child)
        elif right is not None and len(right.keys) > self._min_load(right):
            self._borrow_from_right(parent, index, child, right)
        elif left is not None:
            self._merge(parent, index - 1, left, child)
        elif right is not None:
            self._merge(parent, index, child, right)

    def _borrow_from_left(
        self, parent: _Node, index: int, left: _Node, child: _Node
    ) -> None:
        if child.leaf:
            child.keys.insert(0, left.keys.pop())
            parent.keys[index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[index - 1])
            parent.keys[index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(
        self, parent: _Node, index: int, child: _Node, right: _Node
    ) -> None:
        if child.leaf:
            child.keys.append(right.keys.pop(0))
            parent.keys[index] = right.keys[0]
        else:
            child.keys.append(parent.keys[index])
            parent.keys[index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent: _Node, left_index: int, left: _Node, right: _Node) -> None:
        if left.leaf:
            left.keys.extend(right.keys)
            left.next = right.next
            self._num_leaves -= 1
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)

    # -- structural checking (used by tests) -----------------------------------

    def check_invariants(self) -> None:
        """Raise :class:`IndexStructureError` on any structural violation."""
        leaves: list[_Node] = []
        self._check_node(self._root, depth=1, leaves=leaves, is_root=True)
        if len(leaves) != self._num_leaves:
            raise IndexStructureError(
                f"leaf counter {self._num_leaves} != actual {len(leaves)}"
            )
        # Leaf chain covers all leaves in order.
        chained = []
        node: _Node | None = leaves[0] if leaves else None
        while node is not None:
            chained.append(node)
            node = node.next
        if [id(n) for n in chained] != [id(n) for n in leaves]:
            raise IndexStructureError("leaf chain does not match leaf order")
        flat = [ckey for leaf in leaves for ckey in leaf.keys]
        if flat != sorted(flat):
            raise IndexStructureError("entries are not globally sorted")
        if len(flat) != self._num_entries:
            raise IndexStructureError(
                f"entry counter {self._num_entries} != actual {len(flat)}"
            )

    def _check_node(
        self, node: _Node, depth: int, leaves: list[_Node], is_root: bool
    ) -> None:
        if node.leaf:
            if depth != self._height:
                raise IndexStructureError("leaves at differing depths")
            if not is_root and len(node.keys) < self.min_entries:
                raise IndexStructureError("underfull leaf")
            if len(node.keys) > self.max_entries:
                raise IndexStructureError("overfull leaf")
            leaves.append(node)
            return
        if not is_root and len(node.keys) < self.min_entries:
            raise IndexStructureError("underfull internal node")
        if len(node.keys) > self.max_entries:
            raise IndexStructureError("overfull internal node")
        if len(node.children) != len(node.keys) + 1:
            raise IndexStructureError("internal fan-out mismatch")
        if node.keys != sorted(node.keys):
            raise IndexStructureError("internal keys unsorted")
        for child in node.children:
            self._check_node(child, depth + 1, leaves, is_root=False)
