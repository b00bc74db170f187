"""Guttman R-tree for spatial data.

The MoodView front end ships "a graphical indexing tool for the spatial
data, i.e., R Trees" (abstract and Section 9).  This is a classic Guttman
R-tree with quadratic split: insert, delete with tree condensation, window
(range) queries, and a best-first nearest-neighbour search.

Node accesses are reported to an optional accountant, like the other index
structures, so spatial probes participate in I/O accounting.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.core.errors import IndexStructureError


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle (a point is a degenerate rectangle)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise IndexStructureError(f"degenerate rectangle {self}")

    @classmethod
    def point(cls, x: float, y: float) -> "Rect":
        return cls(x, y, x, y)

    def area(self) -> float:
        return (self.max_x - self.min_x) * (self.max_y - self.min_y)

    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def intersects(self, other: "Rect") -> bool:
        return not (
            self.max_x < other.min_x
            or other.max_x < self.min_x
            or self.max_y < other.min_y
            or other.max_y < self.min_y
        )

    def contains(self, other: "Rect") -> bool:
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    def enlargement(self, other: "Rect") -> float:
        return self.union(other).area() - self.area()

    def min_distance_to(self, x: float, y: float) -> float:
        """Minimum Euclidean distance from a point to this rectangle."""
        dx = max(self.min_x - x, 0.0, x - self.max_x)
        dy = max(self.min_y - y, 0.0, y - self.max_y)
        return (dx * dx + dy * dy) ** 0.5


class _RNode:
    __slots__ = ("leaf", "entries")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        # leaf: list of (Rect, value); internal: list of (Rect, _RNode)
        self.entries: list[tuple[Rect, Any]] = []

    def mbr(self) -> Rect:
        rect = self.entries[0][0]
        for other, _ in self.entries[1:]:
            rect = rect.union(other)
        return rect


@dataclass
class RTreeStats:
    node_reads: int = 0
    splits: int = 0

    def reset(self) -> None:
        self.node_reads = 0
        self.splits = 0


class RTree:
    """Guttman R-tree with quadratic split."""

    def __init__(
        self,
        max_entries: int = 8,
        on_node_access: Callable[[], None] | None = None,
    ):
        if max_entries < 2:
            raise IndexStructureError("R-tree nodes need at least 2 entries")
        self.max_entries = max_entries
        self.min_entries = max(1, max_entries // 2)
        self.stats = RTreeStats()
        self._on_node_access = on_node_access
        self._root = _RNode(leaf=True)
        self._num_entries = 0
        self._height = 1

    def __len__(self) -> int:
        return self._num_entries

    @property
    def height(self) -> int:
        return self._height

    def _visit(self, node: _RNode) -> None:
        self.stats.node_reads += 1
        if self._on_node_access is not None:
            self._on_node_access()

    # -- insertion ---------------------------------------------------------

    def insert(self, rect: Rect, value: Any) -> None:
        split = self._insert_into(self._root, rect, value, leaf_level=True)
        if split is not None:
            old_root = self._root
            self._root = _RNode(leaf=False)
            self._root.entries = [(old_root.mbr(), old_root), (split.mbr(), split)]
            self._height += 1
        self._num_entries += 1

    def _insert_into(
        self, node: _RNode, rect: Rect, value: Any, leaf_level: bool
    ) -> _RNode | None:
        self._visit(node)
        if node.leaf:
            node.entries.append((rect, value))
            if len(node.entries) > self.max_entries:
                return self._split(node)
            return None
        index = self._choose_subtree(node, rect)
        child_rect, child = node.entries[index]
        split = self._insert_into(child, rect, value, leaf_level)
        node.entries[index] = (child.mbr(), child)
        if split is not None:
            node.entries.append((split.mbr(), split))
            if len(node.entries) > self.max_entries:
                return self._split(node)
        return None

    def _choose_subtree(self, node: _RNode, rect: Rect) -> int:
        best_index = 0
        best = (float("inf"), float("inf"))
        for index, (child_rect, _) in enumerate(node.entries):
            candidate = (child_rect.enlargement(rect), child_rect.area())
            if candidate < best:
                best = candidate
                best_index = index
        return best_index

    def _split(self, node: _RNode) -> _RNode:
        """Guttman quadratic split; ``node`` keeps one group, returns the other."""
        self.stats.splits += 1
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rect_a = entries[seed_a][0]
        rect_b = entries[seed_b][0]
        remaining = [e for i, e in enumerate(entries) if i not in (seed_a, seed_b)]
        while remaining:
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                remaining = []
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                remaining = []
                break
            index = self._pick_next(remaining, rect_a, rect_b)
            rect, payload = remaining.pop(index)
            if self._prefers_a(rect, rect_a, rect_b, group_a, group_b):
                group_a.append((rect, payload))
                rect_a = rect_a.union(rect)
            else:
                group_b.append((rect, payload))
                rect_b = rect_b.union(rect)
        node.entries = group_a
        sibling = _RNode(leaf=node.leaf)
        sibling.entries = group_b
        return sibling

    @staticmethod
    def _pick_seeds(entries: list[tuple[Rect, Any]]) -> tuple[int, int]:
        worst = -1.0
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                rect_i, rect_j = entries[i][0], entries[j][0]
                waste = rect_i.union(rect_j).area() - rect_i.area() - rect_j.area()
                if waste > worst:
                    worst = waste
                    seeds = (i, j)
        return seeds

    @staticmethod
    def _pick_next(
        remaining: list[tuple[Rect, Any]], rect_a: Rect, rect_b: Rect
    ) -> int:
        best_index = 0
        best_diff = -1.0
        for index, (rect, _) in enumerate(remaining):
            diff = abs(rect_a.enlargement(rect) - rect_b.enlargement(rect))
            if diff > best_diff:
                best_diff = diff
                best_index = index
        return best_index

    @staticmethod
    def _prefers_a(
        rect: Rect,
        rect_a: Rect,
        rect_b: Rect,
        group_a: list,
        group_b: list,
    ) -> bool:
        enlarge_a = rect_a.enlargement(rect)
        enlarge_b = rect_b.enlargement(rect)
        if enlarge_a != enlarge_b:
            return enlarge_a < enlarge_b
        if rect_a.area() != rect_b.area():
            return rect_a.area() < rect_b.area()
        return len(group_a) <= len(group_b)

    # -- queries --------------------------------------------------------------

    def search(self, window: Rect) -> list[tuple[Rect, Any]]:
        """All ``(rect, value)`` entries intersecting the query window."""
        results: list[tuple[Rect, Any]] = []
        self._search_node(self._root, window, results)
        return results

    def _search_node(
        self, node: _RNode, window: Rect, results: list[tuple[Rect, Any]]
    ) -> None:
        self._visit(node)
        for rect, payload in node.entries:
            if not rect.intersects(window):
                continue
            if node.leaf:
                results.append((rect, payload))
            else:
                self._search_node(payload, window, results)

    def nearest(self, x: float, y: float, k: int = 1) -> list[tuple[Rect, Any]]:
        """Best-first k-nearest-neighbour search from a point."""
        if k < 1:
            return []
        heap: list[tuple[float, int, bool, Any, Rect | None]] = []
        counter = 0
        heapq.heappush(heap, (0.0, counter, False, self._root, None))
        results: list[tuple[Rect, Any]] = []
        while heap and len(results) < k:
            distance, _, is_entry, payload, rect = heapq.heappop(heap)
            if is_entry:
                assert rect is not None
                results.append((rect, payload))
                continue
            node: _RNode = payload
            self._visit(node)
            for entry_rect, entry_payload in node.entries:
                counter += 1
                entry_distance = entry_rect.min_distance_to(x, y)
                heapq.heappush(
                    heap,
                    (entry_distance, counter, node.leaf, entry_payload, entry_rect),
                )
        return results

    def all_entries(self) -> Iterator[tuple[Rect, Any]]:
        stack = [self._root]
        while stack:
            node = stack.pop()
            for rect, payload in node.entries:
                if node.leaf:
                    yield rect, payload
                else:
                    stack.append(payload)

    # -- deletion -----------------------------------------------------------

    def delete(self, rect: Rect, value: Any) -> bool:
        """Remove an exact ``(rect, value)`` entry, condensing the tree."""
        orphans: list[tuple[Rect, Any]] = []
        removed = self._delete_from(self._root, rect, value, orphans)
        if not removed:
            return False
        if not self._root.leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0][1]
            self._height -= 1
        if not self._root.entries and not self._root.leaf:
            self._root = _RNode(leaf=True)
            self._height = 1
        self._num_entries -= 1
        for orphan_rect, orphan_value in orphans:
            self._num_entries -= 1  # insert() re-increments
            self.insert(orphan_rect, orphan_value)
        return True

    def _delete_from(
        self,
        node: _RNode,
        rect: Rect,
        value: Any,
        orphans: list[tuple[Rect, Any]],
    ) -> bool:
        self._visit(node)
        if node.leaf:
            for index, (entry_rect, entry_value) in enumerate(node.entries):
                if entry_rect == rect and entry_value == value:
                    node.entries.pop(index)
                    return True
            return False
        for index, (entry_rect, child) in enumerate(node.entries):
            if not entry_rect.intersects(rect):
                continue
            if self._delete_from(child, rect, value, orphans):
                if len(child.entries) < self.min_entries:
                    # Condense: orphan the undersized child's leaf entries.
                    node.entries.pop(index)
                    for leaf_rect, leaf_value in self._leaf_entries(child):
                        orphans.append((leaf_rect, leaf_value))
                else:
                    node.entries[index] = (child.mbr(), child)
                return True
        return False

    def _leaf_entries(self, node: _RNode) -> Iterator[tuple[Rect, Any]]:
        if node.leaf:
            yield from node.entries
        else:
            for _, child in node.entries:
                yield from self._leaf_entries(child)

    # -- structural checking (used by tests) ---------------------------------

    def check_invariants(self) -> None:
        count = self._check_node(self._root, depth=1, is_root=True)
        if count != self._num_entries:
            raise IndexStructureError(
                f"entry counter {self._num_entries} != actual {count}"
            )

    def _check_node(self, node: _RNode, depth: int, is_root: bool) -> int:
        if len(node.entries) > self.max_entries:
            raise IndexStructureError("overfull R-tree node")
        if not is_root and len(node.entries) < self.min_entries:
            raise IndexStructureError("underfull R-tree node")
        if node.leaf:
            if depth != self._height:
                raise IndexStructureError("R-tree leaves at differing depths")
            return len(node.entries)
        count = 0
        for rect, child in node.entries:
            if rect != child.mbr():
                raise IndexStructureError("stale MBR in internal node")
            count += self._check_node(child, depth + 1, is_root=False)
        return count
