"""A classic R-tree (Guttman) with quadratic split.

This is the index substrate the paper's filtering phase relies on
(references [8] and [18]).  It supports insertion, deletion with
re-insertion, rectangle range search, point stabbing, and the two
best-first traversals the PNN filter needs (see
:mod:`repro.index.filtering`).

The tree stores arbitrary items; each item is indexed by the
:class:`~repro.index.geometry.Rect` supplied at insertion time (for
uncertain objects, the MBR of their uncertainty region).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator, Sequence

from repro.index.geometry import Rect

__all__ = ["RTree", "RTreeEntry", "RTreeNode", "RTreeStats"]


class RTreeEntry:
    """A node slot: a rectangle plus either a child node or a leaf item."""

    __slots__ = ("rect", "child", "item")

    def __init__(self, rect: Rect, child: "RTreeNode | None" = None, item=None):
        self.rect = rect
        self.child = child
        self.item = item

    @property
    def is_leaf_entry(self) -> bool:
        return self.child is None

    def __repr__(self) -> str:  # pragma: no cover
        kind = "item" if self.is_leaf_entry else "child"
        return f"RTreeEntry({self.rect!r}, {kind})"


class RTreeNode:
    """An R-tree node holding up to ``max_entries`` entries."""

    __slots__ = ("entries", "is_leaf", "parent")

    def __init__(self, is_leaf: bool) -> None:
        self.entries: list[RTreeEntry] = []
        self.is_leaf = is_leaf
        self.parent: "RTreeNode | None" = None

    def mbr(self) -> Rect:
        return Rect.union_of(entry.rect for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


class RTreeStats:
    """Counters describing the work done by the most recent traversal."""

    __slots__ = ("nodes_visited", "entries_scanned")

    def __init__(self) -> None:
        self.nodes_visited = 0
        self.entries_scanned = 0

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"RTreeStats(nodes_visited={self.nodes_visited}, "
            f"entries_scanned={self.entries_scanned})"
        )


class RTree:
    """Dynamic R-tree with Guttman's quadratic split.

    Parameters
    ----------
    max_entries:
        Node capacity; nodes split when it is exceeded.
    min_entries:
        Minimum fill after a split / before condensation.  Defaults to
        ``max_entries // 2`` (at least 1).
    """

    def __init__(self, max_entries: int = 8, min_entries: int | None = None) -> None:
        if max_entries < 2:
            raise ValueError("max_entries must be >= 2")
        self._max = int(max_entries)
        self._min = int(min_entries) if min_entries is not None else max(1, self._max // 2)
        if not 1 <= self._min <= self._max // 2:
            raise ValueError("min_entries must satisfy 1 <= min <= max/2")
        self._root = RTreeNode(is_leaf=True)
        self._size = 0
        #: Mutation counter: lets an array snapshot notice it is stale.
        self.version = 0

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def max_entries(self) -> int:
        return self._max

    @property
    def min_entries(self) -> int:
        return self._min

    def __len__(self) -> int:
        return self._size

    @property
    def root(self) -> RTreeNode:
        return self._root

    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        height = 1
        node = self._root
        while not node.is_leaf:
            node = node.entries[0].child  # type: ignore[assignment]
            height += 1
        return height

    def items(self) -> Iterator:
        """All stored items, in arbitrary order."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            for entry in node.entries:
                if node.is_leaf:
                    yield entry.item
                else:
                    stack.append(entry.child)  # type: ignore[arg-type]

    def mbr(self) -> Rect | None:
        """Bounding rectangle of the whole tree, or None when empty."""
        if not self._root.entries:
            return None
        return self._root.mbr()

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def insert(self, rect: Rect, item) -> None:
        """Insert ``item`` with bounding rectangle ``rect``."""
        self._insert_entry(RTreeEntry(rect, item=item))
        self._size += 1
        self.version += 1

    def _insert_entry(self, entry: RTreeEntry) -> None:
        leaf = self._choose_leaf(self._root, entry.rect)
        leaf.entries.append(entry)
        self._handle_overflow(leaf)

    def _choose_leaf(self, node: RTreeNode, rect: Rect) -> RTreeNode:
        while not node.is_leaf:
            best = min(
                node.entries,
                key=lambda e: (e.rect.enlargement(rect), e.rect.area()),
            )
            best.rect = best.rect.union(rect)
            node = best.child  # type: ignore[assignment]
        return node

    def _handle_overflow(self, node: RTreeNode) -> None:
        while len(node.entries) > self._max:
            sibling = self._split(node)
            parent = node.parent
            if parent is None:
                new_root = RTreeNode(is_leaf=False)
                for child in (node, sibling):
                    child.parent = new_root
                    new_root.entries.append(
                        RTreeEntry(child.mbr(), child=child)
                    )
                self._root = new_root
                return
            self._replace_child_rect(parent, node)
            sibling.parent = parent
            parent.entries.append(RTreeEntry(sibling.mbr(), child=sibling))
            node = parent

    @staticmethod
    def _replace_child_rect(parent: RTreeNode, child: RTreeNode) -> None:
        for entry in parent.entries:
            if entry.child is child:
                entry.rect = child.mbr()
                return
        raise AssertionError("child not found in its parent")  # pragma: no cover

    def _split(self, node: RTreeNode) -> RTreeNode:
        """Quadratic split: returns the new sibling node."""
        entries = node.entries
        seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        rect_a = entries[seed_a].rect
        rect_b = entries[seed_b].rect
        remaining = [
            entry for i, entry in enumerate(entries) if i not in (seed_a, seed_b)
        ]
        while remaining:
            # Force assignment when one group must absorb all leftovers.
            if len(group_a) + len(remaining) == self._min:
                group_a.extend(remaining)
                rect_a = Rect.union_of([rect_a] + [e.rect for e in remaining])
                remaining = []
                break
            if len(group_b) + len(remaining) == self._min:
                group_b.extend(remaining)
                rect_b = Rect.union_of([rect_b] + [e.rect for e in remaining])
                remaining = []
                break
            entry, prefer_a = self._pick_next(remaining, rect_a, rect_b)
            remaining.remove(entry)
            if prefer_a:
                group_a.append(entry)
                rect_a = rect_a.union(entry.rect)
            else:
                group_b.append(entry)
                rect_b = rect_b.union(entry.rect)
        node.entries = group_a
        sibling = RTreeNode(is_leaf=node.is_leaf)
        sibling.entries = group_b
        if not sibling.is_leaf:
            for entry in sibling.entries:
                entry.child.parent = sibling  # type: ignore[union-attr]
        return sibling

    @staticmethod
    def _pick_seeds(entries: Sequence[RTreeEntry]) -> tuple[int, int]:
        worst_pair = (0, 1)
        worst_waste = -float("inf")
        for i, j in itertools.combinations(range(len(entries)), 2):
            union = entries[i].rect.union(entries[j].rect)
            waste = union.area() - entries[i].rect.area() - entries[j].rect.area()
            if waste > worst_waste:
                worst_waste = waste
                worst_pair = (i, j)
        return worst_pair

    @staticmethod
    def _pick_next(
        remaining: Sequence[RTreeEntry], rect_a: Rect, rect_b: Rect
    ) -> tuple[RTreeEntry, bool]:
        best_entry = remaining[0]
        best_diff = -1.0
        prefer_a = True
        for entry in remaining:
            growth_a = rect_a.enlargement(entry.rect)
            growth_b = rect_b.enlargement(entry.rect)
            diff = abs(growth_a - growth_b)
            if diff > best_diff:
                best_diff = diff
                best_entry = entry
                prefer_a = growth_a < growth_b or (
                    growth_a == growth_b and rect_a.area() <= rect_b.area()
                )
        return best_entry, prefer_a

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, rect: Rect, match: Callable[[object], bool]) -> bool:
        """Remove the first item under ``rect`` for which ``match`` holds.

        Returns True when an item was removed.  Underfull nodes are
        condensed and their remaining entries re-inserted, as in
        Guttman's original algorithm.
        """
        found = self._find_leaf(self._root, rect, match)
        if found is None:
            return False
        leaf, entry = found
        leaf.entries.remove(entry)
        self._condense(leaf)
        self._size -= 1
        self.version += 1
        if not self._root.is_leaf and len(self._root.entries) == 1:
            self._root = self._root.entries[0].child  # type: ignore[assignment]
            self._root.parent = None
        return True

    def _find_leaf(
        self, node: RTreeNode, rect: Rect, match: Callable[[object], bool]
    ) -> tuple[RTreeNode, RTreeEntry] | None:
        if node.is_leaf:
            for entry in node.entries:
                if entry.rect == rect and match(entry.item):
                    return node, entry
            return None
        for entry in node.entries:
            if entry.rect.contains(rect):
                found = self._find_leaf(entry.child, rect, match)  # type: ignore[arg-type]
                if found is not None:
                    return found
        return None

    def _condense(self, node: RTreeNode) -> None:
        orphans: list[RTreeEntry] = []
        orphan_levels: list[bool] = []
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self._min:
                for entry in parent.entries:
                    if entry.child is node:
                        parent.entries.remove(entry)
                        break
                orphans.extend(node.entries)
                orphan_levels.extend([node.is_leaf] * len(node.entries))
            else:
                self._replace_child_rect(parent, node)
            node = parent
        for entry, was_leaf in zip(orphans, orphan_levels):
            if was_leaf:
                self._insert_entry(entry)
            else:
                # Re-insert every item from the orphaned subtree.
                stack = [entry]
                while stack:
                    current = stack.pop()
                    if current.is_leaf_entry:
                        self._insert_entry(
                            RTreeEntry(current.rect, item=current.item)
                        )
                    else:
                        stack.extend(current.child.entries)  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def search(self, rect: Rect, stats: RTreeStats | None = None) -> list:
        """All items whose rectangle intersects ``rect``."""
        results: list = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if stats is not None:
                stats.nodes_visited += 1
            for entry in node.entries:
                if stats is not None:
                    stats.entries_scanned += 1
                if not entry.rect.intersects(rect):
                    continue
                if node.is_leaf:
                    results.append(entry.item)
                else:
                    stack.append(entry.child)  # type: ignore[arg-type]
        return results

    def stab(self, q, stats: RTreeStats | None = None) -> list:
        """All items whose rectangle contains the point ``q``."""
        return self.search(Rect.point(q), stats=stats)

    def nearest_maxdist(self, q, stats: RTreeStats | None = None) -> float:
        """``f_min``: the smallest over items of ``maxdist(q, item mbr)``.

        Best-first branch-and-bound: a subtree is pruned when its
        ``mindist`` already exceeds the best item ``maxdist`` found,
        since every item below has ``maxdist >= mindist(subtree)``.
        """
        if self._size == 0:
            raise ValueError("nearest_maxdist on an empty tree")
        best = float("inf")
        counter = itertools.count()
        heap: list[tuple[float, int, RTreeNode]] = [(0.0, next(counter), self._root)]
        while heap:
            mind, _, node = heapq.heappop(heap)
            if mind > best:
                break
            if stats is not None:
                stats.nodes_visited += 1
            for entry in node.entries:
                if stats is not None:
                    stats.entries_scanned += 1
                entry_mind = entry.rect.mindist(q)
                if entry_mind > best:
                    continue
                if node.is_leaf:
                    best = min(best, entry.rect.maxdist(q))
                else:
                    heapq.heappush(heap, (entry_mind, next(counter), entry.child))
        return best

    def within_mindist(
        self, q, radius: float, stats: RTreeStats | None = None
    ) -> list:
        """All items with ``mindist(q, item mbr) <= radius``."""
        results: list = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if stats is not None:
                stats.nodes_visited += 1
            for entry in node.entries:
                if stats is not None:
                    stats.entries_scanned += 1
                if entry.rect.mindist(q) > radius:
                    continue
                if node.is_leaf:
                    results.append(entry.item)
                else:
                    stack.append(entry.child)  # type: ignore[arg-type]
        return results

    # ------------------------------------------------------------------
    # Validation (used heavily by the test-suite)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError when any structural invariant is broken."""
        leaf_depths: set[int] = set()

        def visit(node: RTreeNode, depth: int, expected_parent: RTreeNode | None):
            assert node.parent is expected_parent, "broken parent pointer"
            if node is not self._root:
                assert len(node.entries) >= self._min, "underfull node"
            assert len(node.entries) <= self._max, "overfull node"
            if node.is_leaf:
                leaf_depths.add(depth)
                return
            assert node.entries, "empty internal node"
            for entry in node.entries:
                assert entry.child is not None, "internal entry without child"
                assert entry.rect.contains(entry.child.mbr()), "MBR does not cover child"
                visit(entry.child, depth + 1, node)

        visit(self._root, 0, None)
        assert len(leaf_depths) <= 1, "leaves at different depths"
        assert sum(1 for _ in self.items()) == self._size, "size counter drifted"
