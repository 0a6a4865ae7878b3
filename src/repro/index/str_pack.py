"""Sort-Tile-Recursive (STR) bulk loading.

Building a tree by repeated insertion is O(n log n) with large
constants and produces poor page utilisation; STR packs leaves at
~100% fill by tiling the space, which is how the spatial index library
the paper uses ([18]) bulk-loads static datasets such as Long Beach.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.index.geometry import Rect

__all__ = ["str_bulk_load", "str_pack_levels"]


class Entry:
    """A node slot: a rectangle plus either a child node or a leaf item."""

    __slots__ = ("rect", "child", "item")

    def __init__(self, rect: Rect, child: "Node | None" = None, item=None):
        self.rect = rect
        self.child = child
        self.item = item


class Node:
    """A tree node holding up to ``max_entries`` entries."""

    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.entries: list[Entry] = []
        self.is_leaf = is_leaf

    def mbr(self) -> Rect:
        return Rect.union_of(entry.rect for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def str_bulk_load(
    rects_and_items: Sequence[tuple[Rect, object]], max_entries: int = 8
) -> Node:
    """Build a static tree from ``(rect, item)`` pairs using STR packing.

    Returns the root :class:`Node` (an empty leaf for no pairs).  The
    tree is static: :class:`~repro.index.filtering.PnnFilter` snapshots
    it into arrays once.
    """
    entries = [Entry(rect, item=item) for rect, item in rects_and_items]
    if len(entries) <= max_entries:
        root = Node(is_leaf=True)
        root.entries = entries
        return root
    nodes = _pack_level(entries, max_entries, is_leaf=True)
    while len(nodes) > 1:
        upper_entries = [Entry(node.mbr(), child=node) for node in nodes]
        nodes = _pack_level(upper_entries, max_entries, is_leaf=False)
    return nodes[0]


def _pack_level(entries: list[Entry], max_entries: int, is_leaf: bool) -> list[Node]:
    """Tile one level of entries into nodes of up to ``max_entries``."""
    centers = np.array([entry.rect.center for entry in entries])
    order, sizes = _tile_rows(centers, np.arange(len(entries)), max_entries, 0)
    order = order.tolist()
    nodes: list[Node] = []
    first = 0
    for size in sizes:
        node = Node(is_leaf=is_leaf)
        node.entries = [entries[i] for i in order[first : first + size]]
        first += size
        nodes.append(node)
    return nodes


def str_pack_levels(
    lows: np.ndarray, highs: np.ndarray, max_entries: int
) -> tuple[list[tuple], np.ndarray]:
    """The tree :func:`str_bulk_load` would build, as per-level arrays.

    Returns ``(levels, order)``.  ``levels`` runs from the root's
    entries down to the leaf entries; each is ``(lows, highs,
    child_start, child_count)`` with the children of entry ``i`` at rows
    ``child_start[i] : child_start[i] + child_count[i]`` of the next
    level (``None, None`` at the leaves).  ``order[r]`` is the input row
    behind leaf row ``r``.  The tiling is the tree builder's
    (:func:`_tile_rows`), so the nodes and the order of each node's
    entries are the tree's; a level's rows, though, keep that level's
    tiling order, so the tree's leaf order is ``order`` read depth-first
    through ``child_start`` / ``child_count``, not ``order`` itself.
    The levels never alias the input.
    """
    n = lows.shape[0]
    if n <= max_entries:  # a lone leaf root keeps the input order
        return [(lows.copy(), highs.copy(), None, None)], np.arange(n)
    levels: list[tuple] = []
    start = count = order = None
    while True:
        perm, sizes = _tile_rows(
            0.5 * (lows + highs), np.arange(lows.shape[0]), max_entries, 0
        )
        lows, highs = lows[perm], highs[perm]
        if start is None:
            order = perm
        else:
            start, count = start[perm], count[perm]
        levels.append((lows, highs, start, count))
        if len(sizes) == 1:  # this node is the root
            return levels[::-1], order
        count = np.asarray(sizes, dtype=np.intp)
        start = np.cumsum(count) - count
        lows = np.minimum.reduceat(lows, start, axis=0)
        highs = np.maximum.reduceat(highs, start, axis=0)


def _tile_rows(
    centers: np.ndarray, rows: np.ndarray, max_entries: int, axis: int
) -> tuple[np.ndarray, list[int]]:
    """Sort ``rows`` by centre along ``axis`` (stably), cut them into
    slabs and recurse on the next axis; on the last axis cut into nodes.

    Returns the tiled row order plus the node sizes cutting it.  A runt
    final node (e.g. 8 + 8 + 1) takes rows from its predecessor so both
    hold at least ``max_entries // 2`` — that moves a boundary, never a
    row.
    """
    rows = rows[np.argsort(centers[rows, axis], kind="stable")]
    n = rows.size
    pages = math.ceil(n / max_entries)
    dim = centers.shape[1]
    if axis == dim - 1 or pages <= 1:
        sizes = [max_entries] * (n // max_entries)
        if n % max_entries:
            sizes.append(n % max_entries)
        min_fill = max(1, max_entries // 2)
        if len(sizes) >= 2 and sizes[-1] < min_fill:
            sizes[-2] -= min_fill - sizes[-1]
            sizes[-1] = min_fill
        return rows, sizes
    slabs = math.ceil(pages ** (1.0 / (dim - axis)))
    slab_size = max(math.ceil(n / slabs), max_entries)
    parts, sizes = [], []
    for first in range(0, n, slab_size):
        part, part_sizes = _tile_rows(
            centers, rows[first : first + slab_size], max_entries, axis + 1
        )
        parts.append(part)
        sizes.extend(part_sizes)
    return np.concatenate(parts), sizes
