"""Tests for STR bulk loading."""

import pytest

from repro.index.geometry import Rect
from repro.index.str_pack import str_bulk_load


def pairs_1d(rng, n):
    lows = rng.uniform(0, 1000, n)
    widths = rng.uniform(0, 10, n)
    return [(Rect.interval(lo, lo + w), i) for i, (lo, w) in enumerate(zip(lows, widths))]


def pairs_2d(rng, n):
    lows = rng.uniform(0, 1000, (n, 2))
    widths = rng.uniform(0, 10, (n, 2))
    return [(Rect(lo, lo + w), i) for i, (lo, w) in enumerate(zip(lows, widths))]


def leaf_items(root):
    """The items under ``root``, in leaf order."""
    if root.is_leaf:
        return [entry.item for entry in root.entries]
    return [item for entry in root.entries for item in leaf_items(entry.child)]


def leaf_depths(node, max_entries, depth=0):
    """Every leaf's depth; asserts each node's fill and that each inner
    entry's rectangle is its child's MBR on the way down."""
    assert 1 <= len(node) <= max_entries
    if node.is_leaf:
        return {depth}
    depths = set()
    for entry in node.entries:
        assert entry.rect == entry.child.mbr()
        depths |= leaf_depths(entry.child, max_entries, depth + 1)
    return depths


class TestBulkLoad:
    def test_empty(self):
        root = str_bulk_load([])
        assert len(root) == 0
        assert root.is_leaf

    def test_single_leaf(self, rng):
        root = str_bulk_load(pairs_1d(rng, 5), max_entries=8)
        assert len(root) == 5
        assert root.is_leaf

    @pytest.mark.parametrize("n", [9, 17, 64, 100, 257, 1000])
    def test_invariants_across_sizes_1d(self, rng, n):
        root = str_bulk_load(pairs_1d(rng, n), max_entries=8)
        assert len(leaf_depths(root, 8)) == 1
        assert sorted(leaf_items(root)) == list(range(n))

    @pytest.mark.parametrize("n", [65, 250, 777])
    def test_invariants_across_sizes_2d(self, rng, n):
        root = str_bulk_load(pairs_2d(rng, n), max_entries=10)
        assert len(leaf_depths(root, 10)) == 1
        assert sorted(leaf_items(root)) == list(range(n))
