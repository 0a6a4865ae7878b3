"""Property-based tests for the R-tree: equivalence with linear scan
under arbitrary insert/delete interleavings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.geometry import Rect
from repro.index.rtree import RTree
from repro.index.str_pack import str_bulk_load

intervals = st.tuples(
    st.floats(-100, 100), st.floats(0, 20)
).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=40, deadline=None)
@given(st.lists(intervals, min_size=1, max_size=60), st.integers(2, 6))
def test_dynamic_tree_matches_linear_scan(pairs, fanout_half):
    tree = RTree(max_entries=2 * fanout_half)
    rects = []
    for i, (lo, hi) in enumerate(pairs):
        rect = Rect.interval(lo, hi)
        tree.insert(rect, i)
        rects.append(rect)
    tree.check_invariants()
    window = Rect.interval(-20, 20)
    expected = {i for i, r in enumerate(rects) if r.intersects(window)}
    assert set(tree.search(window)) == expected
    q = 0.0
    assert tree.nearest_maxdist(q) == min(r.maxdist(q) for r in rects)


@settings(max_examples=40, deadline=None)
@given(st.lists(intervals, min_size=1, max_size=80), st.integers(2, 8))
def test_bulk_load_matches_dynamic(pairs, fanout_half):
    fanout = 2 * fanout_half
    packed = str_bulk_load(
        [(Rect.interval(lo, hi), i) for i, (lo, hi) in enumerate(pairs)],
        max_entries=fanout,
    )
    packed.check_invariants()
    assert len(packed) == len(pairs)
    window = Rect.interval(-50, 0)
    expected = {
        i for i, (lo, hi) in enumerate(pairs)
        if Rect.interval(lo, hi).intersects(window)
    }
    assert set(packed.search(window)) == expected


@settings(max_examples=30, deadline=None)
@given(
    st.lists(intervals, min_size=4, max_size=40),
    st.lists(st.integers(0, 1_000_000), min_size=1, max_size=20),
)
def test_deletions_preserve_invariants_and_content(pairs, delete_picks):
    tree = RTree(max_entries=4)
    rects = {}
    for i, (lo, hi) in enumerate(pairs):
        rect = Rect.interval(lo, hi)
        tree.insert(rect, i)
        rects[i] = rect
    for pick in delete_picks:
        if not rects:
            break
        victim = sorted(rects)[pick % len(rects)]
        assert tree.delete(rects.pop(victim), lambda item: item == victim)
    tree.check_invariants()
    assert set(tree.items()) == set(rects)


@settings(max_examples=30, deadline=None)
@given(st.lists(intervals, min_size=1, max_size=50), st.floats(-120, 120))
def test_filter_equivalence_rtree_vs_scan(pairs, q):
    """The two filtering implementations agree on fmin and survivors."""
    from repro.index.filtering import PnnFilter

    rects = [Rect.interval(lo, hi) for lo, hi in pairs]
    tree = str_bulk_load(list(zip(rects, range(len(rects)))), max_entries=4)
    result = PnnFilter(tree)(q)
    fmin = min(r.maxdist(q) for r in rects)
    assert np.isclose(result.fmin, fmin)
    expected = {i for i, r in enumerate(rects) if r.mindist(q) <= fmin}
    assert set(result.candidates) == expected


@st.composite
def boxes(draw):
    """1-D or 2-D MBRs on a coarse grid, so duplicates, zero-width
    boxes and shared endpoints are common."""
    dim = draw(st.integers(1, 2))
    coord = st.integers(-20, 20).map(float)
    extent = st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0])
    n = draw(st.integers(1, 500) if draw(st.booleans()) else st.integers(1, 40))
    lows = np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                  min_size=n, max_size=n)))
    highs = lows + np.array(draw(st.lists(st.lists(extent, min_size=dim, max_size=dim),
                                          min_size=n, max_size=n)))
    return lows, highs


@settings(max_examples=120, deadline=None)
@given(boxes(), st.integers(2, 16), st.data())
def test_descent_matches_best_first_and_matrix_sweep(box_arrays, fanout, data):
    """The level-synchronous descent ≡ the two best-first traversals ≡
    the matrix sweep, and the engine's packed filter ≡ the sweep's
    reductions — on ``fmin`` and on the candidate *tuple*."""
    from repro.index.filtering import BatchMbrFilter, PnnFilter

    class Item:
        def __init__(self, mbr):
            self.mbr = mbr

    lows, highs = box_arrays
    n, dim = lows.shape
    items = [Item(Rect(lo, hi)) for lo, hi in zip(lows, highs)]
    tree = str_bulk_load([(item.mbr, item) for item in items], max_entries=fanout)
    from_tree = PnnFilter(tree)
    packed = BatchMbrFilter(items, max_entries=fanout)
    endpoint = lows[data.draw(st.integers(0, n - 1))]
    anywhere = data.draw(st.lists(st.floats(-30, 30), min_size=dim, max_size=dim))
    for q in (tuple(endpoint), tuple(anywhere)):
        descended = from_tree(q)
        fmin = tree.nearest_maxdist(q)
        assert descended.fmin == fmin
        best_first = tree.within_mindist(q, fmin)
        assert len(descended.candidates) == len(best_first)
        assert set(map(id, descended.candidates)) == set(map(id, best_first))
        mindist, maxdist = packed.matrices([q])
        assert maxdist.min() == fmin
        (got,) = packed([q])
        assert got.fmin == fmin
        assert got.candidates == tuple(
            items[i] for i in np.flatnonzero(mindist[0] <= fmin)
        )
        assert set(map(id, got.candidates)) == set(map(id, best_first))
        assert descended.stats.entries_scanned >= len(best_first)
        assert descended.stats.nodes_visited >= tree.height()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(intervals, min_size=2, max_size=40),
    st.lists(st.integers(0, 1_000_000), min_size=1, max_size=12),
    st.floats(-120, 120),
)
def test_tree_filter_resnapshots_after_mutation(pairs, picks, q):
    """``PnnFilter(tree)`` follows the tree through inserts and deletes."""
    from repro.index.filtering import PnnFilter

    rects = {i: Rect.interval(lo, hi) for i, (lo, hi) in enumerate(pairs)}
    tree = str_bulk_load([(rect, i) for i, rect in rects.items()], max_entries=4)
    tree_filter = PnnFilter(tree)
    for step, pick in enumerate(picks):
        if pick % 2 and len(rects) > 1:
            victim = sorted(rects)[pick % len(rects)]
            assert tree.delete(rects.pop(victim), lambda item: item == victim)
        else:
            key = len(pairs) + step
            rects[key] = Rect.interval(q + pick % 7, q + pick % 7 + 1.0)
            tree.insert(rects[key], key)
        result = tree_filter(q)
        fmin = min(rect.maxdist(q) for rect in rects.values())
        assert result.fmin == fmin
        assert set(result.candidates) == {
            i for i, rect in rects.items() if rect.mindist(q) <= fmin
        }
