"""The packed descent ≡ the ``(B, N)`` MBR sweep, for all three families.

``BatchMbrFilter.matrices`` plus the reductions the query paths used to
run over it are the reference: C-PNN keeps ``mindist <= min maxdist``,
k-NN keeps ``mindist <= np.partition(maxdist, k - 1)[k - 1]``, range
keeps ``mindist <= radius``.  The descent must return the same
survivors in the same (object) order and the same radii, bit for bit
(``np.array_equal`` / ``==``, never a tolerance), on fresh filters and
across any interleaving of ``append`` / ``remove_at`` / ``replace_at``.
``PnnFilter`` over a ``str_bulk_load`` tree runs the same C-PNN descent
in the tree's leaf order, which is ``str_pack_levels``' ``order`` read
depth-first through the packed levels.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.index.filtering import BatchMbrFilter, PnnFilter, filter_candidates
from repro.index.geometry import Rect
from repro.index.str_pack import str_bulk_load, str_pack_levels

FANOUTS = st.sampled_from([2, 4, 16])
COORD = st.integers(-20, 20).map(float)
#: Zero-width and repeated extents make duplicate / degenerate MBRs common.
EXTENT = st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0])


class Item:
    def __init__(self, lows, highs):
        self.mbr = Rect(lows, highs)

    def mindist(self, q):
        return self.mbr.mindist(q)

    def maxdist(self, q):
        return self.mbr.maxdist(q)


@st.composite
def items(draw, dim, min_size=1, max_size=80):
    n = draw(st.integers(min_size, max_size))
    out = []
    for _ in range(n):
        lows = [draw(COORD) for _ in range(dim)]
        out.append(Item(lows, [lo + draw(EXTENT) for lo in lows]))
    # an exact duplicate of the first box
    if draw(st.booleans()):
        out.append(Item(out[0].mbr.lows, out[0].mbr.highs))
    return out


def query_points(draw, objects, dim, count):
    """Points on a box edge, on a box centre, and anywhere."""
    points = []
    for _ in range(count):
        obj = objects[draw(st.integers(0, len(objects) - 1))]
        lows, highs = np.asarray(obj.mbr.lows), np.asarray(obj.mbr.highs)
        kind = draw(st.sampled_from(["edge", "centre", "anywhere"]))
        if kind == "edge":
            point = np.where(draw(st.booleans()), lows, highs)
        elif kind == "centre":
            point = 0.5 * (lows + highs)
        else:
            point = np.array([draw(st.floats(-30, 30)) for _ in range(dim)])
        points.append(float(point[0]) if dim == 1 else tuple(point.tolist()))
    return points


def assert_matches_sweep(flt, objects, points, ks, radii, reference=None):
    """All three families against the sweep reductions of ``matrices``
    (of ``reference``, a fresh filter, when given)."""
    mindist, maxdist = (reference or flt).matrices(points)
    for b, (got, (survivors, fmin_k), (inside, near, far)) in enumerate(
        zip(flt(points), flt.kth_filter(points, ks), flt.range_filter(points, radii))
    ):
        fmin = maxdist[b].min()
        assert got.fmin == fmin
        assert got.candidates == tuple(
            objects[i] for i in np.flatnonzero(mindist[b] <= fmin)
        )
        want_k = np.partition(maxdist[b], ks[b] - 1)[ks[b] - 1]
        assert fmin_k == want_k
        assert np.array_equal(survivors, np.flatnonzero(mindist[b] <= want_k))
        want_in = np.flatnonzero(mindist[b] <= radii[b])
        assert np.array_equal(inside, want_in)
        assert np.array_equal(near, mindist[b][want_in])
        assert np.array_equal(far, maxdist[b][want_in])


@settings(max_examples=120, deadline=None)
@given(st.data(), st.integers(1, 2), FANOUTS, st.sampled_from([1, 2, 37]))
def test_descent_matches_sweep(data, dim, fanout, n_points):
    """Fresh filters, lone-leaf roots (N <= fanout) included; k mixed
    within one batch, with k = 1 and k = N always present."""
    objects = data.draw(items(dim, max_size=data.draw(st.sampled_from([fanout, 80]))))
    n = len(objects)
    points = query_points(data.draw, objects, dim, n_points)
    ks = [data.draw(st.integers(1, n)) for _ in points]
    if n_points > 1:
        ks[0], ks[-1] = 1, n
    else:
        ks[0] = data.draw(st.sampled_from([1, n]))
    radii = [data.draw(st.sampled_from([0.0, 1.0, 4.5, 60.0])) for _ in points]
    flt = BatchMbrFilter(objects, max_entries=fanout)
    assert_matches_sweep(flt, objects, points, ks, radii)


intervals = st.tuples(
    st.floats(-100, 100), st.floats(0, 20)
).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=30, deadline=None)
@given(st.lists(intervals, min_size=1, max_size=50), st.floats(-120, 120))
def test_filter_equivalence_rtree_vs_scan(pairs, q):
    """The tree filter and the per-rectangle scan agree on ``fmin`` and
    survivors."""
    rects = [Rect.interval(lo, hi) for lo, hi in pairs]
    tree = str_bulk_load(list(zip(rects, range(len(rects)))), max_entries=4)
    result = PnnFilter(tree)(q)
    fmin = min(r.maxdist(q) for r in rects)
    assert np.isclose(result.fmin, fmin)
    expected = {i for i, r in enumerate(rects) if r.mindist(q) <= fmin}
    assert set(result.candidates) == expected


def leaf_items(root):
    """The items under ``root``, in leaf order."""
    if root.is_leaf:
        return [entry.item for entry in root.entries]
    return [item for entry in root.entries for item in leaf_items(entry.child)]


def leaf_rows(levels, rows=None, depth=0):
    """The packed leaf rows, read depth-first from the root's entries."""
    lows, _, start, count = levels[depth]
    rows = range(lows.shape[0]) if rows is None else rows
    if start is None:
        return list(rows)
    children = (range(start[row], start[row] + count[row]) for row in rows)
    return [leaf for child in children for leaf in leaf_rows(levels, child, depth + 1)]


@settings(max_examples=120, deadline=None)
@given(st.data(), st.integers(1, 2), st.integers(2, 16))
def test_tree_descent_matches_matrix_sweep(data, dim, fanout):
    """``PnnFilter(str_bulk_load(...))`` ≡ the matrix sweep ≡ the linear
    scan ≡ the engine's packed filter, on ``fmin`` and on the candidate
    *tuple*.  The packed levels are the tree: read depth-first, their
    leaf rows' ``order`` is its leaf order, the tree filter's order."""
    objects = data.draw(items(dim, max_size=data.draw(st.sampled_from([40, 500]))))
    root = str_bulk_load([(obj.mbr, obj) for obj in objects], max_entries=fanout)
    packed = BatchMbrFilter(objects, max_entries=fanout)
    levels, order = str_pack_levels(*packed.coordinates(), fanout)
    order = order[leaf_rows(levels)]
    assert leaf_items(root) == [objects[i] for i in order]
    from_tree = PnnFilter(root)
    for q in query_points(data.draw, objects, dim, 2):
        mindist, maxdist = packed.matrices([q])
        fmin = maxdist.min()
        keep = mindist[0] <= fmin
        scan = filter_candidates(objects, q)
        assert scan.fmin == fmin
        assert scan.candidates == tuple(objects[i] for i in np.flatnonzero(keep))
        (got,) = packed([q])
        assert got.fmin == fmin
        assert got.candidates == scan.candidates
        descended = from_tree(q)
        assert descended.fmin == fmin
        assert descended.candidates == tuple(objects[i] for i in order if keep[i])


class MutatedFilter(RuleBasedStateMachine):
    """Interleave ``append`` / ``remove_at`` / ``replace_at`` with
    queries of all three families; every query must match the sweep of
    a freshly built filter over the current objects."""

    @initialize(
        dim=st.integers(1, 2), fanout=FANOUTS, data=st.data()
    )
    def build(self, dim, fanout, data):
        self.dim = dim
        self.objects = data.draw(items(dim, max_size=40))
        self.moved = []  # replaced boxes: widening shows at them
        self.flt = BatchMbrFilter(self.objects, max_entries=fanout)

    def draw_item(self, data):
        return data.draw(items(self.dim, max_size=1))[0]

    @rule(data=st.data())
    def append(self, data):
        obj = self.draw_item(data)
        self.flt.append(obj)
        self.objects.append(obj)

    @precondition(lambda self: len(self.objects) > 1)
    @rule(data=st.data())
    def remove(self, data):
        index = data.draw(st.integers(0, len(self.objects) - 1))
        self.flt.remove_at(index)
        del self.objects[index]

    @rule(data=st.data())
    def replace(self, data):
        index = data.draw(st.integers(0, len(self.objects) - 1))
        obj = self.draw_item(data)
        self.flt.replace_at(index, obj)
        self.objects[index] = obj
        self.moved.append(obj)

    @rule(data=st.data(), n_points=st.sampled_from([1, 2, 37]))
    def query(self, data, n_points):
        n = len(self.objects)
        points = query_points(data.draw, self.objects, self.dim, n_points)
        if self.moved:
            points[0] = query_points(data.draw, self.moved[-1:], self.dim, 1)[0]
        ks = [data.draw(st.integers(1, n)) for _ in points]
        radii = [data.draw(st.sampled_from([0.0, 2.0, 60.0])) for _ in points]
        fresh = BatchMbrFilter(self.objects)
        assert_matches_sweep(self.flt, self.objects, points, ks, radii, fresh)

    @invariant()
    def rows_follow_objects(self):
        if hasattr(self, "flt"):
            assert self.flt.objects == tuple(self.objects)


TestMutatedFilter = MutatedFilter.TestCase
TestMutatedFilter.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
