"""The packed descent ≡ the ``(B, N)`` MBR sweep, for all three families.

``BatchMbrFilter.matrices`` plus the reductions the query paths used to
run over it are the reference: C-PNN keeps ``mindist <= min maxdist``,
k-NN keeps ``mindist <= np.partition(maxdist, k - 1)[k - 1]``, range
keeps ``mindist <= radius``.  The descent must return the same
survivors in the same (object) order and the same radii, bit for bit
(``np.array_equal`` / ``==``, never a tolerance), on fresh filters and
across any interleaving of ``append`` / ``remove_at`` / ``replace_at``.
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

from repro.index.filtering import BatchMbrFilter
from repro.index.geometry import Rect

FANOUTS = st.sampled_from([2, 4, 16])
COORD = st.integers(-20, 20).map(float)
#: Zero-width and repeated extents make duplicate / degenerate MBRs common.
EXTENT = st.sampled_from([0.0, 0.0, 1.0, 2.5, 7.0])


class Item:
    def __init__(self, lows, highs):
        self.mbr = Rect(lows, highs)


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
