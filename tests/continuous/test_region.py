"""Unit tests for the safe-region certificate (DESIGN.md §17).

The soundness anchor: a mutation MBR that does *not* hit a query's
region may never change that query's answer.  These tests pin the
geometry (the ``TableCache.invalidate_boxes`` arithmetic), the
per-family radius/structural derivation, and the exact-point semantics
of query motion.
"""

import math

import numpy as np

from repro.continuous.region import SafeRegion
from repro.core.engine import UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.uncertainty.objects import UncertainObject


def uniform(key, lo, hi):
    return UncertainObject.uniform(key, lo, hi)


def region_for(spec, objects):
    engine = UncertainEngine(list(objects))
    return SafeRegion.from_result(spec, engine.execute(spec))


class TestDerivation:
    def test_cpnn_radius_is_fmin_and_nonstructural(self):
        objects = [uniform(0, 0.0, 2.0), uniform(1, 10.0, 12.0)]
        spec = CPNNQuery(1.0, threshold=0.3)
        engine = UncertainEngine(objects)
        result = engine.execute(spec)
        region = SafeRegion.from_result(spec, result)
        assert region.radius == float(result.fmin)
        assert math.isfinite(region.radius)
        assert not region.structural
        assert region.center.tolist() == [1.0]

    def test_knn_and_range_are_structural(self):
        # The name is historical: since range records became
        # candidate-shaped only k-NN (the k >= n switch) reads the census.
        objects = [uniform(i, 3.0 * i, 3.0 * i + 1.0) for i in range(4)]
        knn = region_for(CKNNQuery(2.0, k=2, threshold=0.4), objects)
        rng = region_for(CRangeQuery(2.0, radius=5.0, threshold=0.4), objects)
        assert knn.structural
        assert not rng.structural
        # The range certificate is the query radius itself.
        assert rng.radius == 5.0

    def test_nonfinite_fmin_normalises_to_inf(self):
        # k >= n: fmin is +inf; empty engine: fmin is NaN.  Both become
        # the unbounded certificate (always invalidated, always sound).
        objects = [uniform(0, 0.0, 1.0)]
        trivial = region_for(CKNNQuery(0.5, k=5, threshold=0.3), objects)
        assert trivial.radius == float("inf")
        engine = UncertainEngine([])
        spec = CPNNQuery(0.5, threshold=0.3)
        empty = SafeRegion.from_result(spec, engine.execute(spec))
        assert empty.radius == float("inf")
        assert empty.hit_by([1e12], [1e12 + 1.0])


class TestGeometry:
    def test_hit_by_matches_clamped_gap_arithmetic(self):
        region = SafeRegion(center=np.array([10.0]), radius=3.0, structural=False)
        assert region.hit_by([12.0], [14.0])  # gap 2 <= 3
        assert region.hit_by([13.0], [14.0])  # boundary: gap 3 <= 3
        assert not region.hit_by([13.5], [14.0])  # gap 3.5 > 3
        assert region.hit_by([9.0], [11.0])  # box containing the center

    def test_hit_by_multidim(self):
        region = SafeRegion(
            center=np.array([0.0, 0.0]), radius=5.0, structural=False
        )
        # Corner gap (3, 4) -> distance 5, on the boundary.
        assert region.hit_by([3.0, 4.0], [6.0, 7.0])
        assert not region.hit_by([3.0, 4.1], [6.0, 7.0])

    def test_dimension_mismatch_is_conservative(self):
        region = SafeRegion(center=np.array([0.0]), radius=1.0, structural=False)
        assert region.hit_by([50.0, 50.0], [51.0, 51.0])

    def test_contains_point_is_exact_equality(self):
        region = SafeRegion(center=np.array([2.5]), radius=9.0, structural=False)
        assert region.contains_point(2.5)
        assert not region.contains_point(2.5 + 1e-12)
        assert not region.contains_point([2.5, 2.5])


class TestSoundness:
    """The certificate argument, checked against the engine itself:
    mutations whose MBR misses the region never change the answer."""

    def test_miss_preserves_cpnn_result(self):
        objects = [uniform(0, 0.0, 2.0), uniform(1, 5.0, 7.0), uniform(2, 40.0, 42.0)]
        spec = CPNNQuery(1.0, threshold=0.2, tolerance=0.0)
        engine = UncertainEngine(list(objects))
        before = engine.execute(spec)
        region = SafeRegion.from_result(spec, before)
        # Move the far object around, always outside the ball.
        for lo in (60.0, 80.0, 100.0):
            replacement = uniform(2, lo, lo + 2.0)
            mbr = replacement.mbr
            assert not region.hit_by(mbr.lows, mbr.highs)
            old = engine.object_for(2).mbr
            assert not region.hit_by(old.lows, old.highs)
            engine.replace(2, replacement)
            after = engine.execute(spec)
            assert after.answers == before.answers
            assert after.fmin == before.fmin
            assert [(r.key, r.label, r.lower, r.upper) for r in after.records] == [
                (r.key, r.label, r.lower, r.upper) for r in before.records
            ]

    def test_miss_preserves_inplace_knn_and_range(self):
        objects = [uniform(i, 4.0 * i, 4.0 * i + 1.0) for i in range(6)]
        specs = [
            CKNNQuery(2.0, k=2, threshold=0.4),
            CRangeQuery(2.0, radius=3.0, threshold=0.4),
        ]
        engine = UncertainEngine(list(objects))
        for spec in specs:
            before = engine.execute(spec)
            region = SafeRegion.from_result(spec, before)
            replacement = uniform(5, 90.0, 91.0)
            new = replacement.mbr
            old = engine.object_for(5).mbr
            assert not region.hit_by(new.lows, new.highs)
            assert not region.hit_by(old.lows, old.highs)
            engine.replace(5, replacement)
            after = engine.execute(spec)
            assert after.answers == before.answers
            engine.replace(5, objects[5])  # restore for the next family
