"""End-to-end 2-D queries: the extension Section IV-A promises.

The same engine runs unchanged over disks, segments and rectangles
because everything downstream of distance-distribution construction is
dimension-agnostic.
"""

import pytest

from repro.baselines.montecarlo import monte_carlo_pnn_probabilities
from repro.core.engine import UncertainEngine
from repro.core.types import CPNNQuery
from repro.experiments.strategies import STRATEGIES
from repro.uncertainty.twod import (
    UncertainDisk,
    UncertainRectangle,
    UncertainSegment,
)


def mixed_2d_objects(rng, n=8):
    objects = []
    for i in range(n):
        center = rng.uniform(0, 20, 2)
        kind = i % 3
        if kind == 0:
            objects.append(
                UncertainDisk(i, center, float(rng.uniform(0.5, 2.0)), distance_bins=96)
            )
        elif kind == 1:
            offset = rng.uniform(0.5, 3.0, 2)
            objects.append(
                UncertainSegment(i, center, center + offset, distance_bins=96)
            )
        else:
            w, h = rng.uniform(0.5, 3.0, 2)
            objects.append(
                UncertainRectangle.from_bounds(
                    i, center[0], center[1], center[0] + w, center[1] + h,
                    distance_bins=96,
                )
            )
    return objects


class Test2DPipeline:
    def test_pnn_sums_to_one(self, rng):
        engine = UncertainEngine(mixed_2d_objects(rng))
        pnn = engine.pnn((10.0, 10.0))
        assert sum(pnn.values()) == pytest.approx(1.0, abs=1e-6)

    def test_strategies_agree(self, rng):
        objects = mixed_2d_objects(rng)
        engine = UncertainEngine(objects)
        q = (10.0, 10.0)
        spec = CPNNQuery(q, threshold=0.25, tolerance=0.0)
        answers = {
            name: set(answer(engine, spec).answers)
            for name, answer in STRATEGIES.items()
        }
        assert answers["basic"] == answers["refine"] == answers["vr"]

    def test_agrees_with_monte_carlo(self, rng):
        objects = mixed_2d_objects(rng, n=6)
        q = (10.0, 10.0)
        exact = UncertainEngine(objects).pnn(q)
        mc = monte_carlo_pnn_probabilities(objects, q, trials=150_000, rng=rng)
        for key, p in exact.items():
            # 2-D distance cdfs are histogram-discretised (96 bins), so
            # agreement is bounded by that resolution, not MC error.
            assert mc[key] == pytest.approx(p, abs=0.02)

    def test_filtering_prunes_far_objects(self, rng):
        near = UncertainDisk("near", (0.0, 0.0), 1.0)
        far = UncertainDisk("far", (100.0, 0.0), 1.0)
        engine = UncertainEngine([near, far])
        result = engine.execute(CPNNQuery((0.0, 0.0), threshold=0.5, tolerance=0.0))
        assert result.answers == ("near",)
        keys = {record.key for record in result.records}
        assert "far" not in keys  # pruned before verification

    def test_2d_knn(self, rng):
        from repro.core.knn import knn_qualification_probabilities

        objects = mixed_2d_objects(rng, n=6)
        probs = knn_qualification_probabilities(objects, (10.0, 10.0), k=2)
        assert sum(probs.values()) == pytest.approx(2.0, abs=1e-6)
