"""Tests for constrained probabilistic range queries."""

import numpy as np
import pytest

from repro.baselines import scalar_range_query
from repro.core.range_query import range_probabilities
from repro.core.types import Label
from repro.uncertainty.objects import UncertainObject
from tests.conftest import make_random_objects


class TestRangeProbabilities:
    def test_uniform_closed_form(self):
        obj = UncertainObject.uniform("u", 0.0, 10.0)
        probs = range_probabilities([obj], 0.0, 4.0)
        assert probs["u"] == pytest.approx(0.4)

    def test_mbr_shortcuts(self):
        inside = UncertainObject.uniform("inside", 1.0, 2.0)
        outside = UncertainObject.uniform("outside", 50.0, 51.0)
        probs = range_probabilities([inside, outside], 0.0, 5.0)
        assert probs["inside"] == 1.0
        assert probs["outside"] == 0.0

    def test_matches_monte_carlo(self, rng):
        objects = make_random_objects(rng, 8)
        q, radius = 30.0, 6.0
        probs = range_probabilities(objects, q, radius)
        for obj in objects:
            samples = obj.histogram.sample(rng, 50_000)
            mc = float(np.mean(np.abs(samples - q) <= radius))
            assert probs[obj.key] == pytest.approx(mc, abs=8e-3)

    def test_monotone_in_radius(self, rng):
        objects = make_random_objects(rng, 6)
        q = 30.0
        previous = None
        for radius in (1.0, 3.0, 9.0, 30.0):
            probs = range_probabilities(objects, q, radius)
            if previous is not None:
                for key in probs:
                    assert probs[key] >= previous[key] - 1e-12
            previous = probs

    def test_negative_radius_rejected(self, rng):
        with pytest.raises(ValueError):
            range_probabilities(make_random_objects(rng, 2), 0.0, -1.0)

    def test_2d_objects(self):
        from repro.uncertainty.twod import UncertainDisk

        disk = UncertainDisk("d", (0.0, 0.0), 2.0)
        probs = range_probabilities([disk], (0.0, 0.0), 1.0)
        assert probs["d"] == pytest.approx(0.25, abs=1e-6)


class TestScalarRangeQuery:
    def test_answers_match_exact_thresholding(self, rng):
        objects = make_random_objects(rng, 12)
        q, radius, threshold = 30.0, 5.0, 0.4
        answers, records = scalar_range_query(objects, q, radius, threshold)
        exact = range_probabilities(objects, q, radius)
        assert set(answers) == {k for k, p in exact.items() if p >= threshold}
        assert len(records) == len(objects)

    def test_mbr_decided_records_have_no_exact(self):
        inside = UncertainObject.uniform("inside", 1.0, 2.0)
        straddle = UncertainObject.uniform("straddle", 4.0, 6.0)
        answers, records = scalar_range_query(
            [inside, straddle], 0.0, 5.0, threshold=0.5
        )
        by_key = {r.key: r for r in records}
        assert by_key["inside"].exact is None  # decided by MBR alone
        assert by_key["inside"].label is Label.SATISFY
        assert by_key["straddle"].exact == pytest.approx(0.5)
        assert set(answers) == {"inside", "straddle"}

    def test_validation(self, rng):
        objects = make_random_objects(rng, 2)
        with pytest.raises(ValueError):
            scalar_range_query([], 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            scalar_range_query(objects, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            scalar_range_query(objects, 0.0, 1.0, 0.5, tolerance=2.0)
