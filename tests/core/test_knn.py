"""Tests for the probabilistic k-NN extension."""

import numpy as np
import pytest

from repro.baselines import scalar_knn_query
from repro.baselines.montecarlo import monte_carlo_knn_probabilities
from repro.core.knn import knn_qualification_probabilities, kth_smallest_far
from repro.uncertainty.objects import UncertainObject
from tests.conftest import make_random_objects


class TestKthSmallestFar:
    def test_basic(self, rng):
        objects = make_random_objects(rng, 6)
        dists = [o.distance_distribution(10.0) for o in objects]
        fars = sorted(d.far for d in dists)
        assert kth_smallest_far(dists, 1) == pytest.approx(fars[0])
        assert kth_smallest_far(dists, 6) == pytest.approx(fars[-1])

    def test_validation(self, rng):
        objects = make_random_objects(rng, 3)
        dists = [o.distance_distribution(0.0) for o in objects]
        with pytest.raises(ValueError):
            kth_smallest_far(dists, 0)
        with pytest.raises(ValueError):
            kth_smallest_far(dists, 4)


class TestExactKnnProbabilities:
    def test_k_one_equals_pnn(self, rng):
        from repro.core.engine import UncertainEngine

        objects = make_random_objects(rng, 8)
        q = 30.0
        knn = knn_qualification_probabilities(objects, q, k=1)
        pnn = UncertainEngine(objects).pnn(q)
        for key, p in pnn.items():
            assert knn[key] == pytest.approx(p, abs=1e-9)
        # Objects pruned by the PNN engine have probability 0.
        for key, p in knn.items():
            if key not in pnn:
                assert p == pytest.approx(0.0, abs=1e-12)

    def test_probabilities_sum_to_k(self, rng):
        for k in (1, 2, 3):
            objects = make_random_objects(rng, 7)
            probs = knn_qualification_probabilities(objects, 30.0, k=k)
            assert sum(probs.values()) == pytest.approx(k, abs=1e-8)

    def test_monotone_in_k(self, rng):
        objects = make_random_objects(rng, 8)
        q = 30.0
        p1 = knn_qualification_probabilities(objects, q, k=1)
        p2 = knn_qualification_probabilities(objects, q, k=2)
        p3 = knn_qualification_probabilities(objects, q, k=3)
        for key in p1:
            assert p1[key] <= p2[key] + 1e-9 <= p3[key] + 2e-9

    def test_k_at_least_n_gives_ones(self, rng):
        objects = make_random_objects(rng, 4)
        probs = knn_qualification_probabilities(objects, 0.0, k=4)
        assert all(p == 1.0 for p in probs.values())

    def test_agrees_with_monte_carlo(self, rng):
        objects = make_random_objects(rng, 7, families=("uniform", "gaussian"))
        q = 30.0
        exact = knn_qualification_probabilities(objects, q, k=2)
        mc = monte_carlo_knn_probabilities(objects, q, k=2, trials=150_000, rng=rng)
        for key in exact:
            assert exact[key] == pytest.approx(mc[key], abs=8e-3)

    def test_two_identical_objects_k2(self):
        objects = [
            UncertainObject.uniform("a", 0.0, 1.0),
            UncertainObject.uniform("b", 0.0, 1.0),
            UncertainObject.uniform("c", 5.0, 6.0),
        ]
        probs = knn_qualification_probabilities(objects, 0.0, k=2)
        assert probs["a"] == pytest.approx(1.0, abs=1e-9)
        assert probs["b"] == pytest.approx(1.0, abs=1e-9)
        assert probs["c"] == pytest.approx(0.0, abs=1e-9)

    def test_invalid_k(self, rng):
        objects = make_random_objects(rng, 3)
        with pytest.raises(ValueError):
            knn_qualification_probabilities(objects, 0.0, k=0)


class TestScalarKnnQuery:
    def test_answers_match_exact_thresholding(self, rng):
        objects = make_random_objects(rng, 9)
        q = 30.0
        k = 2
        answers, records = scalar_knn_query(objects, q, k, 0.4)
        exact = knn_qualification_probabilities(objects, q, k=k)
        expected = {key for key, p in exact.items() if p >= 0.4}
        assert set(answers) == expected
        assert len(records) == len(objects)

    def test_rs_style_bound_is_sound(self, rng):
        objects = make_random_objects(rng, 9)
        q = 30.0
        k = 2
        _, records = scalar_knn_query(objects, q, k, 0.3)
        exact = knn_qualification_probabilities(objects, q, k=k)
        for record in records:
            assert exact[record.key] <= record.upper + 1e-9

    def test_k_covers_everything(self, rng):
        objects = make_random_objects(rng, 4)
        answers, records = scalar_knn_query(objects, 0.0, 10, 0.5)
        assert set(answers) == {o.key for o in objects}

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            scalar_knn_query([], 0.0, 1, 0.5)
        with pytest.raises(ValueError):
            scalar_knn_query(make_random_objects(rng, 3), 0.0, 0, 0.5)


class TestKnnProbabilityBounds:
    def test_bounds_contain_exact(self, rng):
        from repro.core.knn import knn_probability_bounds

        for k in (1, 2, 3):
            objects = make_random_objects(rng, 8)
            q = 30.0
            dists = [o.distance_distribution(q) for o in objects]
            bounds = knn_probability_bounds(dists, k)
            exact = knn_qualification_probabilities(dists, q, k=k)
            for dist, (lower, upper) in zip(dists, bounds):
                assert lower - 1e-9 <= exact[dist.key] <= upper + 1e-9

    def test_k_covers_all(self, rng):
        from repro.core.knn import knn_probability_bounds

        objects = make_random_objects(rng, 4)
        dists = [o.distance_distribution(0.0) for o in objects]
        assert knn_probability_bounds(dists, 4) == [(1.0, 1.0)] * 4

    def test_lower_bound_nontrivial_for_isolated_object(self):
        from repro.core.knn import knn_probability_bounds

        # An object far closer than everyone else: its k=1 lower bound
        # should already be 1 (no integration needed to accept it).
        objects = [
            UncertainObject.uniform("close", 0.0, 1.0),
            UncertainObject.uniform("far1", 10.0, 11.0),
            UncertainObject.uniform("far2", 12.0, 13.0),
        ]
        dists = [o.distance_distribution(0.0) for o in objects]
        bounds = dict(zip((d.key for d in dists), knn_probability_bounds(dists, 1)))
        assert bounds["close"][0] == pytest.approx(1.0)
        assert bounds["far1"][1] == pytest.approx(0.0)

    def test_validation(self, rng):
        from repro.core.knn import knn_probability_bounds

        objects = make_random_objects(rng, 3)
        dists = [o.distance_distribution(0.0) for o in objects]
        with pytest.raises(ValueError):
            knn_probability_bounds(dists, 0)

    def test_scalar_query_skips_integration_when_bounds_decide(self):
        objects = [
            UncertainObject.uniform("close", 0.0, 1.0),
            UncertainObject.uniform("far1", 10.0, 11.0),
            UncertainObject.uniform("far2", 12.0, 13.0),
        ]
        answers, records = scalar_knn_query(objects, 0.0, 1, 0.5)
        assert answers == ("close",)
        # Every object was decided by the verifier bounds alone.
        assert all(r.exact is None for r in records)
