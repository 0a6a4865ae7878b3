"""Tests for exact and incremental refinement (Section IV-D)."""

import numpy as np
import pytest

from repro.baselines.montecarlo import monte_carlo_pnn_probabilities
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery, Label
from tests.conftest import make_random_objects, two_object_textbook_case


def build(objects, q, **kwargs):
    table = SubregionTable([o.distance_distribution(q) for o in objects])
    return table, Refiner(table, **kwargs)


class TestExactProbabilities:
    def test_textbook_exact_values(self):
        objects, q = two_object_textbook_case()
        table, refiner = build(objects, q)
        exact = refiner.exact_all()
        assert exact[table.index_of("A")] == pytest.approx(0.875)
        assert exact[table.index_of("B")] == pytest.approx(0.125)

    def test_exact_probability_matches_exact_all(self, rng):
        objects = make_random_objects(rng, 9)
        table, refiner = build(objects, 30.0)
        all_probs = refiner.exact_all()
        fresh = Refiner(table)
        for i in range(table.size):
            assert fresh.exact_probability(i) == pytest.approx(
                all_probs[i], abs=1e-12
            )

    def test_per_subregion_probabilities_sum(self, rng):
        objects = make_random_objects(rng, 7)
        table, refiner = build(objects, 30.0)
        for i in range(table.size):
            total = sum(
                refiner.exact_subregion_probability(i, j)
                for j in range(table.n_inner)
            )
            assert total == pytest.approx(refiner.exact_probability(i), abs=1e-12)

    def test_probabilities_sum_to_one(self, rng):
        for _ in range(8):
            objects = make_random_objects(rng, int(rng.integers(2, 12)))
            _, refiner = build(objects, float(rng.uniform(0, 60)))
            assert refiner.exact_all().sum() == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_monte_carlo(self, rng):
        objects = make_random_objects(rng, 8, families=("uniform", "gaussian"))
        q = 30.0
        table, refiner = build(objects, q)
        exact = refiner.exact_all()
        mc = monte_carlo_pnn_probabilities(objects, q, trials=150_000, rng=rng)
        for i, dist in enumerate(table.distributions):
            assert exact[i] == pytest.approx(mc[dist.key], abs=8e-3)

    def test_quadrature_margin_changes_nothing(self, rng):
        objects = make_random_objects(rng, 8)
        _, r1 = build(objects, 25.0, quadrature_margin=1)
        _, r2 = build(objects, 25.0, quadrature_margin=6)
        assert np.allclose(r1.exact_all(), r2.exact_all(), atol=1e-12)

    def test_subregion_cache_reused(self, rng):
        objects = make_random_objects(rng, 6)
        table, refiner = build(objects, 30.0)
        refiner.exact_all()
        evaluated = refiner.subregions_evaluated
        refiner.exact_all()
        assert refiner.subregions_evaluated == evaluated  # no rebuilds


class TestIncrementalRefinement:
    def test_refines_until_classified(self):
        objects, q = two_object_textbook_case()
        table, refiner = build(objects, q)
        states = CandidateStates(table.keys)
        query = CPNNQuery(q, threshold=0.5, tolerance=0.0)
        for i in range(table.size):
            refiner.refine_object(i, states, query, use_verifier_slices=False)
        assert states.label_of(table.index_of("A")) is Label.SATISFY
        assert states.label_of(table.index_of("B")) is Label.FAIL

    def test_final_bounds_contain_exact(self, rng):
        for _ in range(6):
            objects = make_random_objects(rng, int(rng.integers(3, 10)))
            q = float(rng.uniform(0, 60))
            table, refiner = build(objects, q)
            exact = Refiner(table).exact_all()
            states = CandidateStates(table.keys)
            query = CPNNQuery(q, threshold=0.4, tolerance=0.02)
            for i in range(table.size):
                refiner.refine_object(i, states, query, use_verifier_slices=False)
                assert states.lower[i] - 1e-9 <= exact[i] <= states.upper[i] + 1e-9

    def test_verifier_slices_reduce_work(self, rng):
        objects = make_random_objects(rng, 12, families=("uniform",))
        q = 30.0
        query = CPNNQuery(q, threshold=0.3, tolerance=0.01)
        table, with_slices = build(objects, q)
        states_a = CandidateStates(table.keys)
        work_with = sum(
            with_slices.refine_object(i, states_a, query, use_verifier_slices=True)
            for i in range(table.size)
        )
        _, without_slices = build(objects, q)
        states_b = CandidateStates(table.keys)
        work_without = sum(
            without_slices.refine_object(i, states_b, query, use_verifier_slices=False)
            for i in range(table.size)
        )
        assert work_with <= work_without

    def test_zero_tolerance_at_threshold_resolved_exactly(self):
        # Engineered so an object's probability sits exactly at P:
        # two identical objects, each with probability 0.5.
        from repro.uncertainty.objects import UncertainObject

        objects = [
            UncertainObject.uniform("A", 0.0, 2.0),
            UncertainObject.uniform("B", 0.0, 2.0),
        ]
        table, refiner = build(objects, 0.0)
        states = CandidateStates(table.keys)
        query = CPNNQuery(0.0, threshold=0.5, tolerance=0.0)
        for i in range(table.size):
            refiner.refine_object(i, states, query, use_verifier_slices=False)
        assert all(states.label_of(i) is Label.SATISFY for i in range(2))
