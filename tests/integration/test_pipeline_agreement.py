"""Cross-method integration tests: all four ways of computing PNN
probabilities (engine exact, Simpson baseline, Monte Carlo, incremental
refinement) must agree, over every pdf family."""

import numpy as np
import pytest

from repro.baselines.basic import basic_pnn_probabilities
from repro.baselines.montecarlo import monte_carlo_pnn_probabilities
from repro.core.engine import UncertainEngine
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery
from repro.datasets.synthetic import mixed_pdf_objects
from repro.index.filtering import BatchMbrFilter
from tests.conftest import make_random_objects


class TestFourWayAgreement:
    def test_uniform_workload(self, rng):
        objects = make_random_objects(rng, 14, families=("uniform",))
        self._check(objects, 30.0, rng)

    def test_gaussian_workload(self, rng):
        objects = make_random_objects(rng, 10, families=("gaussian",))
        self._check(objects, 30.0, rng)

    def test_mixed_workload(self, rng):
        objects = mixed_pdf_objects(12, domain=(0.0, 60.0), rng=rng)
        self._check(objects, 30.0, rng)

    @staticmethod
    def _check(objects, q, rng):
        engine_exact = UncertainEngine(objects).pnn(q)
        simpson = basic_pnn_probabilities(objects, q, subdivisions=12)
        mc = monte_carlo_pnn_probabilities(objects, q, trials=120_000, rng=rng)
        assert sum(engine_exact.values()) == pytest.approx(1.0, abs=1e-9)
        for key, p in engine_exact.items():
            assert simpson[key] == pytest.approx(p, abs=1e-5)
            assert mc[key] == pytest.approx(p, abs=8e-3)

    def test_incremental_refinement_stays_sound_and_labels_correctly(self, rng):
        objects = make_random_objects(rng, 10)
        q = 30.0
        table = SubregionTable([o.distance_distribution(q) for o in objects])
        exact = Refiner(table).exact_all()
        for threshold in (0.05, 0.3, 1.0):
            refiner = Refiner(table)
            states = CandidateStates(table.keys)
            query = CPNNQuery(q, threshold=threshold, tolerance=0.0)
            for i in range(table.size):
                refiner.refine_object(i, states, query, use_verifier_slices=False)
            # Bounds always contain the exact probability...
            assert np.all(states.lower - 1e-8 <= exact)
            assert np.all(exact <= states.upper + 1e-8)
            # ...and labels match exact thresholding (away from ties).
            for i, p in enumerate(exact):
                if abs(p - threshold) > 1e-9:
                    expected = 1 if p >= threshold else 2
                    assert states.labels[i] == expected


class TestConsistencyAcrossConfigurations:
    def test_rtree_fanouts_give_same_answers(self, rng, monkeypatch):
        objects = make_random_objects(rng, 30)
        q = 30.0
        baseline = None
        for fanout in (4, 8, 32):
            # The engine packs its filter at BatchMbrFilter's default.
            monkeypatch.setattr(BatchMbrFilter.__init__, "__defaults__", (fanout,))
            engine = UncertainEngine(objects)
            assert engine._ensure_batch_filter()._max_entries == fanout
            answers = set(engine.execute(CPNNQuery(q, tolerance=0.0)).answers)
            if baseline is None:
                baseline = answers
            assert answers == baseline

    def test_repeated_queries_are_deterministic(self, rng):
        objects = make_random_objects(rng, 20)
        engine = UncertainEngine(objects)
        a = engine.execute(CPNNQuery(30.0, tolerance=0.0))
        b = engine.execute(CPNNQuery(30.0, tolerance=0.0))
        assert a.answers == b.answers
        for ra, rb in zip(a.records, b.records):
            assert ra.lower == rb.lower and ra.upper == rb.upper
