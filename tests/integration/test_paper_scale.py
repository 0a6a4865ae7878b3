"""Integration test at (scaled-down) paper workload shape.

Asserts the *qualitative* results of Section V hold on the surrogate
workload — the same checks EXPERIMENTS.md records at full scale, kept
small enough for the unit-test suite.
"""

import numpy as np
import pytest

from repro.core.engine import UncertainEngine
from repro.core.types import CPNNQuery
from repro.datasets.longbeach import long_beach_surrogate
from repro.datasets.queries import random_query_points
from repro.experiments.strategies import STRATEGIES, refine


@pytest.fixture(scope="module")
def engine():
    return UncertainEngine(long_beach_surrogate(n=6_000))


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(20080407)
    return random_query_points(6, rng=rng)


class TestPaperShapeClaims:
    def test_strategies_agree_on_answers(self, engine, points):
        for q in points:
            spec = CPNNQuery(q, threshold=0.3, tolerance=0.0)
            answers = [
                set(answer(engine, spec).answers) for answer in STRATEGIES.values()
            ]
            assert answers[0] == answers[1] == answers[2]

    def test_vr_refines_fewer_objects_than_refine(self, engine, points):
        vr_refined = refine_refined = 0
        for q in points:
            spec = CPNNQuery(q, threshold=0.3, tolerance=0.01)
            vr_refined += engine.execute(spec).refined_objects
            refine_refined += refine(engine, spec).refined_objects
        assert vr_refined < refine_refined

    def test_high_threshold_needs_no_refinement(self, engine, points):
        # Figure 11: "when P >= 0.3, no more qualification probabilities
        # need to be computed" — verifiers settle everything.
        for q in points:
            result = engine.execute(CPNNQuery(q, threshold=0.5, tolerance=0.01))
            assert result.refined_objects == 0
            assert result.finished_after_verification

    def test_unknown_fraction_falls_along_chain(self, engine, points):
        for q in points:
            result = engine.execute(CPNNQuery(q, threshold=0.2, tolerance=0.01))
            series = [
                result.unknown_after_verifier[name]
                for name in ("RS", "L-SR", "U-SR")
                if name in result.unknown_after_verifier
            ]
            assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))

    def test_tolerance_reduces_refinement(self, engine, points):
        tight = lax = 0
        for q in points:
            tight += engine.execute(CPNNQuery(q, threshold=0.1, tolerance=0.0)).refined_objects
            lax += engine.execute(CPNNQuery(q, threshold=0.1, tolerance=0.2)).refined_objects
        assert lax <= tight

    def test_answers_nonempty_at_low_threshold(self, engine, points):
        for q in points:
            result = engine.execute(CPNNQuery(q, threshold=0.05, tolerance=0.0))
            assert len(result.answers) >= 1
