"""The k-NN and range legs of the parametric fast path.

When every candidate has a closed-form distance law
(``parametric_distance``), range queries evaluate ``cdf(radius)``
analytically — zero histogram constructions — and k-NN tries one
analytic bound sweep, settling entirely without histograms when the
bounds decide every survivor and falling back to the
histogram-certified pipeline otherwise.  Either way the answers must
match the fast-path-disabled engine exactly, and mixed candidate sets
(parametric + histogram objects) keep the histogram route.
"""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.types import CKNNQuery, CRangeQuery
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric import GaussianObject

N_OBJECTS = 40
DOMAIN = (0.0, 200.0)


def gaussian_objects(seed=7):
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(N_OBJECTS):
        mu = float(rng.uniform(*DOMAIN))
        width = float(rng.uniform(3.0, 12.0))
        objects.append(
            GaussianObject(i, mu - width / 2.0, mu + width / 2.0, bars=48)
        )
    return objects


def knn_specs():
    rng = np.random.default_rng(41)
    return [
        CKNNQuery(float(q), k=1 + i % 4, threshold=0.2 + 0.15 * (i % 4))
        for i, q in enumerate(rng.uniform(*DOMAIN, 8))
    ]


def range_specs():
    rng = np.random.default_rng(42)
    return [
        CRangeQuery(float(q), radius=2.0 + 3.0 * (i % 3), threshold=0.3)
        for i, q in enumerate(rng.uniform(*DOMAIN, 8))
    ]



def assert_same_results(got, want):
    assert got.answers == want.answers
    assert len(got.records) == len(want.records)
    for x, y in zip(got.records, want.records):
        assert x.key == y.key and x.label == y.label


class TestRangeLeg:
    def test_zero_histogram_constructions(self, histogram_counter):
        engine = UncertainEngine(gaussian_objects())
        evaluated = 0
        for spec in range_specs():
            result = engine.execute(spec)
            evaluated += result.refined_objects
        assert evaluated > 0, "specs must exercise the straddling tier"
        assert histogram_counter["n"] == 0

    def test_matches_histogram_route(self):
        fast = UncertainEngine(gaussian_objects())
        slow = UncertainEngine(
            gaussian_objects(), EngineConfig(parametric_fast_path=False)
        )
        for spec in range_specs():
            assert_same_results(fast.execute(spec), slow.execute(spec))

    def test_probabilities_are_exact_model_cdf(self):
        objects = gaussian_objects()
        engine = UncertainEngine(objects)
        spec = CRangeQuery(100.0, radius=6.0, threshold=0.3)
        result = engine.execute(spec)
        for record in result.records:
            if record.exact is None:
                continue  # MBR-decided
            law = objects[record.key].parametric_distance(100.0)
            assert record.exact == float(law.cdf(6.0))

    def test_mixed_candidates_fall_back(self, histogram_counter):
        objects = gaussian_objects()
        # Drop a histogram-only object into the thick of the domain so
        # some straddler sets mix representations.
        objects.append(UncertainObject.uniform("hist", 95.0, 105.0))
        engine = UncertainEngine(objects)
        engine.execute(CRangeQuery(100.0, radius=6.0, threshold=0.3))
        assert histogram_counter["n"] > 0, "mixed sets take the histogram route"

    def test_deterministic_across_repeats(self):
        engine = UncertainEngine(gaussian_objects())
        for spec in range_specs():
            first = engine.execute(spec)
            second = engine.execute(spec)
            assert first.answers == second.answers
            assert [(r.lower, r.upper, r.exact) for r in first.records] == [
                (r.lower, r.upper, r.exact) for r in second.records
            ]


class TestKnnLeg:
    def test_answers_match_histogram_route(self):
        fast = UncertainEngine(gaussian_objects())
        slow = UncertainEngine(
            gaussian_objects(), EngineConfig(parametric_fast_path=False)
        )
        for spec in knn_specs():
            got = fast.execute(spec)
            want = slow.execute(spec)
            assert got.answers == want.answers
            assert got.fmin == want.fmin

    def test_clear_threshold_settles_without_histograms(self, histogram_counter):
        # Spread clusters far apart: the nearest object's upper bound
        # and everyone else's lower bound separate decisively, so the
        # analytic sweep settles without any histogram.
        objects = [GaussianObject(i, 30.0 * i, 30.0 * i + 2.0) for i in range(8)]
        engine = UncertainEngine(objects)
        result = engine.execute(CKNNQuery(31.0, k=1, threshold=0.5))
        assert result.answers == (1,)
        assert result.finished_after_verification
        assert result.refined_objects == 0
        assert histogram_counter["n"] == 0

    def test_undecided_survivors_fall_back_soundly(self):
        # Overlapping objects at a threshold the bounds cannot decide:
        # the fallback (histogram) tier must produce the same answer as
        # the fast-path-disabled engine.
        objects = [GaussianObject(i, 10.0 + i, 16.0 + i) for i in range(6)]
        fast = UncertainEngine(list(objects))
        slow = UncertainEngine(
            list(objects), EngineConfig(parametric_fast_path=False)
        )
        spec = CKNNQuery(13.0, k=2, threshold=0.5)
        assert fast.execute(spec).answers == slow.execute(spec).answers

    @pytest.mark.parametrize("batched", [False, True], ids=["execute", "batch"])
    def test_failed_analytic_attempt_is_booked(self, unit_clock, batched):
        # The undecided spec above: the column gather and the bound
        # sweep each cost one unit under ``unit_clock``, and the
        # histogram pipeline's phases are added to them, not written
        # over them, so the spec's phases still sum to its wall.
        objects = [GaussianObject(i, 10.0 + i, 16.0 + i) for i in range(6)]
        spec = CKNNQuery(13.0, k=2, threshold=0.5)

        def run(**overrides):
            engine = UncertainEngine(list(objects), EngineConfig(**overrides))
            if batched:
                return engine.execute_batch([spec]).results[0]
            return engine.execute(spec)

        plain = run(parametric_fast_path=False)
        fallback = run()
        assert fallback.answers == plain.answers
        assert fallback.timings.initialization == plain.timings.initialization + 1
        assert fallback.timings.verification == plain.timings.verification + 1
        assert fallback.timings.refinement == plain.timings.refinement

    def test_trivial_k_geq_n_unaffected(self):
        objects = gaussian_objects()[:3]
        engine = UncertainEngine(objects)
        result = engine.execute(CKNNQuery(50.0, k=10, threshold=0.3))
        assert set(result.answers) == {0, 1, 2}

    def test_batch_equals_sequential(self):
        engine = UncertainEngine(gaussian_objects())
        specs = knn_specs() + range_specs()
        batch = engine.execute_batch(specs)
        fresh = UncertainEngine(gaussian_objects())
        for spec, result in zip(specs, batch.results):
            assert_same_results(result, fresh.execute(spec))

    def test_fast_path_disabled_by_config(self, histogram_counter):
        engine = UncertainEngine(
            gaussian_objects(), EngineConfig(parametric_fast_path=False)
        )
        result = engine.execute(CKNNQuery(100.0, k=2, threshold=0.4))
        assert result.records
        assert histogram_counter["n"] > 0
