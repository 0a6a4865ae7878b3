"""The engine's parametric fast path (DESIGN.md §15): analytic
verification with zero histogram constructions, sound fallback to the
histogram pipeline, and batch/sequential identity."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric import (
    AnalyticTable,
    GaussianObject,
    TruncatedGaussianDistance,
)

N_OBJECTS = 60
DOMAIN = (0.0, 300.0)


def gaussian_objects(representation="parametric", seed=5):
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(N_OBJECTS):
        center = float(rng.uniform(*DOMAIN))
        width = float(rng.uniform(2.0, 18.0))
        lo, hi = center - width / 2.0, center + width / 2.0
        if representation == "parametric":
            objects.append(GaussianObject(i, lo, hi, bars=48))
        else:
            objects.append(UncertainObject.gaussian(i, lo, hi, bars=48))
    return objects


def query_specs(threshold=0.3, tolerance=0.01, n=9):
    rng = np.random.default_rng(99)
    return [
        CPNNQuery(float(q), threshold=threshold, tolerance=tolerance)
        for q in rng.uniform(*DOMAIN, n)
    ]


@pytest.fixture
def histogram_counter(monkeypatch):
    """Counts every histogram construction, through any entry point."""
    counts = {"n": 0}
    original_init = Histogram.__init__

    def counting_init(self, *args, **kwargs):
        counts["n"] += 1
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Histogram, "__init__", counting_init)
    return counts


class TestFastPath:
    def test_zero_histogram_constructions(self, histogram_counter):
        engine = UncertainEngine(gaussian_objects())
        assert histogram_counter["n"] == 0, "engine build must not materialise"
        for spec in query_specs():
            result = engine.execute(spec)
            assert result.records, "queries over the domain have candidates"
        assert histogram_counter["n"] == 0, (
            "the parametric path must answer without a single histogram"
        )

    def test_fast_path_disabled_by_config(self, histogram_counter):
        engine = UncertainEngine(
            gaussian_objects(), EngineConfig(parametric_fast_path=False)
        )
        engine.execute(query_specs(n=1)[0])
        assert histogram_counter["n"] > 0, "histogram pipeline must run"

    def test_mixed_candidates_fall_back(self, histogram_counter):
        objects = gaussian_objects()
        # One classic object in the middle of the domain: any query
        # whose candidate set includes it must use the histogram path.
        objects.append(UncertainObject.gaussian("legacy", 140.0, 160.0, bars=48))
        engine = UncertainEngine(objects)
        result = engine.execute(CPNNQuery(150.0, threshold=0.3, tolerance=0.01))
        assert any(r.key == "legacy" for r in result.records)
        assert histogram_counter["n"] > 0

    def test_plan_names_fast_path(self):
        engine = UncertainEngine(gaussian_objects())
        plan = engine.explain(query_specs(n=1)[0])
        assert any("parametric fast path" in s for s in plan.stages)
        off = UncertainEngine(
            gaussian_objects(), EngineConfig(parametric_fast_path=False)
        )
        assert not any(
            "parametric fast path" in s
            for s in off.explain(query_specs(n=1)[0]).stages
        )
        stats = engine.stats()["parametric"]
        assert stats == {"fast_path": True, "grid": 64, "max_grid": 4096}


class TestAnswerQuality:
    def test_bounds_satisfy_contract(self):
        """Every returned/labelled record respects the C-PNN contract
        against the histogram engine's certified intervals."""
        parametric = UncertainEngine(gaussian_objects())
        histogram = UncertainEngine(gaussian_objects("histogram"))
        for spec in query_specs():
            p = parametric.execute(spec)
            h = histogram.execute(spec)
            h_bounds = {r.key: (r.lower, r.upper) for r in h.records}
            assert {r.key for r in p.records} == set(h_bounds)
            for key in set(p.answers).symmetric_difference(h.answers):
                lower, upper = h_bounds[key]
                # Only borderline candidates may be labelled apart —
                # their certified interval straddles P within Δ.
                assert lower <= spec.threshold + spec.tolerance
                assert upper >= spec.threshold - spec.tolerance

    def test_exact_tier_bit_identical_at_zero_tolerance(self):
        """With Δ = 0 unsettled candidates reach the exact refinement
        tier; the fast path's fallback must make the two engines
        answer bit-identically."""
        parametric = UncertainEngine(gaussian_objects())
        histogram = UncertainEngine(gaussian_objects("histogram"))
        for spec in query_specs(tolerance=0.0, n=5):
            p = parametric.execute(spec)
            h = histogram.execute(spec)
            assert p.answers == h.answers
            for a, b in zip(p.records, h.records):
                if a.exact is not None or b.exact is not None:
                    assert a.exact == b.exact

    def test_batch_equals_sequential(self):
        specs = query_specs()
        sequential_engine = UncertainEngine(gaussian_objects())
        sequential = [sequential_engine.execute(s) for s in specs]
        batch_engine = UncertainEngine(gaussian_objects())
        batch = batch_engine.execute_batch(specs)
        for seq, bat in zip(sequential, batch.results):
            assert seq.answers == bat.answers
            for a, b in zip(seq.records, bat.records):
                assert (a.key, a.label, a.lower, a.upper) == (
                    b.key,
                    b.label,
                    b.lower,
                    b.upper,
                )

    def test_batch_zero_histograms(self, histogram_counter):
        engine = UncertainEngine(gaussian_objects())
        engine.execute_batch(query_specs())
        assert histogram_counter["n"] == 0

    def test_escalation_settles_narrow_tolerance(self):
        """A tighter tolerance forces grid escalation; answers still
        respect the contract and the analytic path stays histogram-free
        whenever it reports finishing after verification."""
        engine = UncertainEngine(
            gaussian_objects(),
            EngineConfig(analytic_grid=8, analytic_max_grid=2048),
        )
        for spec in query_specs(tolerance=0.002, n=4):
            result = engine.execute(spec)
            for record in result.records:
                assert 0.0 <= record.lower <= record.upper <= 1.0


class TestZeroConstruction:
    """The legs hand the pack candidate objects: a Gaussian candidate
    set is evaluated as columns, never as per-candidate distance laws."""

    def test_no_law_and_no_histogram_on_any_leg(self, monkeypatch, histogram_counter):
        calls = {"law": 0, "parametric_distance": 0, "refined": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            TruncatedGaussianDistance,
            "__init__",
            counting("law", TruncatedGaussianDistance.__init__),
        )
        monkeypatch.setattr(
            GaussianObject,
            "parametric_distance",
            counting("parametric_distance", GaussianObject.parametric_distance),
        )
        monkeypatch.setattr(
            AnalyticTable, "refined", counting("refined", AnalyticTable.refined)
        )
        engine = UncertainEngine(gaussian_objects())
        specs = query_specs()
        for spec in specs:
            engine.execute(spec)
        engine.execute_batch(specs)
        escalating = UncertainEngine(
            gaussian_objects(), EngineConfig(analytic_grid=8, analytic_max_grid=2048)
        )
        escalating.execute_batch(query_specs(tolerance=0.002, n=4))
        assert calls["refined"] > 0, "the narrow tolerance must escalate"
        ranged = engine.execute_batch(
            [CRangeQuery(s.q, threshold=0.3, radius=8.0) for s in specs]
        )
        assert sum(r.refined_objects for r in ranged.results) > 0
        # Far-apart clusters, so the analytic bounds settle every k-NN spec.
        clusters = UncertainEngine(
            [GaussianObject(i, 30.0 * i, 30.0 * i + 2.0) for i in range(8)]
        )
        knn = clusters.execute_batch(
            [CKNNQuery(30.0 * i + 1.0, threshold=0.5, k=1) for i in range(8)]
        )
        assert all(r.answers for r in knn.results)
        assert calls["law"] == calls["parametric_distance"] == 0
        assert histogram_counter["n"] == 0


class TestFallbackAccounting:
    """A query the analytic brackets cannot settle pays for the failed
    attempt; its phases must say so (whole units under ``unit_clock``)."""

    @pytest.mark.parametrize("batched", [False, True], ids=["execute", "batch"])
    def test_failed_analytic_attempt_is_booked(self, unit_clock, batched):
        with pytest.raises(ValueError):
            EngineConfig(analytic_grid=64, analytic_max_grid=8)
        # The smallest admissible ceiling: one coarse table, no escalation.
        config = dict(analytic_grid=8, analytic_max_grid=8)
        spec = query_specs(threshold=0.3, tolerance=0.0, n=1)[0]

        def run(**overrides):
            engine = UncertainEngine(
                gaussian_objects(), EngineConfig(**config, **overrides)
            )
            if batched:
                return engine.execute_batch([spec]).results[0]
            return engine.execute(spec)

        plain = run(parametric_fast_path=False)
        fallback = run()
        assert fallback.refined_objects > 0, "the analytic path never refines"
        assert fallback.answers == plain.answers
        # One analytic table and one chain run went nowhere.
        assert fallback.timings.initialization == plain.timings.initialization + 1
        assert fallback.timings.verification == plain.timings.verification + 1
        assert fallback.timings.refinement == plain.timings.refinement
