"""Unit tests for the unified query façade.

``UncertainEngine.execute`` / ``execute_batch`` / ``explain`` over the
typed spec hierarchy and the uniform empty-input semantics.
"""

import numpy as np
import pytest

from repro.baselines import scalar_knn_query, scalar_range_query
from repro.baselines.scalar import assert_covers
from repro.core.engine import UncertainEngine
from repro.core.types import (
    CKNNQuery,
    CPNNQuery,
    CRangeQuery,
    Label,
    QueryPlan,
    QueryResult,
    QuerySpec,
)
from repro.experiments.strategies import basic
from repro.uncertainty.objects import UncertainObject
from tests.conftest import make_random_objects


def records_tuple(result):
    return [
        (r.key, r.label, r.lower, r.upper, r.exact) for r in result.records
    ]


class TestSpecHierarchy:
    def test_common_base(self):
        assert issubclass(CPNNQuery, QuerySpec)
        assert issubclass(CKNNQuery, QuerySpec)
        assert issubclass(CRangeQuery, QuerySpec)

    def test_defaults(self):
        assert CPNNQuery(1.0).threshold == 0.3
        assert CPNNQuery(1.0).tolerance == 0.01
        # k-NN / range answers are exact, so their tolerance defaults to 0.
        assert CKNNQuery(1.0, k=2).tolerance == 0.0
        assert CRangeQuery(1.0, radius=1.0).tolerance == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CPNNQuery(1.0, threshold=0.0)
        with pytest.raises(ValueError):
            CPNNQuery(1.0, tolerance=1.5)
        with pytest.raises(ValueError):
            CKNNQuery(1.0, k=0)
        with pytest.raises(ValueError):
            CKNNQuery(1.0, k=1.5)
        with pytest.raises(ValueError):
            CRangeQuery(1.0, radius=-0.1)

    def test_k_and_radius_are_keyword_only(self):
        with pytest.raises(TypeError):
            CKNNQuery(1.0, 0.3, 0.0, 2)  # noqa: too many positional args


class TestExecuteDispatch:
    def test_each_family_returns_query_result(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 8))
        for spec in (
            CPNNQuery(30.0, 0.3, 0.0),
            CKNNQuery(30.0, threshold=0.3, k=2),
            CRangeQuery(30.0, threshold=0.3, radius=5.0),
        ):
            result = engine.execute(spec)
            assert isinstance(result, QueryResult)
            assert result.spec is spec
            assert result.timings.total >= 0.0

    def test_bare_point_becomes_default_cpnn(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 6))
        result = engine.execute(30.0)
        assert isinstance(result.spec, CPNNQuery)
        assert result.spec.threshold == 0.3

    def test_strategy_override(self, rng):
        """The per-call override left the façade: Basic is a reference
        beside the engine, and a stale ``strategy=`` fails loudly."""
        engine = UncertainEngine(make_random_objects(rng, 8))
        spec = CPNNQuery(30.0, 0.3, 0.0)
        vr = engine.execute(spec)
        reference = basic(engine, spec)
        assert set(vr.answers) == set(reference.answers)
        assert reference.refined_objects == len(reference.records)
        assert basic(engine, 30.0).spec == CPNNQuery(30.0)
        with pytest.raises(TypeError):
            basic(engine, CKNNQuery(30.0, k=2))
        with pytest.raises(TypeError):
            engine.execute(spec, strategy="basic")
        with pytest.raises(TypeError):
            engine.execute_batch([spec], strategy="basic")

    def test_knn_covers_everything(self, rng):
        objects = make_random_objects(rng, 4)
        engine = UncertainEngine(objects)
        result = engine.execute(CKNNQuery(0.0, threshold=0.5, k=10))
        assert set(result.answers) == {o.key for o in objects}
        assert all(r.exact == 1.0 for r in result.records)

    def test_mixed_batch_preserves_input_order(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 10))
        specs = [
            CKNNQuery(10.0, threshold=0.2, k=2),
            CPNNQuery(20.0, 0.3, 0.0),
            CRangeQuery(30.0, threshold=0.5, radius=4.0),
            CPNNQuery(40.0, 0.3, 0.0),
            CKNNQuery(50.0, threshold=0.2, k=1),
        ]
        batch = engine.execute_batch(specs)
        assert len(batch) == len(specs)
        for spec, result in zip(specs, batch):
            assert result.spec is spec
            loop = engine.execute(spec)
            assert result.answers == loop.answers
            assert records_tuple(result) == records_tuple(loop)


class TestKnnOutOfRange:
    """k validation fires at spec construction; k > N resolves to the
    trivial all-satisfy case at the engine *before any work starts* —
    never as a mid-batch failure from inside the filtering kernels."""

    def test_bad_k_rejected_at_construction(self):
        for bad in (0, -3, 2.5, True):
            with pytest.raises(ValueError, match="k must be an integer"):
                CKNNQuery(1.0, k=bad)

    def test_whole_float_k_normalised(self):
        spec = CKNNQuery(1.0, k=3.0)
        assert spec.k == 3 and isinstance(spec.k, int)

    def test_k_exceeding_engine_size_in_mixed_batch(self, rng, constructed):
        """A k > N spec mid-batch must not disturb its neighbours and
        must cost nothing (no filtering, no distributions)."""
        objects = make_random_objects(rng, 5)
        engine = UncertainEngine(objects)
        specs = [
            CRangeQuery(10.0, threshold=0.5, radius=4.0),
            CKNNQuery(30.0, threshold=0.2, k=99),
            CPNNQuery(20.0, 0.3, 0.0),
        ]
        batch = engine.execute_batch(specs)
        assert len(batch) == 3
        trivial = batch[1]
        assert set(trivial.answers) == {o.key for o in objects}
        assert all(r.exact == 1.0 for r in trivial.records)
        del constructed[:]
        engine.execute_batch(specs[1:2])
        assert constructed == []  # the trivial spec builds no distribution
        for spec, result in zip(specs, batch):
            loop = engine.execute(spec)
            assert result.answers == loop.answers
            assert records_tuple(result) == records_tuple(loop)

    def test_trivial_k_after_shrinking_engine(self, rng):
        """k valid at construction may exceed N after removals; the
        engine still resolves it as the trivial case, never an error."""
        objects = make_random_objects(rng, 4)
        engine = UncertainEngine(objects)
        spec = CKNNQuery(30.0, threshold=0.2, k=3)
        engine.execute(spec)
        for obj in objects[:2]:
            assert engine.remove(obj.key)
        result = engine.execute(spec)
        assert set(result.answers) == {o.key for o in engine.objects}

    def test_explain_reports_trivial_case(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 3))
        plan = engine.explain(CKNNQuery(1.0, k=10))
        assert plan.candidates == 3
        assert "every object qualifies" in plan.stages[0]


class TestKnnRoutedEdgeCases:
    """Deterministic shapes the random property tests rarely hit."""

    def test_exactly_k_survivors_matches_scalar(self):
        # Three tight objects near q, five far away: the f_min^k filter
        # keeps exactly k = 3 survivors, exercising the lower-bound
        # collapse branch (the scalar path's cut lies beyond f_min^k).
        objects = [
            UncertainObject.uniform("a", 0.0, 1.0),
            UncertainObject.uniform("b", 0.2, 1.1),
            UncertainObject.uniform("c", 0.1, 0.9),
        ] + [
            UncertainObject.uniform(f"far-{i}", 50.0 + 2 * i, 51.0 + 2 * i)
            for i in range(5)
        ]
        engine = UncertainEngine(objects)
        for threshold in (0.1, 0.5, 0.9, 1.0):
            for k in (1, 2, 3, 4):
                result = engine.execute(CKNNQuery(0.5, threshold=threshold, k=k))
                assert_covers(result, *scalar_knn_query(objects, 0.5, k, threshold))
                # candidate-shaped: the far objects are implied FAIL 0/0
                # unless k reaches past the three near ones
                assert len(result.records) == (3 if k <= 3 else 4), (threshold, k)

    def test_duplicate_near_points_match_scalar(self):
        # Ties in the sorted near-point list exercise the
        # first-occurrence (list.index) replay in the routed bounds.
        objects = [
            UncertainObject.uniform("t1", 0.0, 1.0),
            UncertainObject.uniform("t2", 0.0, 1.0),
            UncertainObject.uniform("t3", 0.0, 2.0),
            UncertainObject.uniform("t4", 5.0, 6.0),
        ]
        engine = UncertainEngine(objects)
        for threshold in (0.2, 0.6):
            for k in (1, 2, 3):
                result = engine.execute(CKNNQuery(0.0, threshold=threshold, k=k))
                assert_covers(result, *scalar_knn_query(objects, 0.0, k, threshold))


class TestEmptyInputs:
    """Satellite regression: empty datasets/batches return empty results
    uniformly across the façade, while the scalar references and the
    exact ``pnn`` probabilities keep their raising behaviour."""

    def test_empty_engine_executes_all_families(self):
        engine = UncertainEngine([])
        for spec in (
            CPNNQuery(1.0),
            CKNNQuery(1.0, k=3),
            CRangeQuery(1.0, radius=2.0),
        ):
            result = engine.execute(spec)
            assert result.answers == ()
            assert result.records == []
            assert result.spec is spec
        assert basic(engine, CPNNQuery(1.0)).records == []

    def test_empty_engine_execute_batch(self):
        engine = UncertainEngine([])
        batch = engine.execute_batch(
            [CPNNQuery(1.0), CKNNQuery(2.0, k=1), CRangeQuery(3.0, radius=1.0)]
        )
        assert len(batch) == 3
        assert all(result.answers == () for result in batch)

    def test_empty_batch_on_populated_engine(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 4))
        batch = engine.execute_batch([])
        assert len(batch) == 0

    def test_reference_paths_still_raise_on_empty(self):
        with pytest.raises(ValueError):
            scalar_knn_query([], 0.0, 1, 0.5)
        with pytest.raises(ValueError):
            scalar_range_query([], 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            UncertainEngine([]).pnn(1.0)

    def test_facade_works_after_remove_to_empty_and_insert(self):
        engine = UncertainEngine([UncertainObject.uniform("solo", 0.0, 1.0)])
        assert engine.remove("solo")
        assert engine.execute(CKNNQuery(0.5, k=1)).answers == ()
        engine.insert(UncertainObject.uniform("b", 2.0, 3.0))
        assert engine.execute(CRangeQuery(2.5, threshold=0.9, radius=1.0)).answers == (
            "b",
        )


class TestExplain:
    def test_cpnn_plan(self, rng):
        objects = make_random_objects(rng, 12)
        engine = UncertainEngine(objects)
        plan = engine.explain(CPNNQuery(30.0, 0.3, 0.01))
        assert isinstance(plan, QueryPlan)
        assert plan.family == "cpnn"
        assert plan.verifiers == ("RS", "L-SR", "U-SR")
        assert plan.candidates + plan.pruned == len(objects)
        assert np.isfinite(plan.fmin)
        assert "verifier" in plan.describe() or "RS" in plan.describe()

    def test_knn_plan_counts_survivors(self, rng):
        objects = make_random_objects(rng, 12)
        engine = UncertainEngine(objects)
        plan = engine.explain(CKNNQuery(30.0, threshold=0.3, k=2))
        assert plan.family == "cknn"
        assert 2 <= plan.candidates <= len(objects)
        assert plan.candidates + plan.pruned == len(objects)
        result = engine.execute(CKNNQuery(30.0, threshold=0.3, k=2))
        nonzero = sum(1 for r in result.records if r.upper > 0.0)
        assert nonzero <= plan.candidates

    def test_range_plan_counts(self, rng):
        objects = make_random_objects(rng, 12)
        engine = UncertainEngine(objects)
        plan = engine.explain(CRangeQuery(30.0, threshold=0.5, radius=5.0))
        assert plan.family == "crange"
        assert plan.candidates + plan.pruned == len(objects)
        assert plan.fmin == 5.0

    def test_plans_equal_the_sweep_counts(self, rng):
        """k-NN and range plans take their counts from the packed
        descent; on a fixed engine they equal the ``(B, N)`` sweep's."""
        objects = make_random_objects(rng, 200)
        engine = UncertainEngine(objects)
        sweep = engine._batch_filter.matrices
        for q in (0.5, 17.25, 30.0, 61.0):
            mindist, maxdist = (row[0] for row in sweep([q]))
            for k in (1, 3, 40):
                plan = engine.explain(CKNNQuery(q, threshold=0.3, k=k))
                fmin_k = np.partition(maxdist, k - 1)[k - 1]
                survivors = int(np.count_nonzero(mindist <= fmin_k))
                assert (plan.candidates, plan.pruned) == (survivors, 200 - survivors)
                assert plan.fmin == fmin_k
            for radius in (0.0, 2.0, 9.5):
                plan = engine.explain(CRangeQuery(q, threshold=0.5, radius=radius))
                sure_in = int(np.count_nonzero(maxdist <= radius))
                sure_out = int(np.count_nonzero(mindist > radius))
                assert plan.pruned == sure_in + sure_out
                assert plan.candidates == 200 - sure_in - sure_out
                assert f"{sure_in} certainly inside, {sure_out} certainly outside" in (
                    plan.stages[0]
                )

    def test_empty_engine_plan(self):
        plan = UncertainEngine([]).explain(CPNNQuery(1.0))
        assert plan.index == "none"
        assert plan.candidates == 0
        assert "empty" in plan.stages[0]

    def test_explain_computes_no_probabilities(self, rng, constructed):
        engine = UncertainEngine(make_random_objects(rng, 6))
        del constructed[:]
        engine.explain(CKNNQuery(30.0, k=2))
        engine.explain(CRangeQuery(30.0, radius=2.0))
        assert constructed == []


class TestRangeRecords:
    def test_range_labels(self, rng):
        engine = UncertainEngine(
            [
                UncertainObject.uniform("inside", 1.0, 2.0),
                UncertainObject.uniform("straddle", 4.0, 6.0),
                UncertainObject.uniform("outside", 50.0, 51.0),
            ]
        )
        result = engine.execute(CRangeQuery(0.0, threshold=0.5, radius=5.0))
        by_key = {r.key: r for r in result.records}
        assert by_key["inside"].label is Label.SATISFY
        assert by_key["inside"].exact is None  # decided by MBR alone
        assert by_key["straddle"].exact == pytest.approx(0.5)
        # candidate-shaped: the filter proved "outside" outside, so it has
        # no record — an implied FAIL 0/0, as the oracle confirms
        assert "outside" not in by_key
        assert [r.key for r in result.records] == ["inside", "straddle"]
        assert_covers(result, *scalar_range_query(engine.objects, 0.0, 5.0, 0.5))
        assert result.refined_objects == 1
