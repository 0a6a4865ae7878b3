"""Tests for the C-PNN engine and the Basic / Refine references."""

import dataclasses
import inspect
import pickle

import pytest

from repro.continuous import ContinuousMonitor
from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CPNNQuery, Label
from repro.experiments.strategies import STRATEGIES, basic
from repro.uncertainty.objects import UncertainObject
from tests.conftest import make_random_objects, two_object_textbook_case


class TestConfiguration:
    def test_default_strategy_is_vr(self):
        """C-PNN specs always run the verifier chain: VR is the only
        pipeline in the engine."""
        engine = UncertainEngine([UncertainObject.uniform(0, 0, 1)])
        plan = engine.explain(CPNNQuery(0.5))
        assert plan.verifiers == ("RS", "L-SR", "U-SR")
        assert not hasattr(plan, "strategy")

    def test_settable_surface_is_pinned(self):
        """Four config fields, three engine parameters, one spec per
        query call: a knob that comes back must come back through
        review."""
        assert tuple(f.name for f in dataclasses.fields(EngineConfig)) == (
            "use_rtree",
            "executor",
            "process_min_batch",
            "parametric_fast_path",
        )
        assert tuple(inspect.signature(ShardedEngine).parameters) == (
            "objects",
            "config",
            "n_shards",
        )
        for engine_cls in (UncertainEngine, ShardedEngine):
            for method, params in (
                ("execute", ("self", "spec")),
                ("execute_batch", ("self", "specs")),
                ("explain", ("self", "spec")),
            ):
                signature = inspect.signature(getattr(engine_cls, method))
                assert tuple(signature.parameters) == params, method
        assert tuple(inspect.signature(ContinuousMonitor).parameters) == (
            "engine",
            "group_size",
        )
        # Every field plain data, so any config crosses the process
        # executor's spawn boundary.
        config = EngineConfig(
            use_rtree=False,
            executor="serial",
            process_min_batch=3,
            parametric_fast_path=False,
        )
        assert all(
            getattr(config, f.name) != f.default
            for f in dataclasses.fields(EngineConfig)
        )
        assert pickle.loads(pickle.dumps(config)) == config

    def test_config_is_frozen(self):
        engine = UncertainEngine([UncertainObject.uniform(0, 0, 1)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            engine.config.use_rtree = False
        assert engine.config.use_rtree is True


class TestQueryApi:
    def test_accepts_prepared_query(self):
        objects, q = two_object_textbook_case()
        engine = UncertainEngine(objects)
        result = engine.execute(CPNNQuery(q, threshold=0.5, tolerance=0.0))
        assert result.answers == ("A",)

    def test_bare_point_uses_paper_defaults(self):
        objects, q = two_object_textbook_case()
        result = UncertainEngine(objects).execute(q)
        assert "A" in result.answers


class TestTextbookAnswers:
    def test_exact_probabilities(self):
        objects, q = two_object_textbook_case()
        pnn = UncertainEngine(objects).pnn(q)
        assert pnn["A"] == pytest.approx(0.875)
        assert pnn["B"] == pytest.approx(0.125)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_threshold_partitions(self, strategy):
        objects, q = two_object_textbook_case()
        engine = UncertainEngine(objects)
        answer = STRATEGIES[strategy]
        assert set(
            answer(engine, CPNNQuery(q, threshold=0.1, tolerance=0.0)).answers
        ) == {"A", "B"}
        assert set(
            answer(engine, CPNNQuery(q, threshold=0.5, tolerance=0.0)).answers
        ) == {"A"}
        assert set(
            answer(engine, CPNNQuery(q, threshold=0.9, tolerance=0.0)).answers
        ) == set()


class TestStrategyAgreement:
    def test_all_strategies_agree_at_zero_tolerance(self, rng):
        for _ in range(6):
            objects = make_random_objects(rng, int(rng.integers(3, 20)))
            engine = UncertainEngine(objects)
            q = float(rng.uniform(-5, 65))
            threshold = float(rng.uniform(0.05, 0.9))
            spec = CPNNQuery(q, threshold=threshold, tolerance=0.0)
            answers = {
                name: set(answer(engine, spec).answers)
                for name, answer in STRATEGIES.items()
            }
            assert answers["basic"] == answers["refine"] == answers["vr"]

    def test_basic_exact_is_the_engines_pnn(self, rng):
        """The Basic reference integrates every candidate with the
        engine's own exact tier: its records carry ``engine.pnn``."""
        for _ in range(4):
            objects = make_random_objects(rng, int(rng.integers(3, 20)))
            engine = UncertainEngine(objects)
            q = float(rng.uniform(-5, 65))
            result = basic(engine, CPNNQuery(q, threshold=0.3, tolerance=0.0))
            pnn = engine.pnn(q)
            assert {r.key: r.exact for r in result.records} == pnn
            assert result.refined_objects == len(pnn)

    def test_rtree_and_linear_filters_agree(self, rng):
        objects = make_random_objects(rng, 25)
        with_tree = UncertainEngine(objects, EngineConfig(use_rtree=True))
        without = UncertainEngine(objects, EngineConfig(use_rtree=False))
        q = 30.0
        assert set(with_tree.execute(CPNNQuery(q, tolerance=0.0)).answers) == set(
            without.execute(CPNNQuery(q, tolerance=0.0)).answers
        )


class TestResultContents:
    def test_pnn_sums_to_one(self, rng):
        objects = make_random_objects(rng, 15)
        pnn = UncertainEngine(objects).pnn(30.0)
        assert sum(pnn.values()) == pytest.approx(1.0, abs=1e-9)

    def test_records_cover_candidates(self, rng):
        objects = make_random_objects(rng, 15)
        result = UncertainEngine(objects).execute(CPNNQuery(30.0))
        assert len(result.records) >= 1
        for record in result.records:
            assert 0.0 <= record.lower <= record.upper <= 1.0
            assert record.label in (Label.SATISFY, Label.FAIL)

    def test_basic_records_have_exact_probabilities(self, rng):
        objects = make_random_objects(rng, 10)
        result = basic(UncertainEngine(objects), CPNNQuery(30.0))
        total = sum(r.exact for r in result.records)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_timings_populated(self, rng):
        objects = make_random_objects(rng, 10)
        result = UncertainEngine(objects).execute(CPNNQuery(30.0))
        assert result.timings.filtering >= 0.0
        assert result.timings.total > 0.0

    def test_unknown_after_verifier_only_for_vr(self, rng):
        objects = make_random_objects(rng, 10)
        engine = UncertainEngine(objects)
        assert basic(engine, CPNNQuery(30.0)).unknown_after_verifier == {}
        vr = engine.execute(CPNNQuery(30.0))
        assert "RS" in vr.unknown_after_verifier

    def test_fmin_recorded(self, rng):
        objects = make_random_objects(rng, 10)
        result = UncertainEngine(objects).execute(CPNNQuery(30.0))
        assert result.fmin == pytest.approx(
            min(o.maxdist(30.0) for o in objects)
        )


class TestSpecialCases:
    def test_single_object_probability_one(self):
        engine = UncertainEngine([UncertainObject.uniform("solo", 0, 1)])
        result = engine.execute(CPNNQuery(5.0, threshold=1.0, tolerance=0.0))
        assert result.answers == ("solo",)
        assert engine.pnn(5.0)["solo"] == pytest.approx(1.0)

    def test_threshold_one_returns_at_most_one(self, rng):
        objects = make_random_objects(rng, 12)
        engine = UncertainEngine(objects)
        for answer in STRATEGIES.values():
            result = answer(engine, CPNNQuery(30.0, threshold=1.0, tolerance=0.0))
            assert len(result.answers) <= 1

    def test_min_query_is_pnn_at_left_infinity(self, rng):
        # The paper: a minimum query is a PNN with q left of everything.
        objects = make_random_objects(rng, 8, families=("uniform",))
        engine = UncertainEngine(objects)
        q = min(o.lo for o in objects) - 1e5
        pnn = engine.pnn(q)
        # The object with the smallest left endpoint must have the
        # highest probability of being the minimum... at least nonzero.
        best = max(pnn, key=pnn.get)
        assert pnn[best] > 0
        assert sum(pnn.values()) == pytest.approx(1.0, abs=1e-9)

    def test_identical_objects_share_probability(self):
        objects = [UncertainObject.uniform(i, 0.0, 2.0) for i in range(4)]
        pnn = UncertainEngine(objects).pnn(1.0)
        for p in pnn.values():
            assert p == pytest.approx(0.25, abs=1e-9)

    def test_tolerance_widens_answers_only_near_threshold(self, rng):
        objects = make_random_objects(rng, 15)
        engine = UncertainEngine(objects)
        q = 30.0
        strict = set(engine.execute(CPNNQuery(q, threshold=0.3, tolerance=0.0)).answers)
        lax = set(engine.execute(CPNNQuery(q, threshold=0.3, tolerance=0.2)).answers)
        assert strict <= lax
        exact = engine.pnn(q)
        for key in lax - strict:
            assert exact[key] >= 0.3 - 0.2 - 1e-9


class TestDimensionGuard:
    def test_mixed_dimensions_rejected(self):
        from repro.uncertainty.twod import UncertainDisk

        with pytest.raises(ValueError):
            UncertainEngine(
                [
                    UncertainObject.uniform("1d", 0.0, 1.0),
                    UncertainDisk("2d", (0.0, 0.0), 1.0),
                ]
            )
