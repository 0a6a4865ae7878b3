"""Schema pinning for the executor failure counters (DESIGN.md §14).

``stats()["executor"]``, ``explain().executor``, and
``QueryResult.diagnostics`` are monitoring surfaces: dashboards and the
service layer read them by key.  These tests pin the schema — one
canonical counter set across every engine and backend — so a rename or
dropped key fails here, not in a production dashboard.
"""

import pytest

from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CPNNQuery
from repro.service.faults import FaultPlan, raise_error
from tests.conftest import make_random_objects

#: The pinned counter schema.  Extending is fine; renaming or removing
#: any of these is a breaking change to the monitoring surface.
CANONICAL_COUNTERS = {
    "worker_failures",
    "respawns",
    "in_process_retries",
    "timeouts",
    "worker_errors",
    "shm_fallbacks",
    "quarantined",
    "quarantine_hits",
}

REQUIRED_KEYS = CANONICAL_COUNTERS | {
    "backend",
    "configured",
    "inline_fallbacks",
    "breaker",
}


def assert_canonical(executor_stats: dict) -> None:
    missing = REQUIRED_KEYS - set(executor_stats)
    assert not missing, f"executor stats missing pinned keys: {missing}"
    for counter in CANONICAL_COUNTERS:
        assert isinstance(executor_stats[counter], int)
    assert isinstance(executor_stats["breaker"], dict)
    assert "state" in executor_stats["breaker"]


class TestStatsSchema:
    def test_single_engine_carries_the_full_schema(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 8))
        stats = engine.stats()["executor"]
        assert_canonical(stats)
        assert stats["backend"] == "serial"
        assert stats["breaker"]["state"] == "disabled"
        assert all(stats[c] == 0 for c in CANONICAL_COUNTERS)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_sharded_engine_carries_the_full_schema(self, rng, backend):
        objects = make_random_objects(rng, 12)
        config = EngineConfig(executor=backend)
        with ShardedEngine(objects, config, n_shards=2) as engine:
            engine.execute_batch([CPNNQuery(10.0, threshold=0.3)])
            stats = engine.stats()["executor"]
            assert_canonical(stats)
            assert stats["configured"] == backend
            assert stats["breaker"]["state"] == "closed"

    def test_process_backend_carries_the_full_schema(self, rng):
        objects = make_random_objects(rng, 16)
        config = EngineConfig(executor="process", process_min_batch=0)
        with ShardedEngine(objects, config, n_shards=2) as engine:
            engine.execute_batch(
                [CPNNQuery(q, threshold=0.3) for q in (6.0, 40.0)]
            )
            stats = engine.stats()["executor"]
            assert_canonical(stats)
            assert stats["backend"] == "process"
            # Pool-specific keys ride along untouched.
            for key in ("workers", "alive", "dispatches", "pending_ops"):
                assert key in stats


class TestExplainSchema:
    def test_single_engine_plan_reports_executor(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 8))
        plan = engine.explain(CPNNQuery(9.0, threshold=0.3))
        assert_canonical(plan.executor)
        assert "executor" in plan.describe()

    def test_sharded_plan_reports_executor(self, rng):
        objects = make_random_objects(rng, 12)
        config = EngineConfig(executor="process")
        with ShardedEngine(objects, config, n_shards=2) as engine:
            plan = engine.explain(CPNNQuery(9.0, threshold=0.3))
            assert_canonical(plan.executor)
            assert plan.executor["backend"] == "process"
            described = plan.describe()
            assert "breaker closed" in described


class TestResultDiagnostics:
    def test_happy_path_results_carry_no_diagnostics(self, rng):
        objects = make_random_objects(rng, 12)
        config = EngineConfig(executor="serial")
        with ShardedEngine(objects, config, n_shards=2) as engine:
            result = engine.execute(CPNNQuery(9.0, threshold=0.3))
        assert result.diagnostics == {}
        assert "diagnostics" not in repr(result)

    def test_recovered_batches_stamp_diagnostics_and_repr(self, rng):
        objects = make_random_objects(rng, 12)
        plan = FaultPlan().script(
            "executor.dispatch",
            raise_error(lambda: RuntimeError("injected")),
            at=1,
            match={"backend": "process", "kind": "pnn"},
        )
        config = EngineConfig(executor="process", process_min_batch=0)
        with ShardedEngine(objects, config, n_shards=2) as engine:
            with plan:
                result = engine.execute(CPNNQuery(9.0, threshold=0.3))
        assert plan.fired
        note = result.diagnostics["executor"]
        assert note["recovered_inline"] is True
        assert note["backend"] == "serial"
        assert note["configured"] == "process"
        assert "diagnostics=['executor']" in repr(result)
