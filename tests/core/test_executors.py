"""Tests for the executor layer's resolution and in-process backends.

``EngineConfig.executor`` resolves to a concrete backend; the serial
backend and the process backend's inline path (batches below
``process_min_batch`` run on the parent's lanes) must answer
bit-identically to each other and to the single engine, and the choice
must be visible through ``stats()`` and ``explain()``.  The process
workers have their own suite (``test_process_executor.py``) because
they spawn interpreters.
"""

import importlib
import os

import pytest

from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.engine.executors import make_executor, resolve_backend
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.uncertainty.objects import UncertainObject
from tests.conftest import make_random_objects
from tests.core.test_sharded import assert_batches_identical, mixed_specs


class TestResolution:
    def test_non_auto_names_pass_through(self):
        for name in ("serial", "process"):
            assert resolve_backend(EngineConfig(executor=name)) == name

    def test_auto_is_serial_for_non_parallel_hosts(self):
        assert resolve_backend(EngineConfig(), parallel=False) == "serial"

    def test_auto_resolves_to_a_parallel_backend(self):
        resolved = resolve_backend(EngineConfig(), parallel=True)
        assert resolved == ("process" if (os.cpu_count() or 1) >= 2 else "serial")

    def test_unknown_names_rejected(self):
        for name in ("gpu", "thread"):
            with pytest.raises(ValueError, match="unknown executor"):
                EngineConfig(executor=name)
            with pytest.raises(ValueError):
                make_executor(name, host=None)

    def test_process_min_batch_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(process_min_batch=-1)

    def test_engine_exposes_resolved_backend(self, rng):
        objects = make_random_objects(rng, 12)
        engine = ShardedEngine(objects, EngineConfig(executor="serial"), n_shards=2)
        assert engine.executor == "serial"
        engine = ShardedEngine(objects, EngineConfig(executor="auto"), n_shards=2)
        assert engine.executor in ("serial", "process")


class TestInProcessBackendIdentity:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_mixed_batch_matches_single_engine(self, rng, backend):
        objects = make_random_objects(rng, 40)
        specs = mixed_specs()
        want = UncertainEngine(objects).execute_batch(specs)
        with ShardedEngine(
            objects, EngineConfig(executor=backend), n_shards=2
        ) as engine:
            got = engine.execute_batch(specs)
            assert_batches_identical(got, want)

    def test_serial_and_process_agree_after_mutations(self, rng):
        objects = make_random_objects(rng, 30)
        newcomer = UncertainObject.uniform("newcomer", 18.0, 26.0)
        specs = [CPNNQuery(q, threshold=0.3) for q in (4.0, 22.0, 41.0, 55.0)]
        engines = {
            name: ShardedEngine(
                list(objects), EngineConfig(executor=name), n_shards=2
            )
            for name in ("serial", "process")
        }
        single = UncertainEngine(list(objects))
        try:
            for engine in (*engines.values(), single):
                engine.remove(objects[3].key)
                engine.insert(newcomer)
            want = single.execute_batch(specs)
            for engine in engines.values():
                assert_batches_identical(engine.execute_batch(specs), want)
        finally:
            for engine in engines.values():
                engine.close()

    def test_linear_scan_mode(self, rng):
        objects = make_random_objects(rng, 20)
        specs = [CPNNQuery(q, threshold=0.3) for q in (9.0, 27.0, 44.0)]
        want = UncertainEngine(
            objects, EngineConfig(use_rtree=False)
        ).execute_batch(specs)
        for backend in ("serial", "process"):
            config = EngineConfig(use_rtree=False, executor=backend)
            with ShardedEngine(objects, config, n_shards=2) as engine:
                assert_batches_identical(engine.execute_batch(specs), want)


class TestObservability:
    def test_sharded_stats_report_backend(self, rng):
        objects = make_random_objects(rng, 15)
        config = EngineConfig(executor="process")
        with ShardedEngine(objects, config, n_shards=2) as engine:
            stats = engine.stats()
            assert stats["executor"]["backend"] == "process"
            engine.execute_batch([CPNNQuery(11.0, threshold=0.3)])
            parallel = engine.stats()["shards"]["parallel"]
            # One spec is below ``process_min_batch``: it ran inline.
            assert parallel["backend"] == "serial"

    def test_single_engine_stats_report_serial(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 8))
        assert engine.stats()["executor"]["backend"] == "serial"

    def test_explain_mentions_backend(self, rng):
        objects = make_random_objects(rng, 15)
        config = EngineConfig(executor="serial")
        with ShardedEngine(objects, config, n_shards=2) as engine:
            for spec in (
                CPNNQuery(9.0, threshold=0.3),
                CKNNQuery(9.0, threshold=0.4, k=2),
                CRangeQuery(9.0, threshold=0.5, radius=5.0),
            ):
                plan = engine.explain(spec)
                assert any("serial executor" in stage for stage in plan.stages)
                assert plan.shards["executor"]["backend"] == "serial"

    def test_close_is_idempotent_and_engine_stays_usable(self, rng):
        objects = make_random_objects(rng, 15)
        engine = ShardedEngine(objects, EngineConfig(executor="process"), n_shards=2)
        specs = [CPNNQuery(12.0, threshold=0.3)]
        first = engine.execute_batch(specs)
        engine.close()
        engine.close()
        again = engine.execute_batch(specs)
        assert_batches_identical(again, first)
        engine.close()


class TestSurface:
    def test_executors_surface_is_pinned(self):
        """Two backends behind ``auto``: the thread pool left in 11.0,
        and any return must come with a test on a free-threaded build."""
        from repro.core.engine.executors import BACKENDS
        from repro.core.engine.executors.breaker import degradation_chain

        assert BACKENDS == ("auto", "serial", "process")
        assert degradation_chain("process") == ("process", "serial")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.core.engine.executors.thread")
