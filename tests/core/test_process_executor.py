"""End-to-end tests for the process executor (DESIGN.md §13).

The expensive contract: a persistent spawn-based worker pool, attached
once to a shared-memory coordinate segment, must answer **bit-identically**
to the single engine — cold, warm (resident worker caches), and across
a mutation stream replayed to the workers — and must survive a worker
dying mid-batch by retrying in-process and respawning.  One module-scoped
engine pair serves the identity tests (spawn costs ~0.2 s per worker);
the crash and lifecycle tests build their own.
"""

import dataclasses
import glob

import numpy as np

from repro import hooks
from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.experiments.strategies import STRATEGIES
from repro.storage.shmstore import SEGMENT_PREFIX
from repro.uncertainty.objects import UncertainObject
from tests.conftest import make_random_objects
from tests.core.test_sharded import (
    assert_batches_identical,
    assert_results_identical,
)

#: Every C-PNN batch in this module must go to the workers.
PROCESS_CONFIG = EngineConfig(executor="process", process_min_batch=0)


def make_pair(rng, n=36, config=PROCESS_CONFIG):
    objects = make_random_objects(rng, n)
    sharded = ShardedEngine(
        objects, dataclasses.replace(config, executor="process"), n_shards=2
    )
    return objects, sharded, UncertainEngine(objects, config)


def specs_for(points):
    return [CPNNQuery(float(q), threshold=0.3, tolerance=0.01) for q in points]


def leaked_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


class TestBitIdentity:
    def test_cold_and_warm_batches_match_single_engine(self, rng):
        _, sharded, single = make_pair(rng)
        try:
            specs = specs_for(np.linspace(2.0, 58.0, 12))
            want = single.execute_batch(specs)
            cold = sharded.execute_batch(specs)
            assert_batches_identical(cold, want)
            assert sharded.stats()["executor"]["backend"] == "process"
            # Warm pass: the workers' resident table caches replay
            # every spec wholesale, still bit-identical.
            warm = sharded.execute_batch(specs)
            assert_batches_identical(warm, single.execute_batch(specs))
            assert warm.result_hits == len(specs)
        finally:
            sharded.close()

    def test_mixed_families_and_strategies(self, rng):
        _, sharded, single = make_pair(rng)
        try:
            mixed = []
            for q in (6.0, 24.0, 47.0):
                mixed.append(CPNNQuery(q, threshold=0.35, tolerance=0.0))
                mixed.append(CKNNQuery(q, threshold=0.4, k=2))
                mixed.append(CRangeQuery(q, threshold=0.5, radius=6.0))
            assert_batches_identical(
                sharded.execute_batch(mixed), single.execute_batch(mixed)
            )
            # The Basic / Refine references filter on the parent, the
            # pipeline ("vr") on a worker: every one answers alike.
            for answer in STRATEGIES.values():
                for spec in specs_for((11.0, 33.0, 52.0)):
                    assert_results_identical(
                        answer(sharded, spec), answer(single, spec)
                    )
        finally:
            sharded.close()

    def test_mutation_stream_replayed_to_workers(self, rng):
        objects, sharded, single = make_pair(rng)
        try:
            specs = specs_for((5.0, 21.0, 38.0, 55.0))
            # Start the pool (and its replicas) before mutating, so the
            # ops travel through the mutation log, not the attach
            # snapshot.
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )
            moved = UncertainObject.uniform(objects[5].key, 40.0, 49.0)
            fresh = UncertainObject.uniform("fresh", 17.0, 23.0)
            for engine in (sharded, single):
                engine.insert(fresh)
                engine.remove(objects[2].key)
                engine.replace(objects[5].key, moved)
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )
            # And again after the log has been compacted.
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )
        finally:
            sharded.close()

    def test_small_work_on_a_warm_pool_dispatches_nothing(self, rng):
        """Below ``process_min_batch`` the parent answers on its own
        filter and lanes: a warm pool sees no dispatch for a single
        ``execute`` of any family nor for a small batch, and answers
        equal the single engine's ``execute`` bit for bit.  The pending
        mutation log then rides the next remote batch, once."""
        objects, sharded, single = make_pair(rng, config=EngineConfig())
        kinds = []
        handler = hooks.install(
            lambda point, context: kinds.append(context["kind"])
            if point == "executor.dispatch"
            else None
        )
        try:
            assert sharded.warm_executor() == "process"
            fresh = UncertainObject.uniform("fresh", 40.0, 52.0)
            for engine in (sharded, single):
                engine.remove(objects[0].key)
                engine.insert(fresh)
            specs = specs_for((8.0, 21.0, 44.0, 55.0))
            for spec in specs + [
                CKNNQuery(30.0, threshold=0.4, k=2),
                CRangeQuery(30.0, threshold=0.5, radius=6.0),
            ]:
                assert_results_identical(sharded.execute(spec), single.execute(spec))
            batch = sharded.execute_batch(specs)
            for result, spec in zip(batch.results, specs):
                assert_results_identical(result, single.execute(spec))
            assert kinds == []
            assert sharded.stats()["executor"]["pending_ops"] > 0
            remote = specs_for(np.linspace(2.0, 58.0, 16))
            assert_batches_identical(
                sharded.execute_batch(remote), single.execute_batch(remote)
            )
            assert kinds == ["pnn"]
            stats = sharded.stats()["executor"]
            assert stats["worker_failures"] == 0
            assert stats["pending_ops"] == 0
        finally:
            hooks.uninstall(handler)
            sharded.close()

    def test_linear_scan_mode(self, rng):
        config = EngineConfig(use_rtree=False, process_min_batch=0)
        _, sharded, single = make_pair(rng, config=config)
        try:
            specs = specs_for((9.0, 27.0, 44.0))
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )
        finally:
            sharded.close()

    def test_small_batches_run_inline(self, rng):
        config = EngineConfig(process_min_batch=64)
        _, sharded, single = make_pair(rng, config=config)
        try:
            specs = specs_for((13.0, 31.0))
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )
            stats = sharded.stats()["executor"]
            assert stats["started"] is False  # no spawn was paid
            assert sharded.stats()["shards"]["parallel"]["backend"] == "serial"
        finally:
            sharded.close()


class TestCrashRecovery:
    def test_worker_death_mid_batch_is_transparent(self, rng):
        _, sharded, single = make_pair(rng, n=24)
        try:
            specs = specs_for(np.linspace(3.0, 57.0, 10))
            want = single.execute_batch(specs)
            assert_batches_identical(sharded.execute_batch(specs), want)
            before = sharded.stats()["executor"]
            assert before["worker_failures"] == 0
            # Arm lane 0's worker to die the moment it receives its next
            # work item — the parent must discover the corpse mid-batch,
            # re-execute the item in-process, and still answer
            # bit-identically.
            sharded._executor.inject_crash(0)
            assert_batches_identical(sharded.execute_batch(specs), want)
            after = sharded.stats()["executor"]
            assert after["worker_failures"] == before["worker_failures"] + 1
            assert after["in_process_retries"] >= 1
            # The pool heals: the next dispatch respawns the dead worker
            # and answers keep matching.
            assert_batches_identical(sharded.execute_batch(specs), want)
            healed = sharded.stats()["executor"]
            assert healed["respawns"] >= 1
            assert healed["alive"] == healed["workers"]
        finally:
            sharded.close()

    def test_crash_with_pending_mutations(self, rng):
        objects, sharded, single = make_pair(rng, n=24)
        try:
            specs = specs_for((8.0, 29.0, 51.0))
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )
            for engine in (sharded, single):
                engine.remove(objects[1].key)
            sharded._executor.inject_crash(0)
            # The respawned worker must attach a post-mutation snapshot,
            # not replay a stale one.
            want = single.execute_batch(specs)
            assert_batches_identical(sharded.execute_batch(specs), want)
            assert_batches_identical(sharded.execute_batch(specs), want)
        finally:
            sharded.close()


class TestLifecycle:
    def test_no_segments_leak_across_lifecycle(self, rng):
        before = set(leaked_segments())
        _, sharded, single = make_pair(rng, n=20)
        specs = specs_for((7.0, 26.0, 49.0))
        sharded.execute_batch(specs)
        # Steady state: the attach-time segment is already unlinked
        # (workers keep their mappings; the name is gone).
        assert set(leaked_segments()) <= before
        sharded.close()
        assert set(leaked_segments()) <= before

    def test_close_is_idempotent_and_pool_restarts(self, rng):
        _, sharded, single = make_pair(rng, n=20)
        specs = specs_for((12.0, 34.0, 56.0))
        want = single.execute_batch(specs)
        assert_batches_identical(sharded.execute_batch(specs), want)
        sharded.close()
        sharded.close()
        assert sharded.stats()["executor"]["started"] is False
        # The engine stays usable: the next batch restarts the pool.
        assert_batches_identical(sharded.execute_batch(specs), want)
        assert sharded.stats()["executor"]["started"] is True
        sharded.close()

    def test_context_manager_and_del_release_workers(self, rng):
        objects = make_random_objects(rng, 16)
        with ShardedEngine(objects, PROCESS_CONFIG, n_shards=2) as engine:
            engine.execute_batch(specs_for((10.0, 40.0)))
            assert engine.stats()["executor"]["alive"] == 2
        assert engine.stats()["executor"]["started"] is False

    def test_warm_executor_prestarts_pool(self, rng):
        objects = make_random_objects(rng, 16)
        engine = ShardedEngine(objects, PROCESS_CONFIG, n_shards=2)
        try:
            assert engine.warm_executor() == "process"
            stats = engine.stats()["executor"]
            assert stats["started"] is True
            assert stats["alive"] == 2
        finally:
            engine.close()


class TestTransport:
    def test_shm_transport_still_default(self, rng):
        objects = make_random_objects(rng, 30)
        specs = specs_for(rng.uniform(0.0, 60.0, 6))
        want = UncertainEngine(list(objects)).execute_batch(specs)
        engine = ShardedEngine(objects, PROCESS_CONFIG, n_shards=2)
        try:
            got = engine.execute_batch(specs)
            for a, b in zip(got.results, want.results):
                assert a.answers == b.answers
            assert engine.stats()["executor"]["shm_fallbacks"] == 0
        finally:
            engine.close()
