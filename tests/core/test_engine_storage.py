"""The engine's storage knob (DESIGN.md §16): config, stats, lifecycle.

``EngineConfig(storage=...)`` selects where the batch filter's
coordinate columns live; everything observable about that choice —
validation, the ``stats()["storage"]`` counters, the ``explain()``
stamp, store release on ``close()``, the sharded engine's (the single
engine's), and the process executor's mmap transport — is pinned here.  Answer-level
backend invariance lives in
``tests/property/test_storage_equivalence.py``.
"""

import glob
import os
import tempfile

import numpy as np
import pytest

from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CPNNQuery
from repro.storage.mmapstore import FILE_PREFIX
from tests.conftest import make_random_objects

THRASH = {"storage_page_bytes": 1 << 12, "storage_pool_pages": 2}


def specs_for(rng, n=6):
    return [
        CPNNQuery(float(q), threshold=0.3)
        for q in rng.uniform(0.0, 60.0, n)
    ]


class TestConfigValidation:
    def test_backends_accepted(self):
        for backend in ("ram", "shm", "mmap"):
            assert EngineConfig(storage=backend).storage == backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(storage="tape")

    def test_pool_knobs_validated(self):
        with pytest.raises(ValueError):
            EngineConfig(storage_pool_pages=0)
        with pytest.raises(ValueError):
            EngineConfig(storage_page_bytes=0)

    def test_default_is_ram(self):
        config = EngineConfig()
        assert config.storage == "ram"
        assert config.storage_dir is None


class TestStatsSurface:
    def test_ram_engine_reports_zero_stores(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 12))
        engine.execute_batch(specs_for(rng))
        storage = engine.stats()["storage"]
        assert storage["backend"] == "ram"
        assert storage["stores"] == 0
        assert storage["page_faults"] == 0

    def test_mmap_engine_reports_pool_counters(self, rng):
        engine = UncertainEngine(
            make_random_objects(rng, 30),
            EngineConfig(storage="mmap", **THRASH),
        )
        try:
            engine.execute_batch(specs_for(rng))
            storage = engine.stats()["storage"]
            assert storage["backend"] == "mmap"
            assert storage["stores"] >= 1
            assert storage["nbytes"] > 0
            assert storage["logical_reads"] > 0
            assert storage["page_faults"] > 0
            assert 0.0 <= storage["hit_rate"] <= 1.0
        finally:
            engine.close()

    def test_explain_stamps_storage(self, rng):
        engine = UncertainEngine(
            make_random_objects(rng, 12), EngineConfig(storage="shm")
        )
        try:
            plan = engine.explain(CPNNQuery(20.0, threshold=0.3))
            assert plan.storage["backend"] == "shm"
            assert plan.storage["stores"] >= 1
        finally:
            engine.close()

    def test_storage_dir_is_honoured(self, rng):
        with tempfile.TemporaryDirectory() as spill:
            engine = UncertainEngine(
                make_random_objects(rng, 12),
                EngineConfig(storage="mmap", storage_dir=spill),
            )
            try:
                engine.execute_batch(specs_for(rng, 3))
                spilled = glob.glob(os.path.join(spill, f"{FILE_PREFIX}*"))
                assert spilled, "no column file in the configured directory"
            finally:
                engine.close()
            assert not glob.glob(os.path.join(spill, f"{FILE_PREFIX}*"))


class TestLifecycle:
    def test_close_unlinks_mmap_files(self, rng):
        before = set(glob.glob(
            os.path.join(tempfile.gettempdir(), f"{FILE_PREFIX}*")
        ))
        engine = UncertainEngine(
            make_random_objects(rng, 12), EngineConfig(storage="mmap")
        )
        engine.execute_batch(specs_for(rng, 3))
        engine.close()
        after = set(glob.glob(
            os.path.join(tempfile.gettempdir(), f"{FILE_PREFIX}*")
        ))
        assert after <= before

    def test_mutations_after_close_rebuild_on_fresh_store(self, rng):
        objects = make_random_objects(rng, 12)
        engine = UncertainEngine(
            list(objects), EngineConfig(storage="mmap", **THRASH)
        )
        engine.execute_batch(specs_for(rng, 3))
        engine.close()
        from repro.uncertainty.objects import UncertainObject

        newcomer = UncertainObject.uniform("fresh", 20.0, 23.0)
        engine.insert(newcomer)
        reference = UncertainEngine(list(objects) + [newcomer])
        probe = specs_for(np.random.default_rng(6), 4)
        got = engine.execute_batch(probe)
        want = reference.execute_batch(probe)
        for a, b in zip(got.results, want.results):
            assert a.answers == b.answers
        assert engine.stats()["storage"]["stores"] >= 1
        engine.close()


class TestShardedAggregation:
    def test_storage_stats_aggregate_over_shards(self, rng):
        """The sharded parent filters with the single engine's own
        store-backed filter, so its storage story is the single
        engine's, counter for counter."""
        objects = make_random_objects(rng, 40)
        config = EngineConfig(storage="mmap", **THRASH)
        specs = specs_for(rng)
        engine = ShardedEngine(objects, config, n_shards=2)
        single = UncertainEngine(objects, config)
        try:
            engine.execute_batch(specs)
            single.execute_batch(specs)
            storage = engine.stats()["storage"]
            assert storage == single.stats()["storage"]
            assert storage["backend"] == "mmap"
            assert storage["stores"] == 1
            assert storage["page_faults"] > 0
        finally:
            engine.close()
            single.close()

    def test_sharded_close_releases_every_shard(self, rng):
        engine = ShardedEngine(
            make_random_objects(rng, 30),
            EngineConfig(storage="shm"),
            n_shards=2,
        )
        engine.execute_batch(specs_for(rng, 3))
        assert engine.stats()["storage"]["stores"] >= 1
        engine.close()
        assert engine.stats()["storage"]["stores"] == 0


class TestProcessTransport:
    def test_mmap_transport_attaches_without_fallback(self, rng):
        """With ``storage="mmap"`` the process executor ships the
        coordinate columns as an mmap file descriptor; spawned workers
        must attach it (no local-rebuild fallback) and answer exactly
        like a serial ram engine."""
        objects = make_random_objects(rng, 40)
        specs = specs_for(rng, 8)
        want = UncertainEngine(list(objects)).execute_batch(specs)
        engine = ShardedEngine(
            objects,
            EngineConfig(
                storage="mmap", executor="process", process_min_batch=0, **THRASH
            ),
            n_shards=2,
        )
        try:
            got = engine.execute_batch(specs)
            for a, b in zip(got.results, want.results):
                assert a.answers == b.answers
            executor_stats = engine.stats()["executor"]
            assert executor_stats["shm_fallbacks"] == 0
            assert executor_stats["worker_failures"] == 0
        finally:
            engine.close()

    def test_shm_transport_still_default(self, rng):
        objects = make_random_objects(rng, 30)
        specs = specs_for(rng, 6)
        want = UncertainEngine(list(objects)).execute_batch(specs)
        engine = ShardedEngine(
            objects,
            EngineConfig(storage="shm", executor="process", process_min_batch=0),
            n_shards=2,
        )
        try:
            got = engine.execute_batch(specs)
            for a, b in zip(got.results, want.results):
                assert a.answers == b.answers
            assert engine.stats()["executor"]["shm_fallbacks"] == 0
        finally:
            engine.close()
