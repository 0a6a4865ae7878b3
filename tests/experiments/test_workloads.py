"""Tests for the shared experiment workloads and public API surface."""

import importlib

import numpy as np
import pytest

from repro.core.types import CKNNQuery, CPNNQuery
from repro.experiments.workloads import (
    StreamingWorkload,
    cached_engine,
    query_points,
)


class TestWorkloadCache:
    def test_engine_is_memoised(self):
        a = cached_engine(500)
        b = cached_engine(500)
        assert a is b
        assert len(a) == 500

    def test_distinct_configurations_distinct_engines(self):
        a = cached_engine(500)
        b = cached_engine(500, pdf="gaussian", bars=20)
        assert a is not b

    def test_query_points_deterministic(self):
        assert np.array_equal(query_points(5), query_points(5))
        assert not np.array_equal(query_points(5), query_points(5, seed=99))


class TestStreamingWorkload:
    def _small(self, **kwargs):
        defaults = dict(n_objects=30, churn=0.2, n_queries=4, seed=11)
        defaults.update(kwargs)
        return StreamingWorkload(**defaults)

    def test_ticks_are_memoised_and_deterministic(self):
        workload = self._small()
        first = workload.tick(2)
        again = workload.tick(2)
        assert first is again
        assert len(first.replacements) == workload.reports_per_tick == 6
        # Replacement objects are the same instances on re-access, so
        # two engines driven by the stream replay identical updates.
        assert first.replacements[0][1] is again.replacements[0][1]

    def test_replacement_keys_belong_to_the_fleet(self):
        workload = self._small()
        keys = {obj.key for obj in workload.initial_objects()}
        for tick in workload.ticks(3):
            for key, obj in tick.replacements:
                assert key in keys
                assert obj.key == key

    def test_specs_fixed_across_ticks(self):
        workload = self._small()
        assert workload.tick(0).specs is workload.tick(4).specs
        assert all(isinstance(s, CPNNQuery) for s in workload.specs)

    def test_spec_factory_hook(self):
        workload = self._small(
            spec_factory=lambda q: CKNNQuery(q, threshold=0.4, k=2)
        )
        assert all(isinstance(s, CKNNQuery) for s in workload.specs)

    def test_drive_applies_updates_and_queries(self):
        workload = self._small()
        engine = workload.make_engine()
        results = workload.drive(engine, 3)
        assert len(results) == 3
        assert all(len(batch.results) == 4 for batch in results)
        assert len(engine) == 30  # replacements never change the count

    def test_two_engines_driven_identically(self):
        workload = self._small()
        a = workload.drive(workload.make_engine(), 3)
        b = workload.drive(workload.make_engine(), 3)
        for x, y in zip(a, b):
            assert x.answers == y.answers

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingWorkload(n_objects=0)
        with pytest.raises(ValueError):
            StreamingWorkload(churn=1.5)


class TestPublicApi:
    def test_top_level_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_exports_resolve(self):
        import repro.core

        for name in repro.core.__all__:
            assert getattr(repro.core, name) is not None

    def test_version(self):
        import repro

        assert repro.__version__ == "14.2.0"

    def test_legacy_surface_is_gone(self):
        import repro
        import repro.baselines
        import repro.core
        import repro.core.engine

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.shm")
        removed = {
            "CKNNEngine",
            "CPNNEngine",
            "CPNNResult",
            "Strategy",
            "constrained_range_query",
        }
        for module in (repro, repro.core, repro.core.engine):
            assert not removed & set(module.__all__), module.__name__
            assert not any(hasattr(module, name) for name in removed)
        for method in ("query", "query_batch"):
            assert not hasattr(repro.UncertainEngine, method)
        assert set(repro.baselines.__all__) == {
            "basic_pnn_probabilities",
            "monte_carlo_knn_probabilities",
            "monte_carlo_pnn_probabilities",
            "scalar_knn_query",
            "scalar_range_query",
        }

    def test_index_surface_is_pinned(self):
        """One static STR tree, its filter and the reference scan: the
        dynamic R-tree and the linear index left in 9.0."""
        import repro.index

        assert set(repro.index.__all__) == {
            "FilterResult",
            "PnnFilter",
            "Rect",
            "filter_candidates",
            "str_bulk_load",
        }
        for module in ("repro.index.rtree", "repro.index.linear"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)

    def test_storage_surface_is_pinned(self):
        """Shared memory for the process transport, mmap for the paged
        corpus: the ram backend left in 10.0."""
        import repro.storage

        assert set(repro.storage.__all__) == {
            "BACKENDS",
            "BufferPool",
            "ColumnField",
            "ColumnStore",
            "DEFAULT_PAGE_BYTES",
            "DEFAULT_POOL_PAGES",
            "MissingPageError",
            "MmapStore",
            "PageStats",
            "ShmStore",
            "StorageError",
            "StoreDescriptor",
            "create_store",
            "open_store",
        }
        assert repro.storage.BACKENDS == ("shm", "mmap")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.storage.ram")
