"""Tests for the disk-page subregion storage (Section IV-D note)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refinement import Refiner
from repro.core.storage import (
    BufferPool,
    SubregionStore,
    rs_upper_bounds_from_store,
    subregion_bounds_from_store,
)
from repro.core.subregions import SubregionTable
from repro.core.verifiers import (
    LowerSubregionVerifier,
    RightmostSubregionVerifier,
    UpperSubregionVerifier,
)
from tests.conftest import make_random_objects, two_object_textbook_case


def store_for(objects, q, **kwargs):
    table = SubregionTable([o.distance_distribution(q) for o in objects])
    return SubregionStore(table, **kwargs)


class TestBufferPool:
    def test_needs_capacity(self):
        with pytest.raises(ValueError):
            BufferPool(0)

    def test_hit_and_fault_accounting(self):
        pool = BufferPool(2)
        pool.write_page(0, b"a")
        pool.write_page(1, b"b")
        pool.write_page(2, b"c")
        pool.read_page(0)
        pool.read_page(0)
        assert pool.stats.logical_reads == 2
        assert pool.stats.page_faults == 1
        assert pool.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction(self):
        pool = BufferPool(2)
        for pid in range(3):
            pool.write_page(pid, bytes([pid]))
        pool.read_page(0)
        pool.read_page(1)
        pool.read_page(2)  # evicts page 0
        assert pool.stats.evictions == 1
        pool.read_page(1)  # still resident
        faults_before = pool.stats.page_faults
        pool.read_page(0)  # must fault again
        assert pool.stats.page_faults == faults_before + 1

    def test_missing_page(self):
        pool = BufferPool(1)
        with pytest.raises(KeyError):
            pool.read_page(99)


class TestBufferPoolThrash:
    """The thrash path: pools too small for the working set.

    The pool must stay *correct* (bounds identical to in-memory) while
    its counters expose the cost — the property the storage benchmark
    and DESIGN.md §12's sizing advice rely on.
    """

    def test_pool_smaller_than_one_page_chain(self, rng):
        # One entry per page and a 1-frame pool: every chain longer
        # than one page evicts *within its own scan*.
        objects = make_random_objects(rng, 15)
        store = store_for(objects, 30.0, page_size=24, pool_pages=1)
        chain_lengths = store.directory_sizes
        longest = max(chain_lengths.values())
        assert longest > store.pool.capacity  # the scenario is real
        store.pool.reset_stats()
        store.pool.drop_cache()
        j_long = max(chain_lengths, key=chain_lengths.get)
        list(store.scan_subregion(j_long))
        stats = store.pool.stats
        # Every page of the chain faulted, and all but the first
        # fault evicted the previous page.
        assert stats.logical_reads == chain_lengths[j_long]
        assert stats.page_faults == chain_lengths[j_long]
        assert stats.evictions == chain_lengths[j_long] - 1
        # Scanning the same chain again reuses nothing: the head page
        # was evicted by the tail.
        list(store.scan_subregion(j_long))
        assert stats.page_faults == 2 * chain_lengths[j_long]

    def test_eviction_counter_exact(self):
        pool = BufferPool(2)
        for pid in range(5):
            pool.write_page(pid, bytes([pid]))
        for pid in [0, 1, 2, 3, 4, 0, 1]:  # strict LRU worst case
            pool.read_page(pid)
        stats = pool.stats
        assert stats.logical_reads == 7
        assert stats.page_faults == 7
        # Evictions = faults - capacity once the pool has filled.
        assert stats.evictions == 7 - pool.capacity
        assert stats.hit_rate == 0.0

    def test_hit_rate_with_partial_reuse(self):
        pool = BufferPool(2)
        for pid in range(3):
            pool.write_page(pid, bytes([pid]))
        pool.read_page(0)
        pool.read_page(1)
        pool.read_page(0)  # hit
        pool.read_page(2)  # evicts 1
        pool.read_page(0)  # hit (still resident)
        assert pool.stats.page_faults == 3
        assert pool.stats.evictions == 1
        assert pool.stats.hit_rate == pytest.approx(2 / 5)

    @given(
        n_objects=st.integers(min_value=3, max_value=12),
        q=st.floats(min_value=0.0, max_value=60.0),
        pool_pages=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_bounds_survive_evictions(self, n_objects, q, pool_pages, seed):
        """Storage-backed verifier bounds equal the in-memory bounds no
        matter how hard the pool thrashes — eviction affects cost, never
        values."""
        objects = make_random_objects(np.random.default_rng(seed), n_objects)
        # One entry per page maximises chain lengths relative to the
        # tiny pool, forcing evictions mid-scan for most draws.
        store = store_for(objects, q, page_size=24, pool_pages=pool_pages)
        lower, upper = subregion_bounds_from_store(store)
        rs_upper = rs_upper_bounds_from_store(store)
        table = store.table
        assert np.allclose(
            lower, LowerSubregionVerifier().compute(table).lower, atol=1e-12
        )
        assert np.allclose(
            upper, UpperSubregionVerifier().compute(table).upper, atol=1e-12
        )
        assert np.allclose(
            rs_upper, RightmostSubregionVerifier().compute(table).upper, atol=1e-12
        )
        # Re-running after the thrash gives the same values again.
        lower2, upper2 = subregion_bounds_from_store(store)
        assert np.array_equal(lower, lower2)
        assert np.array_equal(upper, upper2)
        if store.n_pages > pool_pages:
            assert store.pool.stats.evictions > 0


class TestSubregionStore:
    def test_page_count_matches_entries(self, rng):
        objects = make_random_objects(rng, 12)
        store = store_for(objects, 30.0, page_size=4 * 24, pool_pages=8)
        # 4 entries per page; total pages ≥ ceil(entries / 4) (chains
        # do not share pages, so per-subregion rounding adds a few).
        entries = store.total_entries()
        assert store.entries_per_page == 4
        assert store.n_pages >= int(np.ceil(entries / 4))
        assert store.n_pages <= store.table.n_inner + entries // 4 + 1

    def test_scan_returns_table_rows(self):
        objects, q = two_object_textbook_case()
        store = store_for(objects, q)
        table = store.table
        for j in range(table.n_inner):
            scanned = {row: (s, d) for row, s, d in store.scan_subregion(j)}
            expected_rows = set(np.flatnonzero(table.s_inner[:, j] > 0))
            assert set(scanned) == expected_rows
            for row, (s, d) in scanned.items():
                assert s == pytest.approx(table.s_inner[row, j])
                assert d == pytest.approx(table.cdf_at_edges[row, j])

    def test_unknown_subregion(self, rng):
        store = store_for(make_random_objects(rng, 4), 0.0)
        with pytest.raises(KeyError):
            list(store.scan_subregion(10_000))

    def test_page_size_validation(self, rng):
        objects = make_random_objects(rng, 4)
        with pytest.raises(ValueError):
            store_for(objects, 0.0, page_size=8)

    def test_sequential_scan_faults_each_page_once(self, rng):
        objects = make_random_objects(rng, 15)
        store = store_for(objects, 30.0, page_size=64 * 24, pool_pages=128)
        store.pool.reset_stats()
        store.pool.drop_cache()
        for j in range(store.table.n_inner):
            list(store.scan_subregion(j))
        assert store.pool.stats.page_faults == store.n_pages

    def test_tiny_pool_thrashes_on_repeated_scans(self, rng):
        objects = make_random_objects(rng, 15)
        store = store_for(objects, 30.0, page_size=2 * 24, pool_pages=1)
        store.pool.reset_stats()
        for _ in range(2):
            for j in range(store.table.n_inner):
                list(store.scan_subregion(j))
        stats = store.pool.stats
        if store.n_pages > 1:
            assert stats.evictions > 0
            # Second pass re-faults everything: no inter-pass reuse.
            assert stats.page_faults >= store.n_pages * 2 - 1


class TestStorageBackedVerifiers:
    def test_rs_matches_in_memory(self, rng):
        for _ in range(5):
            objects = make_random_objects(rng, int(rng.integers(3, 14)))
            q = float(rng.uniform(0, 60))
            store = store_for(objects, q)
            from_store = rs_upper_bounds_from_store(store)
            in_memory = RightmostSubregionVerifier().compute(store.table).upper
            assert np.allclose(from_store, in_memory, atol=1e-9)

    def test_lsr_usr_match_in_memory(self, rng):
        for _ in range(5):
            objects = make_random_objects(rng, int(rng.integers(3, 14)))
            q = float(rng.uniform(0, 60))
            store = store_for(objects, q)
            lower, upper = subregion_bounds_from_store(store)
            lsr = LowerSubregionVerifier().compute(store.table).lower
            usr = UpperSubregionVerifier().compute(store.table).upper
            assert np.allclose(lower, lsr, atol=1e-9)
            assert np.allclose(upper, usr, atol=1e-9)

    def test_bounds_sound_against_exact(self, rng):
        objects = make_random_objects(rng, 10)
        q = 30.0
        store = store_for(objects, q)
        lower, upper = subregion_bounds_from_store(store)
        exact = Refiner(store.table).exact_all()
        assert np.all(lower - 1e-9 <= exact)
        assert np.all(exact <= upper + 1e-9)

    def test_textbook_values(self):
        objects, q = two_object_textbook_case()
        store = store_for(objects, q)
        lower, upper = subregion_bounds_from_store(store)
        # L-SR's midpoint term makes both lower bounds exact here (see
        # tests/core/test_verifiers.py::TestLSRVerifier).
        assert np.allclose(lower, [0.875, 0.125])
        assert np.allclose(upper, [0.875, 0.125])
