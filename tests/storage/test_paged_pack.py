"""PagedDistributionPack: blocked kernels over a thrashing pool.

The out-of-core pack's contract is absolute: every kernel returns the
*exact bits* the resident pack would, no matter how small the window
pool is — eviction affects counters, never values.  This suite pins
that with pool configurations chosen to thrash hard (pages far fewer
than the corpus needs), plus the deterministic-accounting property the
DESIGN.md §16 sizing advice relies on.
"""

import numpy as np
import pytest

from repro.uncertainty.columnar import DistributionPack, PagedDistributionPack
from tests.conftest import make_random_objects


@pytest.fixture(scope="module")
def resident():
    rng = np.random.default_rng(20080614)
    objects = make_random_objects(rng, 96)
    return DistributionPack(
        [obj.distance_distribution(25.0) for obj in objects]
    )


@pytest.fixture()
def paged(resident):
    # 4 KiB pages, 2 frames: the flats span dozens of pages, so every
    # full sweep must page and evict.
    store = resident.to_store("mmap", page_bytes=1 << 12, pool_pages=2)
    pack = DistributionPack.from_store(store)
    assert isinstance(pack, PagedDistributionPack)
    yield pack
    store.close()


class TestBitIdentity:
    def test_cdf_many_sorted(self, resident, paged):
        xs = np.sort(np.random.default_rng(1).uniform(-5.0, 90.0, 33))
        np.testing.assert_array_equal(
            paged.cdf_many(xs), resident.cdf_many(xs)
        )

    def test_cdf_many_unsorted_and_scalar(self, resident, paged):
        rng = np.random.default_rng(2)
        xs = rng.uniform(-5.0, 90.0, 17)
        np.testing.assert_array_equal(
            paged.cdf_many(xs), resident.cdf_many(xs)
        )
        np.testing.assert_array_equal(
            paged.cdf_many(31.5), resident.cdf_many(31.5)
        )

    def test_sf_and_mass_between(self, resident, paged):
        xs = np.linspace(0.0, 80.0, 21)
        np.testing.assert_array_equal(paged.sf_many(xs), resident.sf_many(xs))
        np.testing.assert_array_equal(
            paged.mass_between_many(10.0, 60.0),
            resident.mass_between_many(10.0, 60.0),
        )

    def test_take_scattered_rows(self, resident, paged):
        rows = np.array([0, 1, 2, 40, 41, 7, 95, 13], dtype=np.intp)
        sub_resident = resident.take(rows)
        sub_paged = paged.take(rows)
        xs = np.linspace(0.0, 80.0, 15)
        np.testing.assert_array_equal(
            sub_paged.cdf_many(xs), sub_resident.cdf_many(xs)
        )
        np.testing.assert_array_equal(sub_paged.totals, sub_resident.totals)

    def test_resident_metadata_matches(self, resident, paged):
        np.testing.assert_array_equal(paged.totals, resident.totals)
        np.testing.assert_array_equal(paged.near, resident.near)
        np.testing.assert_array_equal(paged.far, resident.far)
        np.testing.assert_array_equal(paged.offsets, resident.offsets)
        assert paged.size == resident.size


class TestThrashAccounting:
    def test_sweep_thrashes_and_stays_bounded(self, paged):
        store = paged.store
        xs = np.linspace(0.0, 80.0, 25)
        store.drop_cache()
        store.reset_stats()
        paged.cdf_many(xs)
        stats = store.stats()
        assert stats["page_faults"] > stats["pool_pages"] == 2
        assert stats["evictions"] == stats["page_faults"] - 2
        assert stats["resident_pages"] <= 2

    def test_counts_are_deterministic(self, paged):
        store = paged.store
        xs = np.linspace(0.0, 80.0, 25)

        def counters() -> tuple:
            store.drop_cache()
            store.reset_stats()
            paged.cdf_many(xs)
            s = store.stats()
            return (s["logical_reads"], s["page_faults"], s["evictions"])

        assert counters() == counters()

    def test_values_survive_thrash(self, resident, paged):
        # Interleave a sweep with scattered row reads so each evicts the
        # other's pages mid-run; bits must not move.
        xs = np.linspace(0.0, 80.0, 9)
        rows = np.array([95, 3, 48, 12], dtype=np.intp)
        for _ in range(3):
            np.testing.assert_array_equal(
                paged.cdf_many(xs), resident.cdf_many(xs)
            )
            np.testing.assert_array_equal(
                paged.take(rows).cdf_many(xs), resident.take(rows).cdf_many(xs)
            )
        assert paged.store.stats()["evictions"] > 0


class TestValidation:
    def test_missing_metadata_columns_rejected(self):
        from repro.storage import create_store

        store = create_store(
            "mmap",
            {"edges": np.arange(4.0), "knots": np.arange(4.0)},
        )
        try:
            with pytest.raises(ValueError) as info:
                PagedDistributionPack(store)
            assert "missing columns" in str(info.value)
        finally:
            store.close()

    def test_take_empty_rejected(self, paged):
        with pytest.raises(ValueError):
            paged.take(np.array([], dtype=np.intp))
