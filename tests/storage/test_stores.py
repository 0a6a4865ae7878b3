"""The ColumnStore contract across both backends.

One parametrised suite proves the load-bearing invariants: round-trip
equality (create → read back), range reads matching whole-column
slices, picklable descriptors that rehydrate in-place, read-only
views, and owner-unlinks-attacher-unmaps lifetime semantics.  The
backends differ only in *where* the bytes live — the suite is the
executable statement of that.

The shm backend is also the process executor's transport (DESIGN.md
§13), so its own properties are pinned below too: 64-byte-aligned
zero-copy views, read-only until a mutation forces a private copy,
writable attach for shared output buffers, and segments that never
outlive their owner (no ``/dev/shm`` leaks).
"""

import glob
import os
import pickle
import tempfile

import numpy as np
import pytest

from repro.index.filtering import BatchMbrFilter
from repro.storage import (
    BACKENDS,
    MmapStore,
    ShmStore,
    StorageError,
    StoreDescriptor,
    create_store,
    open_store,
)
from repro.storage.mmapstore import FILE_PREFIX
from repro.storage.shmstore import SEGMENT_PREFIX
from repro.uncertainty.columnar import DistributionPack
from tests.conftest import make_random_objects


def sample_arrays() -> dict:
    rng = np.random.default_rng(99)
    return {
        "lows": rng.uniform(0.0, 50.0, 64),
        "highs": rng.uniform(50.0, 90.0, 64),
        "pairs": rng.uniform(0.0, 1.0, (32, 2)),
        "counts": np.arange(16, dtype=np.int64),
    }


def leaked_backings() -> list[str]:
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*") + glob.glob(
        os.path.join(tempfile.gettempdir(), f"{FILE_PREFIX}*")
    )


@pytest.fixture(autouse=True)
def no_leaks():
    before = set(leaked_backings())
    yield
    after = set(leaked_backings())
    assert after <= before, f"leaked store backings: {after - before}"


@pytest.mark.parametrize("backend", BACKENDS)
class TestContract:
    def test_round_trip_and_shapes(self, backend):
        arrays = sample_arrays()
        with create_store(backend, arrays) as store:
            assert store.backend == backend
            assert set(store.columns()) == set(arrays)
            for name, want in arrays.items():
                assert store.shape(name) == want.shape
                got = store.get(name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
                assert not got.flags.writeable

    def test_range_reads_match_slices(self, backend):
        arrays = sample_arrays()
        with create_store(backend, arrays) as store:
            for name, want in arrays.items():
                n = want.shape[0]
                for start, stop in [(0, n), (0, 0), (3, 7), (n - 2, n)]:
                    got = store.read(name, start, stop)
                    np.testing.assert_array_equal(got, want[start:stop])
                    assert not got.flags.writeable

    def test_descriptor_pickles_and_reopens(self, backend):
        arrays = sample_arrays()
        store = create_store(backend, arrays)
        try:
            desc = pickle.loads(pickle.dumps(store.descriptor()))
            assert desc.backend == backend
            twin = open_store(desc)
            try:
                for name, want in arrays.items():
                    np.testing.assert_array_equal(twin.get(name), want)
            finally:
                twin.close()
        finally:
            store.close()

    def test_descriptor_field_lookup(self, backend):
        with create_store(backend, sample_arrays()) as store:
            desc = store.descriptor()
            assert desc.field("lows").shape == (64,)
            with pytest.raises(KeyError):
                desc.field("nope")

    def test_contains_and_stats_shape(self, backend):
        with create_store(backend, sample_arrays()) as store:
            assert "lows" in store
            assert "nope" not in store
            stats = store.stats()
            for key in (
                "backend",
                "nbytes",
                "resident_bytes",
                "logical_reads",
                "page_faults",
                "evictions",
                "hit_rate",
            ):
                assert key in stats, key
            assert stats["backend"] == backend
            assert stats["nbytes"] > 0

    def test_close_is_idempotent(self, backend):
        store = create_store(backend, sample_arrays())
        store.close()
        store.close()

    def test_empty_column_set_rejected(self, backend):
        with pytest.raises((ValueError, StorageError)):
            create_store(backend, {})


class TestDispatch:
    def test_unknown_backend(self):
        with pytest.raises(StorageError):
            create_store("tape", {"xs": np.arange(4.0)})

    def test_resident_backends_reject_options(self):
        with pytest.raises(StorageError):
            create_store("shm", {"xs": np.arange(4.0)}, page_bytes=4096)


def _specs(arrays):
    return {name: (arr.dtype, arr.shape) for name, arr in arrays.items()}


class TestObjectColumns:
    """An object column's bytes are ``PyObject*`` pointers, meaningless
    in a worker (which would crash dereferencing them) or on disk: every
    way into a backing refuses them before anything is allocated."""

    @pytest.mark.parametrize(
        "make",
        [
            ShmStore.create,
            MmapStore.create,
            lambda arrays: MmapStore.build(_specs(arrays)),
        ],
        ids=["shm-create", "mmap-create", "mmap-build"],
    )
    def test_object_column_rejected(self, make):
        arrays = {
            "xs": np.arange(4.0),
            "payload": np.array([{"a": 1}], dtype=object),
        }
        with pytest.raises(ValueError, match="Python objects"):
            make(arrays)


class TestOwnerSemantics:
    def test_shm_attacher_outlives_owner_unlink(self):
        arrays = sample_arrays()
        store = create_store("shm", arrays)
        twin = open_store(store.descriptor())
        view = twin.get("lows")
        store.close()  # owner unlinks the name...
        np.testing.assert_array_equal(view, arrays["lows"])  # ...maps live
        twin.close()

    def test_mmap_attacher_outlives_owner_unlink(self):
        arrays = sample_arrays()
        store = create_store("mmap", arrays)
        twin = open_store(store.descriptor())
        store.close()  # owner unlinks the file (inode stays for twin)
        assert not os.path.exists(store.path)
        np.testing.assert_array_equal(twin.get("lows"), arrays["lows"])
        twin.close()

    def test_attacher_close_never_unlinks(self):
        store = create_store("mmap", sample_arrays())
        try:
            twin = open_store(store.descriptor())
            twin.close()
            assert os.path.exists(store.path)
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["shm", "mmap"])
    def test_vanished_backing_raises_storage_error(self, backend):
        store = create_store(backend, sample_arrays())
        descriptor = store.descriptor()
        store.close()
        with pytest.raises(StorageError) as info:
            open_store(descriptor)
        assert isinstance(info.value.__cause__, OSError)


class TestShmStore:
    def test_round_trip_bit_identical(self, rng):
        arrays = {
            "a": rng.normal(size=37),
            "b": rng.normal(size=(5, 11)),
            "c": np.arange(9, dtype=np.intp),
        }
        with ShmStore.create(arrays) as store:
            with ShmStore.attach(store.descriptor()) as twin:
                assert set(twin.columns()) == set(arrays)
                for name, src in arrays.items():
                    np.testing.assert_array_equal(twin.get(name), src)
                    assert twin.get(name).dtype == src.dtype

    def test_descriptor_is_plain_data(self, rng):
        with ShmStore.create({"x": rng.normal(size=8)}) as store:
            desc = store.descriptor()
            assert isinstance(desc, StoreDescriptor)
            assert desc.location.startswith(SEGMENT_PREFIX)
            field = desc.field("x")
            assert field.shape == (8,)
            assert np.dtype(field.dtype) == np.float64
            assert desc.nbytes >= 8 * 8
            with pytest.raises(KeyError):
                desc.field("missing")

    def test_columns_are_64_byte_aligned(self):
        with ShmStore.create(sample_arrays()) as store:
            desc = store.descriptor()
            assert [f.offset % 64 for f in desc.fields] == [0] * len(desc.fields)
            assert desc.nbytes % 64 == 0
            for name in store.columns():
                assert store.get(name).ctypes.data % 64 == 0

    def test_attached_views_are_zero_copy_and_read_only(self, rng):
        with ShmStore.create({"x": rng.normal(size=64)}) as store:
            with ShmStore.attach(store.descriptor()) as twin:
                view = twin.get("x")
                assert not view.flags.writeable
                with pytest.raises((ValueError, RuntimeError)):
                    view[0] = 1.0
                # Zero-copy: the view's buffer is the mapped segment.
                assert view.base is not None
                del view

    def test_writable_attach_visible_to_other_views(self):
        with ShmStore.create({"x": np.zeros(16)}) as store:
            with ShmStore.attach(store.descriptor(), writable=True) as writer:
                writer.get("x")[:] = np.arange(16.0)
            with ShmStore.attach(store.descriptor()) as reader:
                np.testing.assert_array_equal(reader.get("x"), np.arange(16.0))
            # The owner's own views map the same segment.
            np.testing.assert_array_equal(store.get("x"), np.arange(16.0))
            assert not store.get("x").flags.writeable

    def test_untracked_attach_never_unlinks_owner_segment(self):
        with ShmStore.create({"x": np.arange(4.0)}) as store:
            desc = store.descriptor()
            ShmStore.attach(desc).close()
            assert os.path.exists(f"/dev/shm/{desc.location}")
            with ShmStore.attach(desc) as again:
                np.testing.assert_array_equal(again.get("x"), np.arange(4.0))
        assert not os.path.exists(f"/dev/shm/{desc.location}")


class TestDistributionPackStore:
    def test_round_trip_matches_all_kernels(self, rng):
        objects = make_random_objects(rng, 24)
        distributions = [obj.distance_distribution(13.0) for obj in objects]
        pack = DistributionPack(distributions)
        with pack.to_store("shm") as store:
            twin = DistributionPack.from_store(open_store(store.descriptor()))
            xs = rng.uniform(0.0, 80.0, size=7)
            for x in xs:
                np.testing.assert_array_equal(
                    pack.cdf_many(float(x)), twin.cdf_many(float(x))
                )

    def test_rehydrated_pack_owns_its_attachment(self, rng):
        objects = make_random_objects(rng, 6)
        distributions = [obj.distance_distribution(5.0) for obj in objects]
        pack = DistributionPack(distributions)
        store = pack.to_store("shm")
        try:
            twin = DistributionPack.from_store(open_store(store.descriptor()))
        finally:
            # The exporter unlinking must not invalidate the twin's
            # mapping (POSIX keeps mappings alive past the name).
            store.close()
        np.testing.assert_array_equal(pack.cdf_many(3.0), twin.cdf_many(3.0))


class TestBatchMbrFilterStore:
    def test_round_trip_matrices_identical(self, rng):
        objects = make_random_objects(rng, 40)
        filt = BatchMbrFilter(objects)
        queries = rng.uniform(0.0, 60.0, size=9)
        with filt.to_store("shm") as store:
            twin = BatchMbrFilter.from_store(
                open_store(store.descriptor()), objects
            )
            want_min, want_max = filt.matrices(queries)
            got_min, got_max = twin.matrices(queries)
            np.testing.assert_array_equal(got_min, want_min)
            np.testing.assert_array_equal(got_max, want_max)

    def test_from_store_validates_object_count(self, rng):
        objects = make_random_objects(rng, 10)
        with BatchMbrFilter(objects).to_store("shm") as store:
            with pytest.raises(ValueError):
                BatchMbrFilter.from_store(store, objects[:-1])

    def test_replace_at_on_shared_columns_copies_first(self, rng):
        objects = make_random_objects(rng, 12)
        with BatchMbrFilter(objects).to_store("shm") as store:
            twin = BatchMbrFilter.from_store(
                open_store(store.descriptor()), objects
            )
            replacement = make_random_objects(rng, 1)[0]
            # Shared views are read-only; the in-place row write must
            # transparently promote to a private copy, leaving the
            # exporter's columns untouched.
            twin.replace_at(3, replacement)
            objects2 = list(objects)
            objects2[3] = replacement
            want_min, want_max = BatchMbrFilter(objects2).matrices([7.0, 31.0])
            got_min, got_max = twin.matrices([7.0, 31.0])
            np.testing.assert_array_equal(got_min, want_min)
            np.testing.assert_array_equal(got_max, want_max)
            original = BatchMbrFilter(objects)
            original._flush()
            np.testing.assert_array_equal(store.get("lows"), original._lows)


class TestMmapDetails:
    def test_pool_faults_and_bounded_residency(self):
        arrays = {"xs": np.arange(1 << 16, dtype=np.float64)}
        store = create_store("mmap", arrays, page_bytes=1 << 12, pool_pages=2)
        try:
            store.reset_stats()
            np.testing.assert_array_equal(store.get("xs"), arrays["xs"])
            stats = store.stats()
            assert stats["page_faults"] > stats["pool_pages"] == 2
            assert stats["evictions"] == stats["page_faults"] - 2
            assert stats["resident_pages"] <= 2
        finally:
            store.close()

    def test_custom_directory(self, tmp_path):
        store = create_store(
            "mmap", {"xs": np.arange(8.0)}, directory=str(tmp_path)
        )
        try:
            assert store.path.startswith(str(tmp_path))
            assert os.path.exists(store.path)
        finally:
            store.close()
        assert not os.path.exists(store.path)


class TestMmapWriter:
    SPECS = {
        "xs": (np.float64, (10,)),
        "tags": (np.int64, (5,)),
    }

    def test_streamed_build_round_trips(self):
        writer = MmapStore.build(self.SPECS)
        writer.append("xs", np.arange(6.0))
        writer.append("xs", np.arange(6.0, 10.0))
        writer.append("tags", np.arange(5, dtype=np.int64))
        store = writer.finish()
        try:
            np.testing.assert_array_equal(store.get("xs"), np.arange(10.0))
            np.testing.assert_array_equal(
                store.get("tags"), np.arange(5, dtype=np.int64)
            )
        finally:
            store.close()

    def test_finish_rejects_short_columns(self):
        writer = MmapStore.build(self.SPECS)
        writer.append("xs", np.arange(10.0))
        with pytest.raises(StorageError) as info:
            writer.finish()
        assert "tags" in str(info.value)
        writer.abort()
        assert not os.path.exists(writer.path)

    def test_append_rejects_overflow_and_bad_shape(self):
        writer = MmapStore.build({"m": (np.float64, (4, 3))})
        try:
            with pytest.raises(ValueError):
                writer.append("m", np.zeros((2, 2)))  # wrong row shape
            writer.append("m", np.zeros((3, 3)))
            with pytest.raises(ValueError):
                writer.append("m", np.zeros((2, 3)))  # 5 > 4 declared rows
        finally:
            writer.abort()

    def test_finish_twice_is_an_error(self):
        writer = MmapStore.build({"xs": (np.float64, (2,))})
        writer.append("xs", np.arange(2.0))
        store = writer.finish()
        try:
            with pytest.raises(StorageError):
                writer.finish()
        finally:
            store.close()

    def test_scalar_column_rejected(self):
        with pytest.raises(ValueError):
            MmapStore.build({"x": (np.float64, ())})
