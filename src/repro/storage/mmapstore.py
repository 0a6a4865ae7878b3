"""The mmap backend: pack columns on disk, served through pooled windows.

``MmapStore`` lays a column set out in one file — each column
64-byte-aligned and C-contiguous, the same
:func:`~repro.storage.base.layout_columns` table shared-memory
segments use — and serves reads through a page-granular
:class:`~repro.storage.pool.BufferPool` whose frames are real
``mmap.mmap`` windows.  The pool's LRU closes evicted windows, so the
store's resident address space is bounded by
``pool_pages · page_bytes`` no matter how large the file grows: a
dataset 10–100× RAM stays queryable under an ``ulimit -v`` cap.

Reads **copy** the requested byte range out of pooled windows (never
zero-copy views — a view would pin a window across evictions), which
is exactly the contract chunked consumers want: walk the columns in
page-sized blocks, keep only the block resident.

Ownership mirrors shm: the creating store unlinks the file on
``close`` (workers attach first — POSIX keeps the inode alive for
their open maps); attached stores only unmap.  An ``atexit`` net
removes files a crashed owner left behind.

Large column sets can be built without ever materialising the arrays:
:meth:`MmapStore.build` hands the caller a writer that streams row
chunks straight to disk, so the build peak is one chunk, not one
column.
"""

from __future__ import annotations

import atexit
import mmap
import os
import secrets
import tempfile
from typing import Mapping

import numpy as np

from repro.storage.base import (
    ColumnField,
    ColumnStore,
    StoreDescriptor,
    layout_columns,
)
from repro.storage.errors import MissingPageError, StorageError
from repro.storage.pool import BufferPool

__all__ = ["DEFAULT_PAGE_BYTES", "DEFAULT_POOL_PAGES", "MmapStore"]

#: Default window size.  Rounded up to ``mmap.ALLOCATIONGRANULARITY``
#: at construction — window offsets must be granularity-aligned.
DEFAULT_PAGE_BYTES = 1 << 20

#: Default pool capacity (64 windows of 1 MiB = 64 MiB resident).
DEFAULT_POOL_PAGES = 64

#: Every file this module creates is named ``repro_mmap_<token>.cols``
#: so leak checks (and humans inspecting the spill directory) can
#: attribute it.
FILE_PREFIX = "repro_mmap_"

#: Files created (and not yet closed) by this process, for the atexit
#: safety net.  Keyed by path.
_owned_files: set[str] = set()


def _page_bytes(page_bytes: int | None) -> int:
    pb = DEFAULT_PAGE_BYTES if page_bytes is None else int(page_bytes)
    if pb < 1:
        raise ValueError("page_bytes must be positive")
    gran = mmap.ALLOCATIONGRANULARITY
    return (pb + gran - 1) // gran * gran


class MmapStoreWriter:
    """Streams column rows to disk; ``finish()`` yields the store.

    Shapes are declared up front; rows are appended per column in
    order.  The peak memory of a build is one chunk, which is how the
    low-memory smoke constructs packs larger than its address-space
    cap.
    """

    def __init__(
        self,
        specs: Mapping[str, tuple[np.dtype, tuple[int, ...]]],
        *,
        directory: str | None = None,
        page_bytes: int | None = None,
        pool_pages: int | None = None,
    ) -> None:
        self._fields, self._nbytes = layout_columns(specs)
        self._by_name = {f.name: f for f in self._fields}
        self._filled = {f.name: 0 for f in self._fields}
        self._page_bytes = _page_bytes(page_bytes)
        self._pool_pages = (
            DEFAULT_POOL_PAGES if pool_pages is None else int(pool_pages)
        )
        directory = directory or tempfile.gettempdir()
        self._path = os.path.join(
            directory, FILE_PREFIX + secrets.token_hex(8) + ".cols"
        )
        self._file = open(self._path, "w+b")
        _owned_files.add(self._path)
        self._file.truncate(self._nbytes)
        self._finished = False

    @property
    def path(self) -> str:
        return self._path

    def append(self, name: str, chunk: np.ndarray) -> None:
        """Append ``chunk`` rows to column ``name`` (first axis)."""
        field = self._by_name[name]
        dtype = np.dtype(field.dtype)
        chunk = np.ascontiguousarray(chunk, dtype=dtype)
        if chunk.shape[1:] != field.shape[1:]:
            raise ValueError(
                f"column {name!r} rows have shape {field.shape[1:]}, "
                f"got {chunk.shape[1:]}"
            )
        start = self._filled[name]
        stop = start + chunk.shape[0]
        if stop > field.shape[0]:
            raise ValueError(
                f"column {name!r} declared {field.shape[0]} rows, "
                f"write would reach {stop}"
            )
        row_bytes = int(
            np.prod(field.shape[1:], dtype=np.int64) * dtype.itemsize
        )
        self._file.seek(field.offset + start * row_bytes)
        chunk.tofile(self._file)
        self._filled[name] = stop

    def finish(self) -> "MmapStore":
        """Flush and open the finished file as an owning store."""
        if self._finished:
            raise StorageError("writer already finished")
        short = {
            name: f"{n}/{self._by_name[name].shape[0]}"
            for name, n in self._filled.items()
            if n != self._by_name[name].shape[0]
        }
        if short:
            raise StorageError(f"columns not fully written: {short}")
        self._finished = True
        self._file.flush()
        self._file.close()
        _owned_files.discard(self._path)  # the store takes ownership
        return MmapStore(
            self._path,
            self._fields,
            self._nbytes,
            owner=True,
            page_bytes=self._page_bytes,
            pool_pages=self._pool_pages,
        )

    def abort(self) -> None:
        if not self._finished:
            self._finished = True
            self._file.close()
            _owned_files.discard(self._path)
            try:
                os.unlink(self._path)
            except OSError:  # pragma: no cover - already gone
                pass


class MmapStore(ColumnStore):
    backend = "mmap"
    chunked = True

    def __init__(
        self,
        path: str,
        fields: tuple[ColumnField, ...],
        nbytes: int,
        *,
        owner: bool,
        page_bytes: int | None = None,
        pool_pages: int | None = None,
    ) -> None:
        self._path = path
        self._fields = tuple(fields)
        self._by_name = {f.name: f for f in self._fields}
        self._file_nbytes = int(nbytes)
        self._owner = bool(owner)
        self._page_bytes_ = _page_bytes(page_bytes)
        pool_pages = DEFAULT_POOL_PAGES if pool_pages is None else int(pool_pages)
        self._file = open(path, "rb")
        if owner:
            _owned_files.add(path)
        self._pool = BufferPool(
            pool_pages,
            backend="mmap",
            loader=self._map_window,
            unloader=self._close_window,
        )
        self._closed = False

    # -- construction ----------------------------------------------------

    @classmethod
    def create(
        cls,
        arrays: Mapping[str, np.ndarray],
        *,
        directory: str | None = None,
        page_bytes: int | None = None,
        pool_pages: int | None = None,
    ) -> "MmapStore":
        """Write resident ``arrays`` out and open the owning store."""
        if not arrays:
            raise ValueError("a column store needs at least one column")
        specs = {
            name: (np.asarray(arr).dtype, np.asarray(arr).shape)
            for name, arr in arrays.items()
        }
        writer = cls.build(
            specs,
            directory=directory,
            page_bytes=page_bytes,
            pool_pages=pool_pages,
        )
        try:
            for name, arr in arrays.items():
                writer.append(name, np.asarray(arr))
        except BaseException:
            writer.abort()
            raise
        return writer.finish()

    @classmethod
    def build(
        cls,
        specs: Mapping[str, tuple[np.dtype, tuple[int, ...]]],
        *,
        directory: str | None = None,
        page_bytes: int | None = None,
        pool_pages: int | None = None,
    ) -> MmapStoreWriter:
        """A streaming writer for columns too large to materialise."""
        return MmapStoreWriter(
            specs,
            directory=directory,
            page_bytes=page_bytes,
            pool_pages=pool_pages,
        )

    @classmethod
    def attach(
        cls,
        descriptor: StoreDescriptor,
        *,
        page_bytes: int | None = None,
        pool_pages: int | None = None,
    ) -> "MmapStore":
        """Open the file read-only (worker side, never unlinks).

        Raises :class:`~repro.storage.errors.StorageError` when the
        file no longer exists (or cannot be opened)."""
        try:
            return cls(
                descriptor.location,
                descriptor.fields,
                descriptor.nbytes,
                owner=False,
                page_bytes=page_bytes,
                pool_pages=pool_pages,
            )
        except OSError as exc:
            raise StorageError(
                f"cannot attach mmap column file {descriptor.location!r}: {exc}"
            ) from exc

    # -- window pool -----------------------------------------------------

    def _map_window(self, page_id: int) -> mmap.mmap:
        start = page_id * self._page_bytes_
        length = min(self._page_bytes_, self._file_nbytes - start)
        if page_id < 0 or length <= 0:
            raise MissingPageError(page_id, backend="mmap")
        return mmap.mmap(
            self._file.fileno(),
            length=length,
            offset=start,
            access=mmap.ACCESS_READ,
        )

    @staticmethod
    def _close_window(page_id: int, window: mmap.mmap) -> None:
        window.close()

    def _read_bytes(self, byte0: int, byte1: int, out: np.ndarray) -> None:
        """Copy file bytes ``[byte0, byte1)`` into ``out`` via the pool."""
        pb = self._page_bytes_
        written = 0
        for page_id in range(byte0 // pb, (byte1 - 1) // pb + 1):
            window = self._pool.read_page(page_id)
            lo = max(byte0 - page_id * pb, 0)
            hi = min(byte1 - page_id * pb, len(window))
            part = np.frombuffer(window, dtype=np.uint8, count=hi - lo, offset=lo)
            out[written : written + (hi - lo)] = part
            del part  # drop the buffer export before any later eviction
            written += hi - lo

    # -- ColumnStore surface --------------------------------------------

    def columns(self) -> tuple[str, ...]:
        return tuple(f.name for f in self._fields)

    def shape(self, name: str) -> tuple[int, ...]:
        return self._by_name[name].shape

    def get(self, name: str) -> np.ndarray:
        return self.read(name, 0, self._by_name[name].shape[0])

    def read(self, name: str, start: int, stop: int) -> np.ndarray:
        field = self._by_name[name]
        if self._closed:
            raise StorageError(f"read from closed store {self._path}")
        start, stop = int(start), int(stop)
        if not 0 <= start <= stop <= field.shape[0]:
            raise ValueError(
                f"rows [{start}, {stop}) out of range for column "
                f"{name!r} with {field.shape[0]} rows"
            )
        dtype = np.dtype(field.dtype)
        row_elems = int(np.prod(field.shape[1:], dtype=np.int64))
        row_bytes = row_elems * dtype.itemsize
        byte0 = field.offset + start * row_bytes
        byte1 = field.offset + stop * row_bytes
        out = np.empty(byte1 - byte0, dtype=np.uint8)
        if byte1 > byte0:
            self._read_bytes(byte0, byte1, out)
        arr = out.view(dtype).reshape((stop - start,) + field.shape[1:])
        arr.flags.writeable = False
        return arr

    def descriptor(self) -> StoreDescriptor:
        return StoreDescriptor(
            backend="mmap",
            location=self._path,
            nbytes=self._file_nbytes,
            fields=self._fields,
        )

    def stats(self) -> dict:
        s = self._pool.stats
        return {
            "backend": self.backend,
            "nbytes": self._file_nbytes,
            "page_bytes": self._page_bytes_,
            "pool_pages": self._pool.capacity,
            "resident_pages": self._pool.resident_pages,
            "resident_bytes": self._pool.resident_pages * self._page_bytes_,
            "logical_reads": s.logical_reads,
            "page_faults": s.page_faults,
            "evictions": s.evictions,
            "hit_rate": s.hit_rate,
        }

    def reset_stats(self) -> None:
        self._pool.reset_stats()

    def drop_cache(self) -> None:
        """Close every pooled window (cold-cache measurements)."""
        self._pool.drop_cache()

    @property
    def path(self) -> str:
        return self._path

    @property
    def page_bytes(self) -> int:
        return self._page_bytes_

    @property
    def pool_pages(self) -> int:
        return self._pool.capacity

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._pool.drop_cache()
        self._file.close()
        if self._owner:
            _owned_files.discard(self._path)
            try:
                os.unlink(self._path)
            except OSError:  # pragma: no cover - already gone
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MmapStore(path={self._path!r}, nbytes={self._file_nbytes}, "
            f"owner={self._owner})"
        )


@atexit.register
def _remove_leftovers() -> None:  # pragma: no cover - interpreter exit
    for path in list(_owned_files):
        try:
            os.unlink(path)
        except OSError:
            pass
        _owned_files.discard(path)
