"""The column store: one interface, two backings.

A :class:`ColumnStore` holds a named set of numpy columns (flat or
2-D) behind four operations — ``get`` (whole column), ``read``
(first-axis range), ``descriptor`` (a picklable rehydration recipe),
and ``close`` — plus uniform I/O ``stats``.  Two backends implement
it:

* ``shm`` — one ``multiprocessing.shared_memory`` segment, zero-copy
  across process workers;
* ``mmap`` — a 64-byte-aligned on-disk file served through a
  page-granular :class:`~repro.storage.pool.BufferPool` of real mmap
  windows, so column sets larger than RAM stay queryable.

``chunked`` distinguishes the modes of consumption: ``shm`` hands out
zero-copy views, ``mmap`` copies the requested range out of pooled
windows — callers that can stream should prefer ``read`` over ``get``
on it.

One descriptor type (:class:`StoreDescriptor`) covers both backends:
a backend tag, a location (segment name or file path), and a per-field
``(name, dtype, shape, offset)`` table of :class:`ColumnField` records.
``open_store`` rehydrates it in any process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.storage.errors import StorageError

__all__ = [
    "BACKENDS",
    "ColumnField",
    "ColumnStore",
    "StoreDescriptor",
    "create_store",
    "open_store",
]

#: The recognised backend tags, in documentation order.
BACKENDS = ("shm", "mmap")

#: Column offsets are rounded up to this many bytes so every view is
#: aligned for any dtype the columns use.
_ALIGN = 64


@dataclass(frozen=True)
class ColumnField:
    """One column's rehydration recipe: dtype/shape/offset inside the backing."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class StoreDescriptor:
    """A column set's rehydration recipe — cheap to pickle.

    Attributes
    ----------
    backend:
        ``'shm'`` or ``'mmap'``.
    location:
        Segment name (shm) or file path (mmap).
    nbytes:
        Total backing size in bytes.
    fields:
        Per-column layout, one :class:`ColumnField` per column.
    """

    backend: str
    location: str
    nbytes: int
    fields: tuple[ColumnField, ...] = ()

    def field(self, name: str) -> ColumnField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)


def layout_columns(
    specs: Mapping[str, tuple[np.dtype, tuple[int, ...]]],
) -> tuple[tuple[ColumnField, ...], int]:
    """The aligned ``(fields, nbytes)`` layout of ``name -> (dtype,
    shape)`` columns packed into one backing (segment or file)."""
    fields = []
    offset = 0
    for name, (dtype, shape) in specs.items():
        dtype = np.dtype(dtype)
        if not shape:
            raise ValueError(f"column {name!r} must have at least one axis")
        if dtype.hasobject:
            raise ValueError(f"column {name!r} holds Python objects ({dtype})")
        fields.append(ColumnField(str(name), dtype.str, tuple(shape), offset))
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        offset = (offset + nbytes + _ALIGN - 1) // _ALIGN * _ALIGN
    return tuple(fields), max(1, offset)


class ColumnStore:
    """Abstract base: a named, immutable set of numpy columns."""

    backend: str = "?"
    #: True when ``read`` streams copies out of a bounded pool rather
    #: than slicing resident arrays; consumers should walk chunked
    #: stores in blocks instead of materialising whole columns.
    chunked: bool = False

    # -- required surface ------------------------------------------------

    def columns(self) -> tuple[str, ...]:
        raise NotImplementedError

    def shape(self, name: str) -> tuple[int, ...]:
        raise NotImplementedError

    def get(self, name: str) -> np.ndarray:
        """The whole column (a view for shm, a copy for chunked mmap)."""
        raise NotImplementedError

    def read(self, name: str, start: int, stop: int) -> np.ndarray:
        """Rows ``[start, stop)`` along the column's first axis."""
        raise NotImplementedError

    def descriptor(self) -> StoreDescriptor:
        raise NotImplementedError

    def close(self) -> None:
        """Release the backing (owner semantics are backend-specific:
        the creator unlinks, attachers only unmap).  Idempotent."""

    # -- shared surface --------------------------------------------------

    def stats(self) -> dict:
        """Uniform I/O counters; the resident shm backend reports all-hit."""
        return {
            "backend": self.backend,
            "nbytes": self.nbytes,
            "resident_bytes": self.nbytes,
            "logical_reads": 0,
            "page_faults": 0,
            "evictions": 0,
            "hit_rate": 1.0,
        }

    @property
    def nbytes(self) -> int:
        return int(self.descriptor().nbytes)

    def __contains__(self, name: str) -> bool:
        return name in self.columns()

    def __enter__(self) -> "ColumnStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def create_store(
    backend: str, arrays: Mapping[str, np.ndarray], **options
) -> ColumnStore:
    """Build a fresh store of ``backend`` holding ``arrays``.

    ``options`` are backend-specific (the mmap backend accepts
    ``page_bytes``, ``pool_pages`` and ``directory``); shm rejects any.
    """
    from repro.storage.mmapstore import MmapStore
    from repro.storage.shmstore import ShmStore

    if backend == "shm":
        _reject_options("shm", options)
        return ShmStore.create(arrays)
    if backend == "mmap":
        return MmapStore.create(arrays, **options)
    raise StorageError(
        f"unknown storage backend {backend!r}: expected one of {BACKENDS}"
    )


def open_store(descriptor: StoreDescriptor, **options) -> ColumnStore:
    """Rehydrate a store from its descriptor (typically in a worker).

    The returned store never owns the backing: closing it unmaps but
    does not unlink — the creator keeps that responsibility.
    """
    from repro.storage.mmapstore import MmapStore
    from repro.storage.shmstore import ShmStore

    if descriptor.backend == "shm":
        _reject_options("shm", options)
        return ShmStore.attach(descriptor)
    if descriptor.backend == "mmap":
        return MmapStore.attach(descriptor, **options)
    raise StorageError(
        f"descriptor names unknown backend {descriptor.backend!r}"
    )


def _reject_options(backend: str, options: Mapping) -> None:
    if options:
        raise StorageError(
            f"the {backend} backend takes no options, got {sorted(options)}"
        )
