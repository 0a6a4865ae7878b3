"""Column stores for the two callers that move columns out of process.

See DESIGN.md §16.  A :class:`ColumnStore` is a named, immutable set of
numpy columns with a picklable :class:`StoreDescriptor`.  ``shm`` holds
one shared-memory segment: the process executor ships a filter's
coordinates to its workers in one, zero-copy.  ``mmap`` holds a
64-byte-aligned file streamed through a bounded :class:`BufferPool` of
real mmap windows: a :class:`~repro.uncertainty.columnar.DistributionPack`
corpus larger than RAM pages through one, with page-fault/eviction
accounting.  Consumers copy before writing (one copy-on-write rule) and
chunked consumers walk ``read`` ranges instead of materialising columns.
"""

from repro.storage.base import (
    BACKENDS,
    ColumnField,
    ColumnStore,
    StoreDescriptor,
    create_store,
    open_store,
)
from repro.storage.errors import MissingPageError, StorageError
from repro.storage.mmapstore import (
    DEFAULT_PAGE_BYTES,
    DEFAULT_POOL_PAGES,
    MmapStore,
)
from repro.storage.pool import BufferPool, PageStats
from repro.storage.shmstore import ShmStore

__all__ = [
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
]
