"""Pluggable column storage: ram / shm / mmap behind one interface.

See DESIGN.md §16.  The substrate in one paragraph: a
:class:`ColumnStore` is a named, immutable set of numpy columns with a
picklable :class:`StoreDescriptor`; ``ram`` holds resident arrays,
``shm`` holds one shared-memory segment (zero-copy across process
workers), ``mmap`` holds a 64-byte-aligned file streamed through a
bounded :class:`BufferPool` of real mmap windows — out-of-core scale
with page-fault/eviction accounting.  Consumers copy before writing
(one copy-on-write rule) and chunked consumers walk ``read`` ranges
instead of materialising columns.
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
from repro.storage.ram import RamStore
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
    "RamStore",
    "ShmStore",
    "StorageError",
    "StoreDescriptor",
    "create_store",
    "open_store",
]
