"""The shm backend: one shared-memory segment per column set.

The process-parallel executor (DESIGN.md §13) moves verification into
spawned workers that must see the parent's columnar substrate without
paying a pickle of every float.  :meth:`ShmStore.create` copies a named
set of arrays into one ``multiprocessing.shared_memory`` segment
(64-byte aligned, C-contiguous); the store's
:class:`~repro.storage.base.StoreDescriptor` — segment name plus the
per-column layout — pickles in O(columns), and :meth:`ShmStore.attach`
rehydrates it in another process as **zero-copy numpy views** over the
mapped segment.  Views are read-only (the substrate-wide copy-on-write
rule) unless the attacher asks for ``writable=True`` — workers filling
a shared output buffer do.

Ownership is creator-unlinks: the creating store unlinks on ``close``;
attached stores only unmap.  On Python < 3.13 an attach would also
*register* the segment with the attacher's resource tracker, which then
unlinks it at attacher exit and warns about the "leak"; the attach path
suppresses that registration (3.13+ passes ``track=False``).  A
module-level ``atexit`` net releases anything a crashed owner left
behind, so a test session can assert ``/dev/shm`` holds no
``repro_shm_*`` entries afterwards.
"""

from __future__ import annotations

import atexit
import secrets
import sys
from multiprocessing import shared_memory
from typing import Mapping

import numpy as np

from repro import hooks
from repro.storage.base import (
    ColumnField,
    ColumnStore,
    StoreDescriptor,
    layout_columns,
)
from repro.storage.errors import StorageError

__all__ = ["ShmStore"]

#: Every segment this module creates is named ``repro_shm_<token>`` so
#: leak checks (and humans inspecting /dev/shm) can attribute it.
SEGMENT_PREFIX = "repro_shm_"

#: Segments created (and not yet released) by this process, for the
#: atexit safety net.  Keyed by segment name.
_owned: dict[str, shared_memory.SharedMemory] = {}


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    # Pre-3.13 attach registers with the resource tracker as if this
    # process created the segment; the tracker would then unlink it
    # (possibly under the owner) and warn at exit.  Suppress just that
    # registration for the duration of the constructor call.
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def _skip_shared_memory(rname, rtype):
        if rtype != "shared_memory":
            original(rname, rtype)

    resource_tracker.register = _skip_shared_memory
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _release(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink an owned segment (idempotent, never raises for
    an already-released segment)."""
    _owned.pop(shm.name, None)
    try:
        shm.close()
    except (BufferError, OSError):  # pragma: no cover - platform dependent
        pass
    try:
        shm.unlink()
    except OSError:  # already unlinked, or platform dependent
        pass


@atexit.register
def _release_leftovers() -> None:  # pragma: no cover - interpreter exit
    for shm in list(_owned.values()):
        _release(shm)


def _views(
    shm: shared_memory.SharedMemory,
    fields: tuple[ColumnField, ...],
    writable: bool,
) -> dict[str, np.ndarray]:
    views: dict[str, np.ndarray] = {}
    for field in fields:
        view = np.ndarray(
            field.shape,
            dtype=np.dtype(field.dtype),
            buffer=shm.buf,
            offset=field.offset,
        )
        view.flags.writeable = writable
        views[field.name] = view
    return views


class ShmStore(ColumnStore):
    backend = "shm"
    chunked = False

    def __init__(self, segment, views, descriptor, *, owner: bool) -> None:
        self._segment = segment
        self._views: dict[str, np.ndarray] = views
        self._descriptor: StoreDescriptor = descriptor
        self._owner = bool(owner)
        self._closed = False

    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "ShmStore":
        """Copy ``arrays`` into one fresh segment; the store owns it."""
        if not arrays:
            raise ValueError("a column store needs at least one column")
        contiguous = {
            str(name): np.ascontiguousarray(arr) for name, arr in arrays.items()
        }
        fields, nbytes = layout_columns(
            {name: (arr.dtype, arr.shape) for name, arr in contiguous.items()}
        )
        name = SEGMENT_PREFIX + secrets.token_hex(8)
        shm = shared_memory.SharedMemory(create=True, size=nbytes, name=name)
        _owned[name] = shm
        # The owner's views map the segment it already holds — no
        # second attachment, same zero-copy read-only surface the
        # attach path builds (read-only once filled).
        views = _views(shm, fields, writable=True)
        for column, arr in contiguous.items():
            views[column][...] = arr
            views[column].flags.writeable = False
        return cls(
            shm,
            views,
            StoreDescriptor(
                backend="shm", location=name, nbytes=nbytes, fields=fields
            ),
            owner=True,
        )

    @classmethod
    def attach(
        cls, descriptor: StoreDescriptor, *, writable: bool = False
    ) -> "ShmStore":
        """Map an exported segment (worker side, never unlinks).

        The attachment is *not* registered with this process's resource
        tracker — only the creator unlinks.  Raises
        :class:`~repro.storage.errors.StorageError` when the segment no
        longer exists.
        """
        hooks.fire("shm.attach", segment=descriptor.location)
        try:
            shm = _attach_untracked(descriptor.location)
        except OSError as exc:
            raise StorageError(
                f"cannot attach shm segment {descriptor.location!r}: {exc}"
            ) from exc
        return cls(
            shm, _views(shm, descriptor.fields, writable), descriptor, owner=False
        )

    # -- ColumnStore surface --------------------------------------------

    def columns(self) -> tuple[str, ...]:
        return tuple(self._views)

    def shape(self, name: str) -> tuple[int, ...]:
        return self._views[name].shape

    def get(self, name: str) -> np.ndarray:
        return self._views[name]

    def read(self, name: str, start: int, stop: int) -> np.ndarray:
        return self._views[name][start:stop]

    def descriptor(self) -> StoreDescriptor:
        return self._descriptor

    def close(self) -> None:
        """Owner: release (close + unlink) the segment.  Attacher: drop
        views and unmap.  Pinned views held by packs keep the mapping
        alive until they are garbage-collected (``close`` degrades to a
        no-op unmap then); the unlink itself never waits."""
        if self._closed:
            return
        self._closed = True
        self._views = {}
        if self._owner:
            _release(self._segment)
        else:
            try:
                self._segment.close()
            except BufferError:  # pragma: no cover - views still pinned
                pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShmStore(segment={self._descriptor.location!r}, "
            f"owner={self._owner})"
        )
