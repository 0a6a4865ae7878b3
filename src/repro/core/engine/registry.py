"""Object registry: storage, key bookkeeping, and the mutation contract.

This module owns the engine's *object order* (the sequence every other
structure mirrors: batch-filter rows, k-NN/range records, candidate
sets) plus the incremental-maintenance bookkeeping that rides on
it — the lazy key→position map and the deferred table-cache
invalidation queue.  The single-query filter's stale flag lives with
the filter stage (:mod:`repro.core.engine.filtering`).

.. _mutation-contract:

The mutation contract
---------------------

This is the **canonical statement** of the dynamic-update API shared by
:class:`~repro.core.engine.UncertainEngine` and
:class:`~repro.core.engine.sharded.ShardedEngine` (tested in one place,
``tests/core/test_mutation_contract.py``, against both):

* ``insert(obj)`` raises :class:`ValueError` when an object with the
  same key is already present (keys identify objects for ``remove``,
  so a silent duplicate would leave a shadowed object behind the first
  removal) and when ``obj``'s dimensionality differs from the resident
  objects'.
* ``remove(key)`` returns ``True`` when the key was present and
  ``False`` when it was not — removal is an idempotent "make absent"
  and a missing key is an answerable outcome, not a programming error.
  The engine may become empty.
* ``replace(key, obj)`` raises :class:`KeyError` when ``key`` is not
  present — replacement *asserts* the key exists (the dead-reckoning
  setting: a report for an untracked object is a protocol violation,
  not a no-op).  It raises :class:`ValueError` when ``obj`` carries a
  *different* key that collides with another resident object, or on a
  dimensionality mismatch.  On success the object keeps its position
  in the engine's object order.

The asymmetry between ``remove`` (``False``) and ``replace``
(``KeyError``) is deliberate: ``remove`` is a set-subtraction whose
caller often cannot know whether the key is still live, while
``replace`` is an in-place *update* whose caller claims it is.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

__all__ = ["InvalidationQueueMixin", "ObjectRegistryMixin"]


class InvalidationQueueMixin:
    """Deferred table-cache invalidation, shared by engines and lanes.

    Hosts provide ``_table_cache`` (a
    :class:`~repro.core.batch.TableCache` or ``None``) and a
    ``_pending_invalidation`` list this mixin initialises.
    """

    def _init_invalidation_queue(self) -> None:
        #: Deferred table-cache invalidation: each mutation queues its
        #: MBR(s); the next C-PNN batch folds the whole queue into the
        #: cache with one vectorised sweep (exact per-box tests, no
        #: per-update numpy overhead).  See DESIGN.md §11.
        self._pending_invalidation: list[tuple] = []

    def _queue_invalidation(self, obj) -> None:
        """Queue one mutation's MBR for the deferred table-cache sweep.

        A cached table for point ``q`` stays exact across an
        insert/removal of ``obj`` unless ``obj`` belongs to (insert) or
        belonged to (remove) ``q``'s candidate set — equivalently,
        unless ``mindist(obj, q) <= f_min(q)``; DESIGN.md §11 proves
        both directions.  Everything else survives with its
        distributions and matrices warm.  Cached distance distributions
        are pure functions of (object, point) and are never touched
        here; :meth:`ObjectRegistryMixin.remove` evicts only the
        removed object's entries.
        """
        if self._table_cache is not None:
            mbr = obj.mbr
            self._pending_invalidation.append((mbr.lows, mbr.highs))

    def _flush_table_invalidations(self) -> None:
        """Fold queued mutation MBRs into the table cache, one sweep.

        Must run before any table-cache read; the C-PNN batch executor
        (the only reader) and ``explain`` call it.
        """
        if self._table_cache is None or not self._pending_invalidation:
            return
        boxes = self._pending_invalidation
        self._pending_invalidation = []
        self._table_cache.invalidate_boxes(
            np.array([lows for lows, _ in boxes], dtype=float),
            np.array([highs for _, highs in boxes], dtype=float),
        )


class ObjectRegistryMixin(InvalidationQueueMixin):
    """Object storage plus the dynamic-update primitives.

    Mutations are incrementally maintained, no rebuilds (DESIGN.md
    §11): the whole-batch MBR filter appends/masks coordinate rows, the
    packed single-query filter is marked stale and repacked from those
    rows on next use, and the table cache drops only the query points
    the mutated object's MBR can affect.  See the module docstring for
    the :ref:`mutation contract <mutation-contract>`.
    """

    def _init_registry(self, objects: Sequence) -> None:
        self._objects = list(objects)
        dims = {obj.mbr.dim for obj in self._objects}
        if len(dims) > 1:
            raise ValueError(
                f"all objects must share one dimensionality, got {sorted(dims)}"
            )
        #: Parallel list of object keys (same order as ``_objects``):
        #: O(1) duplicate detection plus C-level victim lookup on
        #: ``remove`` — an update stream must not pay a Python-level
        #: attribute-access scan per removal.
        self._key_list = [obj.key for obj in self._objects]
        self._key_set = set(self._key_list)
        #: Lazy key→position map serving the O(1) lookups of
        #: :meth:`replace`; ``None`` means stale (positions shifted by
        #: a removal).  Appends and in-place replacements keep it
        #: valid, so a dead-reckoning stream builds it once.
        self._key_index: dict[Hashable, int] | None = None
        if len(self._key_set) != len(self._key_list):
            seen: set = set()
            duplicate = next(
                k for k in self._key_list if k in seen or seen.add(k)
            )
            raise ValueError(
                f"duplicate object key {duplicate!r}: keys identify objects "
                "for remove(), so they must be unique"
            )
        self._init_invalidation_queue()

    # ------------------------------------------------------------------

    @property
    def objects(self) -> tuple:
        """Snapshot of the object set (internally a mutable list)."""
        return tuple(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    def _position_of(self, key: Hashable) -> int | None:
        """Position of ``key`` in the object order, via the lazy map."""
        if key not in self._key_set:
            return None
        if self._key_index is None:
            self._key_index = {k: i for i, k in enumerate(self._key_list)}
        return self._key_index[key]

    def object_for(self, key: Hashable):
        """The resident object identified by ``key``, or ``None``.

        O(1) via the lazy key→position map.  The continuous tier uses
        this to capture an object's MBR before forwarding a mutation
        (:class:`~repro.continuous.monitor.ContinuousMonitor`); it is
        equally useful to any caller that tracks objects by key.
        """
        index = self._position_of(key)
        return None if index is None else self._objects[index]

    # ------------------------------------------------------------------
    # Dynamic updates
    # ------------------------------------------------------------------

    def insert(self, obj) -> None:
        """Add an uncertain object; later queries see it immediately.

        Raises :class:`ValueError` if an object with the same key is
        already present (see the :ref:`mutation contract
        <mutation-contract>`).
        """
        if obj.key in self._key_set:
            raise ValueError(
                f"duplicate object key {obj.key!r}: remove() the existing "
                "object before inserting its replacement"
            )
        if self._objects and obj.mbr.dim != self._objects[0].mbr.dim:
            raise ValueError("object dimensionality mismatch")
        was_empty = not self._objects
        self._objects.append(obj)
        self._key_list.append(obj.key)
        self._key_set.add(obj.key)
        if self._key_index is not None:
            self._key_index[obj.key] = len(self._key_list) - 1
        self._maintain_insert(obj, was_empty)
        self._queue_invalidation(obj)

    def remove(self, key: Hashable) -> bool:
        """Remove the object with identifier ``key``; True if found.

        Returns ``False`` — never raises — when the key is absent (see
        the :ref:`mutation contract <mutation-contract>`).  The engine
        may become empty, in which case ``execute`` returns empty
        results until an object is inserted again (DESIGN.md §8).
        """
        if self._key_index is not None:
            position = self._key_index.get(key)
            if position is None:
                return False
            index = position
        else:
            try:
                index = self._key_list.index(key)
            except ValueError:
                return False
        victim = self._objects[index]
        del self._objects[index]
        del self._key_list[index]
        self._key_set.discard(key)
        self._key_index = None  # later positions shifted
        self._maintain_remove(victim, index)
        self._queue_invalidation(victim)
        if not self._objects:
            # Drained: reset the last maintenance structures holding
            # geometry (DESIGN.md §11 — "every maintenance structure
            # resets").  A refill may bring objects of a *different*
            # dimensionality, so queued 1-D invalidation boxes or
            # cached 1-D tables must not survive into a 2-D world.
            self._pending_invalidation.clear()
            if self._table_cache is not None:
                self._table_cache.clear()
        return True

    def replace(self, key: Hashable, obj) -> None:
        """Replace the object identified by ``key`` with ``obj``, in place.

        The dead-reckoning primitive (Section I): a position report
        swaps a stale uncertainty region for a fresh one.  Semantically
        equivalent to ``remove(key)`` + ``insert(obj)`` except that the
        object keeps its position in the engine's object order, which
        lets every maintenance structure update in O(1)-ish work: the
        batch filter overwrites one coordinate row in place, the
        key→position map stays valid, and both the old and the new MBR
        are queued for the deferred table-cache sweep (exact per-box
        candidate tests, DESIGN.md §11).

        ``obj`` may keep the same key or bring a new one; a new key
        must not collide with another object's.  Raises
        :class:`KeyError` when ``key`` is not present (see the
        :ref:`mutation contract <mutation-contract>`).
        """
        index = self._position_of(key)
        if index is None:
            raise KeyError(key)
        if obj.key != key and obj.key in self._key_set:
            raise ValueError(
                f"duplicate object key {obj.key!r}: remove() the existing "
                "object before inserting its replacement"
            )
        if obj.mbr.dim != self._objects[0].mbr.dim:
            raise ValueError("object dimensionality mismatch")
        victim = self._objects[index]
        self._objects[index] = obj
        if obj.key != key:
            self._key_list[index] = obj.key
            self._key_set.discard(key)
            self._key_set.add(obj.key)
            if self._key_index is not None:
                del self._key_index[key]
                self._key_index[obj.key] = index
        self._maintain_replace(victim, obj, index)
        self._queue_invalidation(victim)
        self._queue_invalidation(obj)
