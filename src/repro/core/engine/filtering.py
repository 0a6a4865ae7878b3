"""The shared filter stage: single-query index + whole-batch MBR sweep.

One mixin owns everything the filtering phase needs — the incrementally
maintained :class:`~repro.index.filtering.BatchMbrFilter` serving every
batch path, and the single-query :class:`~repro.index.filtering.PnnFilter`
(or linear scan) packed from that filter's coordinate arrays — and
implements the ``_maintain_*`` hooks the registry's mutation primitives
call, so index upkeep stays out of the storage module and out of the
executors.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.core.types import QuerySpec
from repro.index.filtering import (
    BatchMbrFilter,
    FilterResult,
    PnnFilter,
    filter_candidates,
)

__all__ = ["FilterStageMixin"]


class FilterStageMixin:
    """Builds, maintains, and serves the engine's two filters."""

    def _init_filter_stage(self) -> None:
        self._filter: PnnFilter | Callable | None = None
        #: Column stores this engine created and must unlink on close
        #: (``config.storage != "ram"``; DESIGN.md §16).
        self._owned_stores: list = []
        #: Vectorised whole-batch filter shared by execute_batch and the
        #: routed k-NN/range paths, maintained *incrementally* across
        #: dynamic updates: insert appends a coordinate row, remove
        #: masks one (DESIGN.md §11).
        self._batch_filter: BatchMbrFilter | None = (
            self._make_batch_filter()
            if self._config.use_rtree and self._objects
            else None
        )
        #: Mutations never maintain the single-query filter; they drop it
        #: (it snapshots its items, so a kept one would pin replaced
        #: objects) and set this flag, and :meth:`_single_filter`
        #: rebuilds it — a repack from the batch filter's coordinate
        #: arrays, ≈2 ms at N = 20 000 — so an update stream probed
        #: only through ``execute_batch`` pays nothing for it.
        self._filter_stale = False
        self._build_filter()

    # ------------------------------------------------------------------
    # Column-store backing (DESIGN.md §16)
    # ------------------------------------------------------------------

    def _store_options(self) -> dict:
        """``create_store`` keyword options for the configured backend."""
        if self._config.storage != "mmap":
            return {}
        return {
            "page_bytes": self._config.storage_page_bytes,
            "pool_pages": self._config.storage_pool_pages,
            "directory": self._config.storage_dir,
        }

    def _make_batch_filter(self) -> BatchMbrFilter:
        """A :class:`BatchMbrFilter` on the configured storage backend.

        ``ram`` builds the plain resident filter (zero overhead — the
        default path is untouched).  ``shm``/``mmap`` export the
        coordinate columns into an engine-owned store and serve the
        filter as a view over it; the store is released by
        :meth:`_release_stores` when the engine closes.  Sweeps are
        bit-identical across backends (property-tested), so the knob is
        invisible in the answers.
        """
        flt = BatchMbrFilter(self._objects)
        if self._config.storage == "ram":
            return flt
        store = flt.to_store(self._config.storage, **self._store_options())
        self._owned_stores.append(store)
        return BatchMbrFilter.from_store(store, self._objects)

    def _storage_stats(self) -> dict:
        """The ``stats()["storage"]`` payload: backend plus aggregated
        buffer-pool counters over every engine-owned store."""
        stats: dict = {
            "backend": self._config.storage,
            "stores": len(self._owned_stores),
        }
        totals = {
            "nbytes": 0,
            "logical_reads": 0,
            "page_faults": 0,
            "evictions": 0,
            "resident_bytes": 0,
        }
        for store in self._owned_stores:
            snapshot = store.stats()
            for key in totals:
                totals[key] += int(snapshot.get(key, 0))
        stats.update(totals)
        reads = totals["logical_reads"]
        stats["hit_rate"] = (
            1.0 - totals["page_faults"] / reads if reads else 1.0
        )
        return stats

    def _release_stores(self) -> None:
        """Close and unlink every engine-owned column store.

        The batch filter is a view over those stores, so it is dropped
        with them; the engine stays usable — the next batch path
        rebuilds it lazily (on fresh stores)."""
        if not self._owned_stores:
            return
        self._batch_filter = None
        while self._owned_stores:
            self._owned_stores.pop().close()

    def _build_filter(self) -> None:
        """(Re)build the single-query PNN filter for the object set."""
        self._filter_stale = False
        if not self._objects:
            self._filter = None
        elif self._config.use_rtree:
            lows, highs = self._ensure_batch_filter().coordinates()
            self._filter = PnnFilter.from_arrays(
                lows, highs, self._objects, self._config.rtree_max_entries
            )
        else:
            self._filter = lambda q: filter_candidates(self._objects, q)

    def _single_filter(self) -> PnnFilter | Callable:
        """The single-query filter, repacked first if a mutation has
        happened since it was built (DESIGN.md §11)."""
        if self._filter_stale:
            self._build_filter()
        return self._filter

    # ------------------------------------------------------------------
    # Maintenance hooks called by the registry's mutation primitives
    # ------------------------------------------------------------------

    def _maintain_insert(self, obj, was_empty: bool) -> None:
        if was_empty:
            self._build_filter()
            return
        if self._batch_filter is not None:
            self._batch_filter.append(obj)
        self._filter, self._filter_stale = None, True

    def _maintain_remove(self, victim, index: int) -> None:
        if self._batch_filter is not None:
            self._batch_filter.remove_at(index)
        self._filter, self._filter_stale = None, True
        if not self._objects:
            self._batch_filter = None
            self._build_filter()

    def _maintain_replace(self, victim, obj, index: int) -> None:
        if self._batch_filter is not None:
            self._batch_filter.replace_at(index, obj)
        self._filter, self._filter_stale = None, True

    # ------------------------------------------------------------------
    # Serving the executors
    # ------------------------------------------------------------------

    def _ensure_batch_filter(self) -> BatchMbrFilter:
        """The vectorised MBR filter, built lazily on first use.

        Once built it is maintained incrementally by
        :meth:`~repro.core.engine.registry.ObjectRegistryMixin.insert` /
        ``remove`` (append / mask a coordinate row) rather than rebuilt
        from the object tuple.
        """
        if self._batch_filter is None:
            self._batch_filter = self._make_batch_filter()
        return self._batch_filter

    def _filter_batch(self, points: Sequence) -> list[FilterResult]:
        """Filter every point, in one vectorised pass when possible.

        R-tree engines filter over object MBRs, which is exactly what
        the tree's branch-and-bound computes, so the whole batch runs
        as one matrix sweep.  Linear-scan engines use per-object
        ``mindist``/``maxdist`` (which may be tighter than the MBR for
        2-D regions), so they keep the reference scan per point.
        """
        if self._config.use_rtree:
            points = [p.q if isinstance(p, QuerySpec) else p for p in points]
            return self._ensure_batch_filter()(points)
        scan = self._single_filter()
        return [scan(p.q if isinstance(p, QuerySpec) else p) for p in points]
