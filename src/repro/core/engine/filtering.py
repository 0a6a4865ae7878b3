"""The shared filter stage: one packed filter for every query path.

One mixin owns everything the filtering phase needs — the incrementally
maintained :class:`~repro.index.filtering.BatchMbrFilter`, whose packed
STR levels answer single queries, batches, k-NN and range alike (or the
linear scan) — and implements the ``_maintain_*`` hooks the registry's
mutation primitives call, so index upkeep stays out of the storage
module and out of the executors.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.types import QuerySpec
from repro.index.filtering import BatchMbrFilter, FilterResult, filter_candidates

__all__ = ["FilterStageMixin"]


class FilterStageMixin:
    """Builds, maintains, and serves the engine's filter."""

    def _init_filter_stage(self) -> None:
        #: Column stores this engine created and must unlink on close
        #: (``config.storage != "ram"``; DESIGN.md §16).
        self._owned_stores: list = []
        #: The filter every query path descends, maintained
        #: *incrementally* across dynamic updates (DESIGN.md §11).
        self._batch_filter: BatchMbrFilter | None = (
            self._make_batch_filter()
            if self._config.use_rtree and self._objects
            else None
        )

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
        :meth:`_release_stores` when the engine closes.  Answers are
        bit-identical across backends (property-tested), so the setting
        is invisible in them.
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

    # ------------------------------------------------------------------
    # Maintenance hooks called by the registry's mutation primitives
    # ------------------------------------------------------------------

    def _maintain_insert(self, obj, was_empty: bool) -> None:
        if self._batch_filter is not None:
            self._batch_filter.append(obj)

    def _maintain_remove(self, victim, index: int) -> None:
        if not self._objects:
            self._batch_filter = None
        elif self._batch_filter is not None:
            self._batch_filter.remove_at(index)

    def _maintain_replace(self, victim, obj, index: int) -> None:
        if self._batch_filter is not None:
            self._batch_filter.replace_at(index, obj)

    # ------------------------------------------------------------------
    # Serving the executors
    # ------------------------------------------------------------------

    def _ensure_batch_filter(self) -> BatchMbrFilter:
        """The packed MBR filter, built lazily on first use, then
        maintained by the ``_maintain_*`` hooks above, never rebuilt."""
        if self._batch_filter is None:
            self._batch_filter = self._make_batch_filter()
        return self._batch_filter

    def _filter(self, q) -> FilterResult:
        """Filter one point (:meth:`_filter_batch` of one)."""
        return self._filter_batch([q])[0]

    def _filter_batch(self, points: Sequence) -> list[FilterResult]:
        """Filter every point: one descent over the packed levels on
        R-tree engines (MBR pruning is the tree's branch-and-bound), else
        the reference scan of exact region distances, which 2-D regions
        may bound tighter than their MBRs."""
        points = [p.q if isinstance(p, QuerySpec) else p for p in points]
        if self._config.use_rtree:
            return self._ensure_batch_filter()(points)
        return [filter_candidates(self._objects, p) for p in points]
