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
        #: The filter every query path descends, maintained
        #: *incrementally* across dynamic updates (DESIGN.md §11).
        self._batch_filter: BatchMbrFilter | None = (
            BatchMbrFilter(self._objects)
            if self._config.use_rtree and self._objects
            else None
        )

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
            self._batch_filter = BatchMbrFilter(self._objects)
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
