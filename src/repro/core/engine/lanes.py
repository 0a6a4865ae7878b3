"""Execution lanes and the shard fan-out filter façade.

The two pieces :class:`~repro.core.engine.sharded.ShardedEngine` puts
on either side of its global ``f_min`` reconciliation (DESIGN.md §12):

* :class:`FanoutMbrFilter` — the *upstream* side: presents the
  :class:`~repro.index.filtering.BatchMbrFilter` surface over matrices
  assembled from concurrent per-shard sweeps;
* :class:`Lane` — the *downstream* side: a private C-PNN executor (own
  distribution/table caches, deterministic query-point affinity) that
  runs the unmodified single-engine batch pipeline over its slice of a
  batch, against the reconciled filter results the parent staged.

Lanes never share mutable state with each other, so the fan-out needs
no locks; everything they read concurrently (config, staged filter
results, the object snapshot) is frozen for the duration of a dispatch.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

from repro.core.batch import DistributionCache, TableCache, point_key
from repro.core.engine.config import EngineConfig
from repro.core.engine.dispatch import SpecDispatchMixin
from repro.core.engine.pnn import PnnExecutorMixin
from repro.core.engine.registry import InvalidationQueueMixin
from repro.index.filtering import (
    filter_candidates,
    kth_from_matrices,
    pnn_results_from_matrices,
)

__all__ = ["FanoutMbrFilter", "Lane", "lane_for"]


def lane_for(q, n_lanes: int) -> int:
    """Deterministic lane affinity for a query point: a *content* hash.

    CRC-32 over the point's coordinates packed as little-endian IEEE
    doubles — a pure function of the coordinate bytes, so the mapping
    is identical in every interpreter, on every platform, and across
    process boundaries.  The builtin ``hash`` the previous affinity
    used is unsuitable under the process executor: it varies across
    interpreters under hash randomization (``PYTHONHASHSEED``), which
    would silently re-deal points to different lanes between runs and
    between parent and spawned workers, defeating per-lane cache
    affinity.  CRC-32's bit mixing also spreads regular whole-number
    query grids (0.0, 3.0, 6.0, …) that a naive modulo would alias
    onto few lanes.

    Any assignment is *correct* — lanes run the identical pipeline —
    so this is purely a cache-affinity and determinism contract
    (regression-tested across two spawned interpreters).
    """
    key = point_key(q)
    if isinstance(key, tuple):
        data = struct.pack(f"<{len(key)}d", *key)
    else:
        data = struct.pack("<d", key)
    return zlib.crc32(data) % n_lanes


class Lane(SpecDispatchMixin, InvalidationQueueMixin, PnnExecutorMixin):
    """One C-PNN execution lane of a sharded engine.

    Runs the *unmodified* single-engine C-PNN batch pipeline
    (:class:`~repro.core.engine.pnn.PnnExecutorMixin`: the cache tiers
    around the single-query phases) over its slice of a batch, against filter results the parent reconciled across
    shards (thread/serial executors) or against its own resident
    filter (process-executor workers).  Each lane owns its caches and
    serves a deterministic subset of query points (:func:`lane_for`'s
    content hash), so lanes never share mutable state — and repeated
    probes of a point always land on its warm lane, preserving the
    table-cache/result-snapshot replay tiers of DESIGN.md §11 under
    parallel execution.
    """

    def __init__(self, config: EngineConfig, n_lanes: int) -> None:
        self._config = config
        self._init_chains()
        self._init_invalidation_queue()
        # Each lane gets its share of the configured capacities: the
        # lane population partitions the query points, so the per-point
        # working set splits the same way.
        size = config.distribution_cache_size
        self._distribution_cache = (
            DistributionCache(max(1, size // n_lanes)) if size else None
        )
        table_size = config.table_cache_size
        self._table_cache = (
            TableCache(max(1, table_size // n_lanes)) if table_size else None
        )
        #: Per-dispatch filter lookup staged by the parent: point key →
        #: reconciled FilterResult (R-tree mode), or ``None`` with
        #: ``_scan_objects`` set (linear mode).
        self._staged: dict | None = None
        self._scan_objects: list | None = None
        #: Resident filter callable for process-executor workers: the
        #: worker owns a full BatchMbrFilter (attached from the shared
        #: coordinate segment) and the lane filters its own slice
        #: instead of reading parent-staged results (DESIGN.md §13).
        #: A callable (not the filter itself) so the worker can swap
        #: the underlying filter across mutations.
        self._local_filter = None

    def _filter_batch(self, points: Sequence) -> list:
        staged = self._staged
        if staged is not None:
            return [staged[point_key(p)] for p in points]
        if self._local_filter is not None:
            return self._local_filter(points)
        return [filter_candidates(self._scan_objects, p) for p in points]


class FanoutMbrFilter:
    """Batch-MBR-filter façade over a sharded engine's shards.

    Presents the :class:`~repro.index.filtering.BatchMbrFilter` surface
    the k-NN/range executors consume (``matrices`` / ``kth_filter`` /
    ``__call__``), implemented as a concurrent per-shard sweep scattered
    into global ``(B, N)`` matrices — values bit-identical to a single
    filter over the whole object sequence, because every matrix cell is
    the same element-wise arithmetic regardless of which shard computes
    it, and every downstream reduction is a selection (row ``min``,
    k-th smallest) that no column order can change.
    """

    def __init__(self, parent) -> None:
        self._parent = parent

    def matrices(self, points: Sequence):
        return self._parent._global_matrices(points)

    def kth_filter(self, points: Sequence, ks: Sequence[int]):
        mindist, maxdist = self.matrices(points)
        return kth_from_matrices(mindist, maxdist, ks)

    def __call__(self, points: Sequence):
        mindist, maxdist = self.matrices(points)
        return pnn_results_from_matrices(self._parent._objects, mindist, maxdist)
