"""Execution lanes: private C-PNN executors for a sharded engine.

A :class:`Lane` runs the unmodified single-engine C-PNN batch pipeline
over its slice of a batch — against filter results the parent staged
(the serial backend, and the process backend's inline paths) or
against a process worker's own resident filter (DESIGN.md §12–§13).
Lanes never share mutable state with each other, so the fan-out needs
no locks; everything they read concurrently (config, staged filter
results) is frozen for the duration of a dispatch.
"""

from __future__ import annotations

import struct
import zlib
from typing import Sequence

from repro.core.batch import TABLE_CACHE_CELLS, TABLE_CACHE_SIZE, TableCache, point_key
from repro.core.engine.config import EngineConfig
from repro.core.engine.dispatch import SpecDispatchMixin
from repro.core.engine.pnn import PnnExecutorMixin
from repro.core.engine.registry import InvalidationQueueMixin

__all__ = ["Lane", "lane_for"]


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
    around the single-query phases) over its slice of a batch, against
    filter results the parent staged (in-process execution) or against
    a worker's resident filter (process-executor workers).  Each lane
    owns its caches and serves a deterministic subset of query points
    (:func:`lane_for`'s content hash), so lanes never share mutable
    state — and repeated probes of a point always land on its warm
    lane, preserving the table-cache/result-snapshot replay tiers of
    DESIGN.md §11 under parallel execution.
    """

    def __init__(self, config: EngineConfig, n_lanes: int) -> None:
        self._config = config
        self._init_invalidation_queue()
        # Each lane gets its share of the engine's table cache: the
        # lane population partitions the query points, so the per-point
        # working set splits the same way.
        self._table_cache = TableCache(
            max(1, TABLE_CACHE_SIZE // n_lanes), max(1, TABLE_CACHE_CELLS // n_lanes)
        )
        #: Per-dispatch filter lookup staged by the parent: point key →
        #: the parent's FilterResult.
        self._staged: dict | None = None
        #: Resident filter for process-executor workers, consulted when
        #: nothing is staged: a callable over the worker's replica (the
        #: batch filter attached from the exported coordinate store, or
        #: the linear scan), so the worker can swap the underlying
        #: filter across mutations (DESIGN.md §13).
        self._local_filter = None

    def _filter_batch(self, points: Sequence) -> list:
        staged = self._staged
        if staged is not None:
            return [staged[point_key(p)] for p in points]
        return self._local_filter(points)
