"""Batch evaluation substrate: one amortised pass over many specs.

The workloads that motivate probabilistic NN queries — moving clients
re-probing as they travel, periodic sensor sweeps, privacy-preserving
location services — issue *many* query points against *one* slowly
changing object set.
:meth:`repro.core.engine.UncertainEngine.execute_batch` serves that
shape directly (``execute`` is a batch of one).  For C-PNN specs:

* **filtering** runs as one batched descent of the packed filter for
  the whole batch (:class:`repro.index.filtering.BatchMbrFilter`), the
  same levels the k-NN and range paths descend;
* **initialisation** of the queries no cached table serves is one
  stacked pass: one fold of every candidate row from the filter's
  positions and columns (``DistributionPack.from_segments``; only the
  rows no fold kernel takes — 2-D regions, rows the scalar fold trims
  or renormalises — build a distance distribution), one sort, and one
  cdf kernel (``SubregionTable.stacked``);
* **verification** of every query that is not replayed from the table
  cache is one stacked pass (``verify_stacked``); **refinement** and
  record assembly run query by query, on each query's own states and
  refiner.

k-NN and range specs share the same packed filter and fold their packs
from its columns the same way (see
:meth:`~repro.core.engine.UncertainEngine.execute_batch`).

No per-row arithmetic depends on the batch's shape, so a batch's
records equal its queries' batches of one bit for bit; the speed-up
comes from the shared descent, from the stacked passes, and from work
the table cache skips.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, Iterator

import numpy as np

from repro.core.types import PhaseTimings, QueryResult

__all__ = [
    "BatchResult",
    "TableCache",
    "point_key",
]


def point_key(q) -> Hashable:
    """A hashable identity for a query point (scalar or coordinates)."""
    if hasattr(q, "__len__"):
        return tuple(float(c) for c in q)
    return float(q)


@dataclass
class CachedTable:
    """One table-cache entry: the built table plus the geometry needed
    to decide, under a later object-set mutation, whether the entry is
    still exact (DESIGN.md §11).

    Attributes
    ----------
    table:
        The fully built :class:`~repro.core.subregions.SubregionTable`,
        or ``None`` once the cache let go of it to stay within its cell
        budget (the result snapshots stay; a new constraint at this
        point builds the table again).
    fmin:
        The filtering radius of the point's candidate set *at build
        time*.  Mutations that keep the entry alive provably leave
        ``f_min`` unchanged, so the stored value stays current for as
        long as the entry lives.
    results:
        Memoised :class:`~repro.core.types.QueryResult` snapshots keyed
        by ``(spec type, threshold, tolerance)``.  The full
        pipeline is deterministic in (table, spec, engine config), so a
        result stays exact precisely as long as its table does; a
        repeated probe of an undisturbed point replays the snapshot and
        skips verification *and* refinement, not just initialisation.
    """

    table: object
    fmin: float
    results: dict = field(default_factory=dict)


#: Capacity of an engine's subregion-table cache, in query points (a
#: sharded engine's lanes split it).
TABLE_CACHE_SIZE = 256

#: The cdf cells (``|C| · M`` per table, each table owning its
#: ``(|C|, M)`` matrix) the cache's tables may hold: 512 KiB of cells.
#: Past it the least recently used entries let go of their tables and
#: keep their result snapshots.  ``execute`` is a batch of one, so
#: every cold query leaves a table behind, while a table is read only
#: when its point comes back under a new constraint; a repeat under
#: the same one replays the snapshot.  So the bound keeps ≈ 26 uniform
#: tables (≈ 2.5·10³ cells) or one 300-bar table (≈ 10⁵ cells), and
#: all 256 entries' snapshots.
TABLE_CACHE_CELLS = 1 << 16


def _cells_of(table) -> int:
    """A table's cdf cells (0 for anything that is not a table)."""
    return getattr(table, "size", 0) * getattr(table, "n_subregions", 0)


class TableCache:
    """LRU of fully built subregion tables, selectively invalidated.

    Keyed by query point (``point_key``); values are
    :class:`CachedTable` entries.  Unlike a plain LRU, the cache knows
    which entries an object-set mutation can affect: an insert or
    removal of object ``o`` changes the candidate set of point ``q``
    iff ``mindist(o, q) <= f_min(q)`` (see DESIGN.md §11 for the
    argument covering both directions), so
    :meth:`invalidate_overlapping` drops exactly those entries with one
    vectorised MBR-distance sweep and leaves the rest warm.

    The sweep's point/``f_min`` matrices are rebuilt lazily and only
    when the entry set changed since the last sweep — in the steady
    state of an update stream most mutations invalidate nothing, so
    consecutive sweeps reuse the same arrays.
    """

    def __init__(
        self, maxsize: int = TABLE_CACHE_SIZE, max_cells: int = TABLE_CACHE_CELLS
    ) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self._maxsize = int(maxsize)
        self._max_cells = int(max_cells)
        #: Entries in recency order, least recently used first.
        self._entries: OrderedDict[Hashable, CachedTable] = OrderedDict()
        #: The keys of the entries still holding a table, in recency
        #: order, with the table's cells; and the sum of those cells.
        self._tabled: OrderedDict[Hashable, int] = OrderedDict()
        self._total_cells = 0
        self.hits = 0
        self.misses = 0
        self._points: np.ndarray | None = None
        self._fmins: np.ndarray | None = None
        self._keys: list[Hashable] = []
        self._dirty = True

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def clear(self) -> None:
        self._entries.clear()
        self._tabled.clear()
        self._total_cells = 0
        self._dirty = True

    def get(self, key: Hashable) -> CachedTable | None:
        """The cached entry for a point key, refreshed as most recent
        and counted as a hit, or ``None`` (a miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        if key in self._tabled:
            self._tabled.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, key: Hashable) -> CachedTable | None:
        """The cached entry without touching counters or recency (the
        sharded engine's pre-filter probe; see DESIGN.md §12)."""
        return self._entries.get(key)

    def put(self, key: Hashable, entry: CachedTable) -> None:
        """Insert an entry, evicting the least recently used one past
        ``maxsize``; past ``max_cells`` the least recently used entries
        let go of their tables (never the newest)."""
        self._drop(key)
        self._entries[key] = entry
        self._tabled[key] = cells = _cells_of(entry.table)
        self._total_cells += cells
        if len(self._entries) > self._maxsize:
            self._drop(next(iter(self._entries)))
        while self._total_cells > self._max_cells and len(self._tabled) > 1:
            oldest, cells = self._tabled.popitem(last=False)
            self._total_cells -= cells
            self._entries[oldest].table = None
        self._dirty = True

    def _drop(self, key: Hashable) -> None:
        if self._entries.pop(key, None) is not None:
            self._total_cells -= self._tabled.pop(key, 0)

    def _geometry(self) -> tuple[np.ndarray, np.ndarray, list[Hashable]]:
        if self._dirty:
            self._keys = list(self._entries)
            self._points = np.array(
                [
                    key if isinstance(key, tuple) else (key,)
                    for key in self._keys
                ],
                dtype=float,
            ).reshape(len(self._keys), -1)
            self._fmins = np.array(
                [entry.fmin for entry in self._entries.values()], dtype=float
            )
            self._dirty = False
        return self._points, self._fmins, self._keys

    def invalidate_overlapping(self, lows, highs) -> int:
        """Drop entries whose candidate set the MBR ``[lows, highs]``
        could change; returns how many were dropped.

        The test per cached point ``q`` is ``mindist(mbr, q) <=
        f_min(q)``, with the mindist arithmetic mirroring
        :meth:`repro.index.filtering.BatchMbrFilter._sweep` operation
        for operation so the decision is exactly the filter's own
        candidate test.
        """
        return self.invalidate_boxes(
            np.asarray(lows, dtype=float)[None, :],
            np.asarray(highs, dtype=float)[None, :],
        )

    def invalidate_boxes(self, lows: np.ndarray, highs: np.ndarray) -> int:
        """Vectorised form of :meth:`invalidate_overlapping` for a whole
        batch of mutation MBRs (``(m, d)`` arrays): an entry is dropped
        when *any* box passes its candidate test.  One numpy sweep over
        the ``m × entries`` grid — how the engine folds a tick's worth
        of queued dynamic updates into the cache at the next query.
        """
        if not self._entries or not len(lows):
            return 0
        points, fmins, keys = self._geometry()
        gap = np.maximum(
            lows[:, None, :] - points[None, :, :],
            points[None, :, :] - highs[:, None, :],
        )
        np.maximum(gap, 0.0, out=gap)
        np.multiply(gap, gap, out=gap)
        mindist = gap.sum(axis=2)
        np.sqrt(mindist, out=mindist)
        doomed = np.flatnonzero((mindist <= fmins[None, :]).any(axis=0))
        if not doomed.size:
            return 0
        for i in doomed.tolist():
            self._drop(keys[i])
        self._dirty = True
        return int(doomed.size)


@dataclass
class BatchResult:
    """Outcome of one :meth:`UncertainEngine.execute_batch` call.

    Attributes
    ----------
    results:
        One :class:`~repro.core.types.QueryResult` per spec, in input
        order.  Every result carries its own initialisation /
        verification / refinement timings (all zero for a replayed
        snapshot — nothing ran); ``timings.filtering`` is zero because
        the shared descent cannot be attributed to single queries.
    timings:
        Wall-clock totals of the four phases: filtering once for the
        whole batch, and for the other three the plain sums of the
        results' own phases.
    cache_hits / cache_misses:
        Always 0.  The engine keeps no distance-distribution cache;
        the fields stay for readers of its former counters.
    table_hits / table_misses:
        Subregion-table-cache traffic: a table hit means a repeated
        probe skipped distribution construction and table building
        entirely for that point.
    result_hits:
        Probes answered by replaying a memoised result snapshot (a
        strict subset of ``table_hits``): the whole pipeline —
        filtering, initialisation, verification, refinement — was
        skipped for those specs (DESIGN.md §11).
    replayed:
        The input positions behind ``result_hits`` — which specs of
        this batch were answered by snapshot replay (ascending input
        order).  Lets monitoring callers report *which* queries were
        re-executed vs. replayed instead of inferring it from timings
        (``StreamingWorkload.drive``'s tick reports ride this).
    """

    results: list[QueryResult] = field(default_factory=list)
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    cache_hits: int = 0
    cache_misses: int = 0
    table_hits: int = 0
    table_misses: int = 0
    result_hits: int = 0
    replayed: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[QueryResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> QueryResult:
        return self.results[index]

    @property
    def answers(self) -> list[tuple]:
        """Answer tuple of every query, in input order."""
        return [result.answers for result in self.results]

    @property
    def answer_sets(self) -> list[frozenset]:
        """Answer sets (order-insensitive) of every query."""
        return [frozenset(result.answers) for result in self.results]

    @property
    def total_refined(self) -> int:
        """Candidates that needed refinement across the whole batch."""
        return sum(result.refined_objects for result in self.results)

    def __repr__(self) -> str:
        """Compact summary — a batch holds one full record list per
        spec, so the dataclass default would dump them all."""
        return (
            f"{type(self).__name__}(results={len(self.results)}, "
            f"total_s={self.timings.total:.6g}, "
            f"cache_hits={self.cache_hits}, cache_misses={self.cache_misses}, "
            f"table_hits={self.table_hits}, result_hits={self.result_hits})"
        )
