"""PNN filtering: prune objects with zero qualification probability.

This is the first phase of the paper's framework (Figure 3), based on
reference [8]: let ``f_min`` be the minimum over all objects of their
*far* distance from the query point.  Any object whose *near* distance
exceeds ``f_min`` can never be the nearest neighbour — some other
object is certainly closer — so only objects with ``near <= f_min``
survive as the *candidate set* ``C``.

Two implementations are provided with identical semantics:

* :class:`PnnFilter` — R-tree branch-and-bound, one level-synchronous
  descent over the tree's levels held as arrays;
* :func:`filter_candidates` — a vectorisable linear scan used as the
  correctness reference and for small datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.index.rtree import RTree, RTreeStats
from repro.index.str_pack import str_pack_levels

#: Byte budget of one chunked-sweep block's output (the two (B, rows)
#: matrices plus the transient (B, rows, d) gap scratch).  Determines
#: how many coordinate rows a store-backed filter pulls per block.
_SWEEP_BLOCK_BYTES = 4 << 20

__all__ = [
    "BatchMbrFilter",
    "FilterResult",
    "PnnFilter",
    "filter_candidates",
]


@dataclass(frozen=True)
class FilterResult:
    """Outcome of the filtering phase.

    Attributes
    ----------
    candidates:
        Objects that may have non-zero qualification probability,
        i.e. ``mindist(q) <= f_min``.
    fmin:
        The pruning radius: minimum over all objects of ``maxdist(q)``.
    stats:
        Index traversal counters (empty for the linear scan).
    """

    candidates: tuple
    fmin: float
    stats: RTreeStats = field(default_factory=RTreeStats)

    def __len__(self) -> int:
        return len(self.candidates)


def filter_candidates(objects: Sequence, q) -> FilterResult:
    """Reference linear-scan filter over ``SpatialUncertain`` objects."""
    if not objects:
        raise ValueError("cannot filter an empty object collection")
    fmin = min(obj.maxdist(q) for obj in objects)
    candidates = tuple(obj for obj in objects if obj.mindist(q) <= fmin)
    return FilterResult(candidates=candidates, fmin=fmin)


class PnnFilter:
    """Branch-and-bound filtering over an R-tree held as per-level arrays.

    A query is one level-synchronous descent (:func:`_descend`): no
    per-entry Python, one pass where ``RTree.nearest_maxdist`` then
    ``within_mindist`` (the reference it is property-tested against)
    took two.  ``PnnFilter(tree)`` snapshots a tree's nodes at
    construction and again whenever the tree's mutation counter has
    moved; :meth:`from_arrays` packs ``(N, d)`` coordinate arrays with
    ``str_bulk_load``'s tiling.  Both hold their own item list and
    report the same candidates in the same (leaf) order.  An object's
    MBR min/max distances equal its uncertainty region's near/far
    distance, so the survivors are exactly the paper's candidate set.
    """

    def __init__(self, tree: RTree) -> None:
        self._tree = tree
        self._version = tree.version
        self._levels, self._items = _tree_levels(tree)

    @classmethod
    def from_arrays(
        cls, lows: np.ndarray, highs: np.ndarray, items: Sequence, max_entries: int
    ) -> "PnnFilter":
        """Pack coordinate rows (``items[i]`` behind row ``i``)."""
        if not len(items):
            raise ValueError("cannot filter with an empty index")
        flt = cls.__new__(cls)
        flt._tree = flt._version = None
        flt._levels, order = str_pack_levels(lows, highs, max_entries)
        flt._items = list(map(items.__getitem__, order.tolist()))
        return flt

    def __call__(self, q) -> FilterResult:
        if self._tree is not None and self._tree.version != self._version:
            self.__init__(self._tree)
        rows, fmin, stats = _descend(self._levels, q)
        candidates = tuple(map(self._items.__getitem__, rows.tolist()))
        return FilterResult(candidates=candidates, fmin=fmin, stats=stats)


def _tree_levels(tree: RTree) -> tuple[list[tuple], list]:
    """A tree's nodes as ``str_pack_levels`` arrays, its items in leaf order."""
    if len(tree) == 0:
        raise ValueError("cannot filter with an empty index")
    levels = []
    nodes = [tree.root]
    while True:
        entries = [entry for node in nodes for entry in node.entries]
        lows = np.array([entry.rect.lows for entry in entries])
        highs = np.array([entry.rect.highs for entry in entries])
        if nodes[0].is_leaf:
            levels.append((lows, highs, None, None))
            return levels, [entry.item for entry in entries]
        nodes = [entry.child for entry in entries]
        count = np.fromiter(map(len, nodes), np.intp, len(nodes))
        levels.append((lows, highs, np.cumsum(count) - count, count))


def _descend(levels: Sequence[tuple], q) -> tuple[np.ndarray, float, RTreeStats]:
    """One level-synchronous descent: surviving leaf rows and ``f_min``.

    Per level, sweep the surviving entries (:meth:`BatchMbrFilter._sweep`,
    bit-identical to ``Rect.mindist`` / ``maxdist``), tighten ``bound``
    to the smallest ``maxdist`` seen and keep ``mindist <= bound``.
    Every entry covers an item whose ``maxdist`` is no larger than its
    own, so ``bound >= f_min`` throughout: the ancestors of the ``f_min``
    witness and of every candidate survive, and at the leaves ``bound``
    *is* ``f_min`` and the kept rows are the candidate set.
    """
    query = np.atleast_1d(np.asarray(q, dtype=float)).reshape(1, -1)
    if query.shape[1] != levels[0][0].shape[1]:
        raise ValueError("query point dimensionality mismatch")
    stats = RTreeStats()
    stats.nodes_visited = 1
    bound = float("inf")
    rows = None
    for lows, highs, start, count in levels:
        if rows is not None:
            lows, highs = lows[rows], highs[rows]
        mindist, maxdist = BatchMbrFilter._sweep(query, lows, highs)
        stats.entries_scanned += lows.shape[0]
        bound = min(bound, float(maxdist.min()))
        keep = np.flatnonzero(mindist[0] <= bound)
        if rows is not None:
            keep = rows[keep]
        if start is None:
            return keep, bound, stats
        stats.nodes_visited += keep.size
        count = count[keep]
        ends = np.cumsum(count)
        rows = np.repeat(start[keep] - ends + count, count) + np.arange(ends[-1])


class BatchMbrFilter:
    """Vectorised MBR filtering for a whole batch of query points.

    Materialises the object MBRs into two ``(N, d)`` coordinate arrays
    once, then answers any number of query points with a handful of
    whole-matrix numpy operations: per-dimension gaps give ``mindist``
    and ``maxdist`` for every (query, object) pair, row minima give
    ``f_min`` per query, and one comparison yields every candidate set.
    One O(B·N·d) sweep serves the whole batch and yields the full
    ``(B, N)`` matrices the k-NN and range paths also reduce.
    It is not the cheaper way to get C-PNN candidate sets alone: at
    N = 20 000 a :class:`PnnFilter` descent costs ≈0.13 ms per point
    against ≈0.5 ms per point of sweep (ROADMAP item 3).

    The arithmetic mirrors :meth:`repro.index.geometry.Rect.mindist` /
    ``maxdist`` operation for operation (same per-dimension gap
    expressions, same accumulation order for d ≤ 2, correctly rounded
    square roots), so ``f_min`` and the candidate sets are bit-identical
    to a :class:`PnnFilter` over the same objects.  Candidates are
    reported in object insertion order rather than tree traversal
    order; the downstream subregion table re-sorts them by near point,
    so this is observable only through record ordering.

    The filter is **incrementally maintainable** (DESIGN.md §11):
    :meth:`append` queues one new coordinate row, :meth:`remove_at`
    masks one row out through an alive-mask, and :meth:`replace_at`
    overwrites one row in place (the dead-reckoning fast path).
    Masked rows and queued appends are folded into the contiguous
    coordinate arrays by one vectorised compaction at the next query
    (:meth:`_flush`), so a whole tick of churn costs one boolean mask
    plus one concatenate instead of a per-update rebuild of the arrays
    from Python objects.
    """

    def __init__(self, objects: Sequence) -> None:
        if not objects:
            raise ValueError("cannot filter an empty object collection")
        self._objects = list(objects)
        self._lows = np.array([obj.mbr.lows for obj in self._objects])
        self._highs = np.array([obj.mbr.highs for obj in self._objects])
        self._dim = self._lows.shape[1]
        #: Alive-mask over the physical rows of ``_lows``/``_highs``
        #: (None = all alive), plus objects appended since the last
        #: compaction.  Logical row order is always "alive physical
        #: rows, then pending appends" — removals preserve relative
        #: order, so it matches the engine's object tuple.
        self._alive: np.ndarray | None = None
        self._n_dead = 0
        self._pending: list = []
        #: A pinned column store.  For resident backends the coordinate
        #: arrays are zero-copy views over it; for chunked backends
        #: (``_lows is None``) sweeps stream row blocks through
        #: :meth:`_sweep` instead (same arithmetic, same bits).
        self._store = None

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def objects(self) -> tuple:
        """The filtered objects, in logical row order."""
        return tuple(self._objects)

    def __len__(self) -> int:
        return len(self._objects)

    # ------------------------------------------------------------------
    # Column-store transport (DESIGN.md §13/§16)
    # ------------------------------------------------------------------

    def to_store(self, backend: str = "shm", **options):
        """Export the flushed ``(N, d)`` coordinate arrays into a fresh
        column store of ``backend``.

        The caller owns the store; the descriptor rehydrates via
        :meth:`from_store` (objects ship separately — coordinates are
        the bulk, objects pickle once per worker).  Pending appends and
        masked rows are compacted first so the exported rows equal the
        logical row order.
        """
        from repro.storage import create_store

        lows, highs = self.coordinates()
        return create_store(backend, {"lows": lows, "highs": highs}, **options)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(N, d)`` lows / highs in logical row order, pending
        mutations folded in.  An unmutated chunk-backed filter reads the
        columns out of its store without pinning them resident."""
        self._flush()
        if self._lows is None:
            return self._store.get("lows"), self._store.get("highs")
        return self._lows, self._highs

    @classmethod
    def from_store(cls, store, objects: Sequence) -> "BatchMbrFilter":
        """Rebuild a filter over an exported coordinate store.

        ``objects`` must be the same sequence (same order) the exporter
        held.  Resident backends (``ram``/``shm``) hand out read-only
        zero-copy coordinate views; the chunked ``mmap`` backend keeps
        the coordinates on disk and streams sweeps block by block —
        bit-identical either way because :meth:`_sweep` is elementwise
        per row.  Mutations remain supported: appends/removals build
        fresh arrays on the next :meth:`_flush` (a chunk-backed filter
        materialises its columns first, once), and :meth:`replace_at`
        copies before its first in-place write (copy-on-write), so an
        attached filter never writes into the shared backing.
        """
        objects = list(objects)
        rows = store.shape("lows")[0]
        if rows != len(objects):
            raise ValueError(
                f"descriptor carries {rows} rows for {len(objects)} objects"
            )
        flt = cls.__new__(cls)
        flt._objects = objects
        if store.chunked:
            flt._lows = None
            flt._highs = None
        else:
            flt._lows = store.get("lows")
            flt._highs = store.get("highs")
        flt._dim = store.shape("lows")[1]
        flt._alive = None
        flt._n_dead = 0
        flt._pending = []
        flt._store = store  # pins the backing for the filter's lifetime
        return flt

    # ------------------------------------------------------------------

    @property
    def chunked(self) -> bool:
        """True while sweeps stream from a chunked store (no resident
        coordinate arrays)."""
        return self._lows is None

    def _physical_count(self) -> int:
        """Physical coordinate rows (before masks/pending)."""
        if self._lows is not None:
            return self._lows.shape[0]
        return self._store.shape("lows")[0]

    def _materialize(self) -> None:
        """Pull the full coordinate columns resident (chunk-backed
        filters do this once, on first mutation flush or write)."""
        if self._lows is None:
            self._lows = self._store.get("lows")
            self._highs = self._store.get("highs")

    def _ensure_writable(self) -> None:
        """Copy-on-write: detach from a shared backing before an
        in-place coordinate write."""
        self._materialize()
        if not self._lows.flags.writeable:
            self._lows = self._lows.copy()
            self._highs = self._highs.copy()

    def _check_dim(self, obj) -> None:
        if obj.mbr.dim != self._dim:
            raise ValueError("object dimensionality mismatch")

    def _physical_row(self, index: int) -> int:
        """The physical array row behind logical ``index`` (< alive)."""
        if self._n_dead == 0:
            return index
        return int(np.flatnonzero(self._alive)[index])

    def append(self, obj) -> None:
        """Add one object: queues one new coordinate row, no rebuild.

        The object's logical row is ``len(self) - 1`` afterwards —
        insertion order, matching the engine's object tuple.
        """
        self._check_dim(obj)
        self._objects.append(obj)
        self._pending.append(obj)

    def remove_at(self, index: int) -> None:
        """Mask one object's row out of the coordinate arrays.

        Later rows shift down by one logical position, mirroring an
        order-preserving removal from the caller's object sequence.
        The filter may become empty; callers must then stop querying it
        (the engine drops it entirely, per its empty-input semantics).
        """
        n = len(self._objects)
        if not 0 <= index < n:
            raise IndexError(f"row {index} out of range for {n} objects")
        del self._objects[index]
        alive_rows = self._physical_count() - self._n_dead
        if index >= alive_rows:
            del self._pending[index - alive_rows]
            return
        if self._alive is None:
            self._alive = np.ones(self._physical_count(), dtype=bool)
        self._alive[self._physical_row(index)] = False
        self._n_dead += 1

    def replace_at(self, index: int, obj) -> None:
        """Overwrite one object's row in place (same logical position).

        The dead-reckoning fast path: replacing an uncertainty region
        with a fresh report costs O(d), no masking or compaction.
        """
        n = len(self._objects)
        if not 0 <= index < n:
            raise IndexError(f"row {index} out of range for {n} objects")
        self._check_dim(obj)
        self._objects[index] = obj
        alive_rows = self._physical_count() - self._n_dead
        if index >= alive_rows:
            self._pending[index - alive_rows] = obj
            return
        row = self._physical_row(index)
        mbr = obj.mbr
        self._ensure_writable()
        self._lows[row] = mbr.lows
        self._highs[row] = mbr.highs

    def _flush(self) -> None:
        """Fold masked rows and queued appends into contiguous arrays.

        A chunk-backed filter materialises its columns first (once) —
        the streaming representation is immutable, so the first
        structural mutation pays one full-column read and the filter
        behaves residently from then on.
        """
        if self._lows is None:
            if not (self._n_dead or self._pending):
                return
            self._materialize()
        if self._n_dead:
            self._lows = self._lows[self._alive]
            self._highs = self._highs[self._alive]
            self._alive = None
            self._n_dead = 0
        if self._pending:
            self._lows = np.concatenate(
                [self._lows, np.array([o.mbr.lows for o in self._pending])]
            )
            self._highs = np.concatenate(
                [self._highs, np.array([o.mbr.highs for o in self._pending])]
            )
            self._pending = []

    def _as_matrix(self, points: Sequence) -> np.ndarray:
        matrix = np.asarray(points, dtype=float)
        if matrix.ndim == 1:
            if self._dim != 1:
                raise ValueError("query point dimensionality mismatch")
            matrix = matrix.reshape(-1, 1)
        if matrix.ndim != 2 or matrix.shape[1] != self._dim:
            raise ValueError("query point dimensionality mismatch")
        return matrix

    def matrices(self, points: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """MBR ``mindist`` / ``maxdist`` of every (query, object) pair.

        Returns two ``(B, N)`` matrices.  The arithmetic mirrors
        :meth:`repro.index.geometry.Rect.mindist` / ``maxdist``
        operation for operation, so the values are bit-identical to the
        per-object methods (for 1-D objects they also equal the
        objects' own ``mindist``/``maxdist``; 2-D regions may be
        strictly tighter than their MBR, so callers needing the exact
        region distances must re-check straddling objects).
        """
        self._flush()
        queries = self._as_matrix(points)  # (B, d)
        if self._lows is None:
            return self._sweep_chunked(queries)
        return self._sweep(queries, self._lows, self._highs)

    def _sweep_chunked(
        self, queries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full sweep streamed in row blocks from the chunked store.

        :meth:`_sweep` is elementwise per object row (each output cell
        depends only on its own row's coordinates), so filling the
        ``(B, N)`` matrices block by block is bit-identical to one
        resident sweep.
        """
        n = self._physical_count()
        block = self._sweep_block_rows(queries.shape[0])
        mindist = np.empty((queries.shape[0], n))
        maxdist = np.empty((queries.shape[0], n))
        for r0 in range(0, n, block):
            r1 = min(n, r0 + block)
            lows = self._store.read("lows", r0, r1)
            highs = self._store.read("highs", r0, r1)
            mindist[:, r0:r1], maxdist[:, r0:r1] = self._sweep(
                queries, lows, highs
            )
        return mindist, maxdist

    def _sweep_block_rows(self, n_queries: int) -> int:
        """Rows per chunked-sweep block within ``_SWEEP_BLOCK_BYTES``."""
        per_row = 8 * max(1, n_queries) * (2 + self._dim)
        return max(1, _SWEEP_BLOCK_BYTES // per_row)

    @staticmethod
    def _sweep(
        queries: np.ndarray, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        diff_lo = lows[None, :, :] - queries[:, None, :]  # lo - q
        diff_hi = queries[:, None, :] - highs[None, :, :]  # q - hi
        span = np.maximum(np.abs(diff_lo), np.abs(diff_hi))
        np.multiply(span, span, out=span)
        maxdist = span.sum(axis=2)
        np.sqrt(maxdist, out=maxdist)
        gap = np.maximum(diff_lo, diff_hi, out=diff_lo)
        np.maximum(gap, 0.0, out=gap)
        np.multiply(gap, gap, out=gap)
        mindist = gap.sum(axis=2)
        np.sqrt(mindist, out=mindist)
        return mindist, maxdist

    def __call__(self, points: Sequence) -> list[FilterResult]:
        """Filter every query point; returns one result per point.

        ``f_min`` per query is the row minimum of ``maxdist``, and
        candidates are reported in ascending object order.  ``stats``
        counters are left at zero — there is no tree traversal to count.
        """
        mindist, maxdist = self.matrices(points)
        fmins = maxdist.min(axis=1)
        keep = mindist <= fmins[:, None]
        objects = self._objects
        return [
            FilterResult(
                candidates=tuple(objects[i] for i in np.flatnonzero(row)),
                fmin=float(fmin),
            )
            for row, fmin in zip(keep, fmins)
        ]

    def kth_filter(
        self, points: Sequence, ks: Sequence[int]
    ) -> list[tuple[np.ndarray, float]]:
        """k-NN filtering: survivors of the ``f_min^k`` pruning rule.

        For query ``b`` with ``ks[b] = k``, let ``f_min^k`` be the
        k-th smallest MBR ``maxdist``: any object whose MBR ``mindist``
        exceeds it certainly has at least ``k`` objects closer, so its
        probability of being among the ``k`` nearest is exactly zero
        (the generalisation of reference [8]'s PNN rule).  Returns, per
        query, the surviving object *indices* (ascending insertion
        order) and the pruning radius.  Guaranteed to keep at least
        ``k`` objects.  ``ks[b]`` must lie in [1, N].
        """
        mindist, maxdist = self.matrices(points)
        n = maxdist.shape[1]
        results = []
        for b, k in enumerate(ks):
            k = int(k)
            if not 1 <= k <= n:
                raise ValueError(
                    f"kth_filter: k={k} (query {b}) must lie in [1, {n}]; "
                    "the engine clamps k > N to the trivial all-satisfy "
                    "case before filtering (DESIGN.md §8)"
                )
            fmin_k = float(np.partition(maxdist[b], k - 1)[k - 1])
            survivors = np.flatnonzero(mindist[b] <= fmin_k)
            results.append((survivors, fmin_k))
        return results
