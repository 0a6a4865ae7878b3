"""PNN filtering: prune objects with zero qualification probability.

This is the first phase of the paper's framework (Figure 3), based on
reference [8]: let ``f_min`` be the minimum over all objects of their
*far* distance from the query point.  Any object whose *near* distance
exceeds ``f_min`` can never be the nearest neighbour — some other
object is certainly closer — so only objects with ``near <= f_min``
survive as the *candidate set* ``C``.

Three implementations are provided with identical semantics:

* :class:`BatchMbrFilter` — the engine's filter: one batched
  level-synchronous descent over packed STR levels answers every
  query family (C-PNN ``f_min``, k-NN ``f_min^k``, range radius);
* :class:`PnnFilter` — the same C-PNN descent over the nodes of a
  static :func:`~repro.index.str_pack.str_bulk_load` tree;
* :func:`filter_candidates` — the linear reference scan, also the
  engine's exact-region filter when ``use_rtree`` is off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.index.str_pack import Node, str_pack_levels

__all__ = [
    "BatchMbrFilter",
    "FilterResult",
    "FoldColumns",
    "PnnFilter",
    "filter_candidates",
]


class FoldColumns(NamedTuple):
    """The candidates' fold inputs, row-aligned with
    :attr:`FilterResult.candidates`.

    ``density`` is the density of a candidate's one uniform bar on
    ``[lo, hi]`` (its ``uniform_density``; ``lo`` / ``hi`` are its MBR's
    first coordinate), and 0.0 where it has none — so ``density > 0``
    is the one-bar flag.  A table folds those rows from the columns
    alone (:meth:`~repro.uncertainty.columnar.DistributionPack.from_objects`).
    """

    keys: tuple
    lo: np.ndarray
    hi: np.ndarray
    density: np.ndarray

    @classmethod
    def of(cls, objects: Sequence) -> "FoldColumns":
        """The columns read off ``objects`` (the linear scan has no
        filter to keep them)."""
        return cls(
            tuple(obj.key for obj in objects),
            np.array([obj.mbr.lows[0] for obj in objects], dtype=float),
            np.array([obj.mbr.highs[0] for obj in objects], dtype=float),
            bar_densities(objects),
        )


def _bar_density(obj) -> float:
    """An object's ``uniform_density``, 0.0 where it has none (2-D
    regions, multi-bar pdfs, bare boxes)."""
    return getattr(obj, "uniform_density", None) or 0.0


def bar_densities(objects: Sequence) -> np.ndarray:
    """:func:`_bar_density` of each object, as a column."""
    return np.fromiter(map(_bar_density, objects), dtype=float, count=len(objects))


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
    positions:
        The candidates' row positions in the filtered sequence
        (ascending), or ``None`` where the filter has no row order.
    columns:
        The candidates' :class:`FoldColumns`, or ``None`` where the
        filter keeps none (the table reads them off the objects).
    """

    candidates: tuple
    fmin: float
    positions: np.ndarray | None = field(default=None, compare=False, repr=False)
    columns: FoldColumns | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.candidates)


def filter_candidates(objects: Sequence, q) -> FilterResult:
    """Reference linear-scan filter over ``SpatialUncertain`` objects."""
    if not objects:
        raise ValueError("cannot filter an empty object collection")
    fmin = min(obj.maxdist(q) for obj in objects)
    positions = [i for i, obj in enumerate(objects) if obj.mindist(q) <= fmin]
    return FilterResult(
        candidates=tuple(map(objects.__getitem__, positions)),
        fmin=fmin,
        positions=np.array(positions, dtype=np.intp),
    )


class PnnFilter:
    """Branch-and-bound filtering over a static STR tree held as
    per-level arrays.

    ``root`` is what :func:`~repro.index.str_pack.str_bulk_load`
    returns; its nodes are snapshotted once.  A query is one
    level-synchronous descent (:func:`_descend_one`); candidates come in
    leaf order.
    """

    def __init__(self, root: Node) -> None:
        self._levels, self._items = _tree_levels(root)

    def __call__(self, q) -> FilterResult:
        query = np.atleast_1d(np.asarray(q, dtype=float)).reshape(1, -1)
        if query.shape[1] != self._levels[0][0].shape[1]:
            raise ValueError("query point dimensionality mismatch")
        rows, fmin = _descend_one(self._levels, query)
        candidates = tuple(map(self._items.__getitem__, rows.tolist()))
        return FilterResult(candidates=candidates, fmin=fmin)


def _tree_levels(root: Node) -> tuple[list[tuple], list]:
    """A tree's nodes as descent levels, its items in leaf order."""
    if not root.entries:
        raise ValueError("cannot filter with an empty index")
    levels = []
    nodes = [root]
    while True:
        entries = [entry for node in nodes for entry in node.entries]
        lows = np.array([entry.rect.lows for entry in entries])
        highs = np.array([entry.rect.highs for entry in entries])
        if nodes[0].is_leaf:
            levels.append((lows, highs, None, None, None))
            return levels, [entry.item for entry in entries]
        nodes = [entry.child for entry in entries]
        count = np.fromiter(map(len, nodes), np.intp, len(nodes))
        levels.append((lows, highs, np.cumsum(count) - count, count, None))


def _nearest(bound, point, rows, maxdist, size) -> np.ndarray:
    """C-PNN: tighten each point's bound to its smallest entry ``maxdist``."""
    bound = bound.copy()
    np.minimum.at(bound, point, maxdist)
    return bound


def _kth(ks: np.ndarray) -> Callable:
    """k-NN: the smallest ``b`` whose entries with ``maxdist <= b``
    cover ``>= k`` objects (subtree counts ``size``)."""

    def rule(bound, point, rows, maxdist, size):
        by = np.lexsort((maxdist, point))
        weight = size[rows[by]]
        covered = np.cumsum(weight)
        first = np.searchsorted(point, np.arange(bound.size))
        at = np.searchsorted(covered, covered[first] - weight[first] + ks)
        return np.minimum(bound, maxdist[by[at]])

    return rule


def _descend(levels: Sequence[tuple], queries: np.ndarray, bound, rule):
    """One batched level-synchronous descent.

    Carries ``(point, entry)`` pairs from the root's entries down,
    ``point`` sorted.  Per level it sweeps every pair
    (:meth:`BatchMbrFilter._sweep`, bit-identical to ``Rect.mindist`` /
    ``maxdist``), lets ``rule(bound, point, rows, maxdist, size)`` move
    each point's bound (``size``: subtree counts) and keeps ``mindist <=
    bound``.  An entry's ``maxdist`` is no smaller, and its ``mindist``
    no larger, than any item's below it, so each rule stays at or above
    its exact radius, and equals it at the leaves.  Returns the leaf
    pairs ``(point, rows, (mindist, maxdist))`` and the bounds.
    """
    width = levels[0][0].shape[0]
    point = np.repeat(np.arange(queries.shape[0]), width)
    rows = np.tile(np.arange(width), queries.shape[0])
    for lows, highs, start, count, size in levels:
        query = queries if queries.shape[0] == 1 else queries[point]
        mindist, maxdist = BatchMbrFilter._sweep(query, lows[rows], highs[rows])
        bound = rule(bound, point, rows, maxdist, size)
        keep = np.flatnonzero(mindist <= bound[point])
        point, rows = point[keep], rows[keep]
        if start is None:
            return point, rows, (mindist[keep], maxdist[keep]), bound
        count = count[rows]
        ends = np.cumsum(count)
        point = np.repeat(point, count)
        rows = np.repeat(start[rows] - ends + count, count) + np.arange(
            ends[-1] if ends.size else 0
        )


def _descend_one(levels: Sequence[tuple], query: np.ndarray):
    """:func:`_descend` under the C-PNN rule for one point, without the
    pair bookkeeping: a scalar bound and no point column, which in the
    engine's single-query loop at N = 20 000 filters in ≈0.25 ms against
    ≈0.31 ms for the batched body.  Returns the surviving leaf rows and
    ``f_min``."""
    bound, rows = float("inf"), None
    for lows, highs, start, count, _ in levels:
        if rows is not None:
            lows, highs = lows[rows], highs[rows]
        mindist, maxdist = BatchMbrFilter._sweep(query, lows, highs)
        bound = min(bound, float(maxdist.min()))
        keep = np.flatnonzero(mindist <= bound)
        if rows is not None:
            keep = rows[keep]
        if start is None:
            return keep, bound
        count = count[keep]
        ends = np.cumsum(count)
        rows = np.repeat(start[keep] - ends + count, count) + np.arange(ends[-1])


class BatchMbrFilter:
    """The engine's filter: MBR pruning for a whole batch of points.

    Holds the object MBRs as ``(N, d)`` coordinate arrays in insertion
    order and, packed from them on first use, STR levels
    (:func:`~repro.index.str_pack.str_pack_levels` at ``max_entries``)
    with subtree counts.  Every family is one batched descent
    (:func:`_descend`): C-PNN (:meth:`__call__`) tightens to ``f_min``,
    k-NN (:meth:`kth_filter`) to ``f_min^k``, range
    (:meth:`range_filter`) keeps its radius.  Survivors are sorted by
    position, so they equal the reductions of the ``(B, N)`` sweep
    (:meth:`matrices`, the test reference) bit for bit, and every
    family's packs fold from :meth:`columns` at those positions.

    Maintenance (DESIGN.md §11): :meth:`append` / :meth:`remove_at`
    queue or mask a coordinate row (compacted at the next query by
    :meth:`_flush`) and drop the levels for the next query to repack.
    :meth:`replace_at` overwrites the row and the leaf entry and widens
    the ancestors, which stay exact because they still contain their
    items; once the replaces since the last pack reach the leaf-node
    count the levels are dropped too.
    """

    def __init__(self, objects: Sequence, max_entries: int = 16) -> None:
        if not objects:
            raise ValueError("cannot filter an empty object collection")
        objects = list(objects)
        lows = np.array([obj.mbr.lows for obj in objects])
        highs = np.array([obj.mbr.highs for obj in objects])
        self._setup(objects, lows, highs, bar_densities(objects), None, max_entries)

    def _setup(self, objects, lows, highs, density, store, max_entries) -> None:
        self._objects = objects
        #: Row-aligned fold columns (:class:`FoldColumns`): keys in
        #: logical order like ``_objects``, densities in physical order
        #: like ``_lows`` / ``_highs``.
        self._keys = [getattr(obj, "key", None) for obj in objects]
        self._lows, self._highs, self._density = lows, highs, density
        self._dim = lows.shape[1]
        #: Alive-mask over the physical rows of ``_lows``/``_highs``/``_density``
        #: (None = all alive), plus objects appended since the last
        #: compaction.  Logical row order is always "alive physical
        #: rows, then pending appends" — removals preserve relative
        #: order, so it matches the engine's object tuple.
        self._alive: np.ndarray | None = None
        self._n_dead = 0
        self._pending: list = []
        #: A pinned shared-memory store the coordinate arrays are
        #: zero-copy views over (None = resident arrays of our own).
        self._store = store
        self._max_entries = max_entries
        #: Packed levels (None = repack on the next query): per level
        #: ``(lows, highs, child_start, child_count, subtree_size)``,
        #: plus (set by :meth:`_packed`) each leaf row's object position,
        #: its inverse, each row's parent entry and the replaces since
        #: the pack.
        self._levels: list[tuple] | None = None

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
    # Process transport (DESIGN.md §13/§16)
    # ------------------------------------------------------------------

    def to_store(self, backend: str = "shm", **options):
        """Export the flushed ``(N, d)`` coordinate arrays and the
        density column into a fresh column store of ``backend``.

        The caller owns the store; the descriptor rehydrates via
        :meth:`from_store` (objects ship separately — coordinates are
        the bulk, objects and their keys pickle once per worker).
        Pending appends and masked rows are compacted first so the
        exported rows equal the logical row order.
        """
        from repro.storage import create_store

        lows, highs = self.coordinates()
        columns = {"lows": lows, "highs": highs, "density": self._density}
        return create_store(backend, columns, **options)

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(N, d)`` lows / highs in logical row order, pending
        mutations folded in."""
        self._flush()
        return self._lows, self._highs

    @classmethod
    def from_store(
        cls, store, objects: Sequence, max_entries: int = 16
    ) -> "BatchMbrFilter":
        """Rebuild a filter over an exported shared-memory coordinate
        store.

        ``objects`` must be the same sequence (same order) the exporter
        held.  The coordinates are read-only zero-copy views over the
        segment.  Mutations remain supported: appends/removals build
        fresh arrays on the next :meth:`_flush`, and :meth:`replace_at`
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
        flt._setup(
            objects,
            store.get("lows"),
            store.get("highs"),
            store.get("density"),
            store,
            max_entries,
        )
        return flt

    @property
    def packed(self) -> bool:
        """True while the STR levels are held (False = the next query
        repacks them)."""
        return self._levels is not None

    def _ensure_writable(self) -> None:
        """Copy-on-write: detach from a shared backing before an
        in-place coordinate write."""
        if not self._lows.flags.writeable:
            self._lows = self._lows.copy()
            self._highs = self._highs.copy()
            self._density = self._density.copy()

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
        self._keys.append(getattr(obj, "key", None))
        self._pending.append(obj)
        self._levels = None

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
        del self._keys[index]
        self._levels = None
        alive_rows = self._lows.shape[0] - self._n_dead
        if index >= alive_rows:
            del self._pending[index - alive_rows]
            return
        if self._alive is None:
            self._alive = np.ones(self._lows.shape[0], dtype=bool)
        self._alive[self._physical_row(index)] = False
        self._n_dead += 1

    def replace_at(self, index: int, obj) -> None:
        """Overwrite one object's row in place (same logical position).

        The dead-reckoning fast path: O(d) for the row, O(height·d) to
        write the leaf entry and widen its ancestors, no repack until
        the replaces since the last pack reach the leaf-node count.
        """
        n = len(self._objects)
        if not 0 <= index < n:
            raise IndexError(f"row {index} out of range for {n} objects")
        self._check_dim(obj)
        self._objects[index] = obj
        self._keys[index] = getattr(obj, "key", None)
        alive_rows = self._lows.shape[0] - self._n_dead
        if index >= alive_rows:
            self._pending[index - alive_rows] = obj
            return
        row = self._physical_row(index)
        mbr = obj.mbr
        new_lows, new_highs = mbr.lows, mbr.highs
        self._ensure_writable()
        self._lows[row] = new_lows
        self._highs[row] = new_highs
        self._density[row] = _bar_density(obj)
        if self._levels is None:
            return
        self._replaced += 1
        leaf_nodes = self._levels[-2][0].shape[0] if len(self._levels) > 1 else 1
        if self._replaced >= leaf_nodes:
            self._levels = None
            return
        row = self._rank[index]
        leaf = self._levels[-1]
        leaf[0][row], leaf[1][row] = new_lows, new_highs
        for depth in range(len(self._levels) - 1, 0, -1):
            row = self._parents[depth][row]
            lows, highs = self._levels[depth - 1][:2]
            np.minimum(lows[row], new_lows, out=lows[row])
            np.maximum(highs[row], new_highs, out=highs[row])

    def _flush(self) -> None:
        """Fold masked rows and queued appends into contiguous arrays."""
        if self._n_dead:
            self._lows = self._lows[self._alive]
            self._highs = self._highs[self._alive]
            self._density = self._density[self._alive]
            self._alive = None
            self._n_dead = 0
        if self._pending:
            self._lows = np.concatenate(
                [self._lows, np.array([o.mbr.lows for o in self._pending])]
            )
            self._highs = np.concatenate(
                [self._highs, np.array([o.mbr.highs for o in self._pending])]
            )
            self._density = np.concatenate(
                [self._density, bar_densities(self._pending)]
            )
            self._pending = []

    def _packed(self) -> list[tuple]:
        """The STR levels, repacked from the coordinates if dropped."""
        if self._levels is None:
            levels, order = str_pack_levels(*self.coordinates(), self._max_entries)
            size = np.ones(order.size, dtype=np.intp)
            self._parents = [None] * len(levels)
            for depth in range(len(levels) - 1, -1, -1):
                lows, highs, start, count = levels[depth]
                if start is not None:
                    by_start = np.argsort(start)
                    self._parents[depth + 1] = np.repeat(by_start, count[by_start])
                    total = np.concatenate(([0], np.cumsum(size)))
                    size = total[start + count] - total[start]
                levels[depth] = (lows, highs, start, count, size)
            self._order = order
            self._rank = np.empty_like(order)
            self._rank[order] = np.arange(order.size)
            self._replaced = 0
            self._levels = levels
        return self._levels

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

        Returns two ``(B, N)`` matrices: the full sweep no query path
        runs, kept as the reference the descent is tested against.  The
        arithmetic mirrors :meth:`repro.index.geometry.Rect.mindist` /
        ``maxdist`` operation for operation, so the values are
        bit-identical to the per-object methods (for 1-D objects they
        also equal the objects' own ``mindist``/``maxdist``; 2-D regions
        may be strictly tighter than their MBR).
        """
        queries = self._as_matrix(points)  # (B, d)
        lows, highs = self.coordinates()
        return self._sweep(queries[:, None, :], lows[None], highs[None])

    @staticmethod
    def _sweep(
        queries: np.ndarray, lows: np.ndarray, highs: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """MBR ``mindist`` / ``maxdist`` of broadcast (query, box) pairs
        (coordinates on the last axis)."""
        diff_lo = lows - queries  # lo - q
        diff_hi = queries - highs  # q - hi
        span = np.maximum(np.abs(diff_lo), np.abs(diff_hi))
        np.multiply(span, span, out=span)
        maxdist = span.sum(axis=-1)
        np.sqrt(maxdist, out=maxdist)
        gap = np.maximum(diff_lo, diff_hi, out=diff_lo)
        np.maximum(gap, 0.0, out=gap)
        np.multiply(gap, gap, out=gap)
        mindist = gap.sum(axis=-1)
        np.sqrt(mindist, out=mindist)
        return mindist, maxdist

    def _survivors(self, points: Sequence, bound, rule: Callable):
        """Descend for every point: the surviving object positions and
        their leaf ``(mindist, maxdist)`` sorted by ``(point, position)``,
        the slice of each point into them, and the final bounds."""
        queries = self._as_matrix(points)
        point, rows, dists, bound = _descend(self._packed(), queries, bound, rule)
        position = self._order[rows]
        by = np.lexsort((position, point))
        cuts = [0, *np.cumsum(np.bincount(point, minlength=len(queries))).tolist()]
        spans = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        return position[by], dists[0][by], dists[1][by], spans, bound.tolist()

    def __call__(self, points: Sequence) -> list[FilterResult]:
        """C-PNN filtering of every point: one result per point.

        Candidates are the objects with ``mindist <= f_min``, in
        ascending object order, with their positions and
        :class:`FoldColumns`.  One point takes :func:`_descend_one`.
        """
        if len(points) == 1:
            rows, fmin = _descend_one(self._packed(), self._as_matrix(points))
            position = np.sort(self._order[rows])
            fmins, spans = [fmin], [slice(None)]
        else:
            inf = np.full(len(points), np.inf)
            position, _, _, spans, fmins = self._survivors(points, inf, _nearest)
        picks = list(map(self._objects.__getitem__, position.tolist()))
        keys, lo, hi, density = self.columns(position)
        return [
            FilterResult(
                tuple(picks[span]),
                fmin,
                position[span],
                FoldColumns(keys[span], lo[span], hi[span], density[span]),
            )
            for span, fmin in zip(spans, fmins)
        ]

    def columns(self, positions: np.ndarray) -> FoldColumns:
        """The :class:`FoldColumns` of the objects at ``positions``
        (logical rows, as every filter method returns them)."""
        self._flush()
        return FoldColumns(
            tuple(map(self._keys.__getitem__, positions.tolist())),
            self._lows[positions, 0],
            self._highs[positions, 0],
            self._density[positions],
        )

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
        n = len(self._objects)
        for b, k in enumerate(ks):
            if not 1 <= int(k) <= n:
                raise ValueError(
                    f"kth_filter: k={int(k)} (query {b}) must lie in [1, {n}]; "
                    "the engine clamps k > N to the trivial all-satisfy "
                    "case before filtering (DESIGN.md §8)"
                )
        inf = np.full(len(points), np.inf)
        rule = _kth(np.asarray(ks, dtype=np.intp))
        position, _, _, spans, fmins = self._survivors(points, inf, rule)
        return [(position[span], fmin) for span, fmin in zip(spans, fmins)]

    def range_filter(
        self, points: Sequence, radii: Sequence[float]
    ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Range filtering: per point, the object indices with MBR
        ``mindist <= radius`` (ascending insertion order) and their MBR
        ``mindist`` / ``maxdist``."""
        radii = np.asarray(radii, dtype=float)
        position, near, far, spans, _ = self._survivors(
            points, radii, lambda bound, *_: bound  # the radius never moves
        )
        return [(position[span], near[span], far[span]) for span in spans]
