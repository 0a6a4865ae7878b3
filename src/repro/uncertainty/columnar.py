"""Columnar distribution kernels: batched cdf/sf evaluation, no per-object dispatch.

Building the subregion table's cdf matrix during initialisation
reduces to "evaluate *every* candidate's piecewise-linear cdf at a
shared, sorted set of points".  Executing that as ``|C|`` separate
:meth:`Histogram.cdf` calls makes Python dispatch, not numpy
arithmetic, the bottleneck once candidate sets grow past a few dozen
objects.  (Refinement reads survival off that table and never calls
the pack.)

:class:`DistributionPack` removes the loop.  It concatenates all
candidates' histogram edges, densities, and cdf knots into flat ragged
arrays (values + offsets) once, then answers

* :meth:`DistributionPack.cdf_many`,
* :meth:`DistributionPack.sf_many`, and
* :meth:`DistributionPack.mass_between_many`

for the whole candidate set with a handful of ``np.searchsorted`` /
``bincount`` / gather passes.

Folding
-------
A pack also folds ``|X − q|`` (Figure 6) without per-candidate
objects: :func:`_fold_bars` folds one-bar rows from ``(lo, hi, d, q)``
columns, :func:`_fold_ragged` folds multi-bar value histograms from
their flat edges and densities.  :meth:`DistributionPack.from_objects`
(the engine's tables, from the filter's columns) and the constructor's
unfolded ``from_value_histogram`` rows go through the same two
kernels, and both leave the rows ``DistanceDistribution`` would trim or
renormalise to the scalar path — so every packed column equals the pack
of eagerly folded rows bit for bit.

Bit-identity
------------
The kernels reproduce ``np.interp`` (the scalar path used by
:meth:`Histogram.cdf`) **bit for bit**, so every downstream quantity —
subregion matrices, verifier bounds, refinement integrals — is
unchanged by the columnar rewrite:

* the bracketing index is the largest ``j`` with ``edges[j] <= x``
  (numpy's ``binary_search_with_guess`` contract), recovered here
  without per-row searches by the searchsorted duality
  ``edges[j] <= x_n  ⟺  searchsorted(xs, edges[j], 'left') <= n``
  followed by one ``bincount``/``cumsum`` over the packed rows;
* interior values use ``np.interp``'s exact expression
  ``(k1 - k0) / (e1 - e0) * (x - e0) + k0`` with the same operand
  order, exact hits return the knot itself, and points outside the
  support return ``0`` / the row's total mass, matching the
  ``left=0.0, right=knots[-1]`` arguments the scalar path passes.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.uncertainty.histogram import _EDGE_ATOL, _EDGE_RTOL
from repro.uncertainty.objects import UncertainObject, _scalar_query

__all__ = ["DistributionPack", "PagedDistributionPack", "folded_edges_bound"]

#: Cap on ``|C| * n`` cells processed per internal block.  Bounds the
#: transient integer scratch of the bincount/cumsum index recovery to a
#: few hundred MB regardless of how many evaluation points are passed.
_MAX_CELLS = 1 << 23

#: Below this many rows the fixed cost of the batched index-recovery
#: kernel exceeds a few direct ``np.interp`` calls, so ``cdf_many``
#: falls back to the row loop.  Both paths are bit-identical, so the
#: dispatch is purely a latency decision.
_SMALL_PACK = 8

#: Beyond this many evaluation points per row, arithmetic dominates
#: per-row call overhead and compiled ``np.interp`` (≈3 element passes)
#: beats the batched kernel (≈7 element passes), measured crossover
#: ≈200 points independent of row count; below it, eliminating |C|
#: Python-level calls is the win.  Same bits either way — the batched
#: kernel exists for the many-rows × moderate-width shape of
#: subregion-table initialisation.
_WIDE_EVAL = 256


def _fold_bars(lo, hi, d, q) -> tuple[np.ndarray, tuple]:
    """Fold one-bar value histograms (density ``d`` on ``[lo, hi]``)
    about ``q``, column-wise (``q`` a scalar or a column).

    Figure 6's cases as ``np.where`` over the columns, with the
    arithmetic of ``Histogram.fold_abs`` + ``Histogram._raw`` operand for
    operand (knots are the same ``d·Δe`` products summed left to right),
    so the columns are bit-identical to packing
    ``DistanceDistribution(h.fold_abs(q))`` rows.  Rows that class would
    normalise (folded mass off 1 by more than 1e-12) or whose density is
    not positive are not folded.  Returns the mask of rows folded and
    their ``(edges, knots, densities, sizes)``.
    """
    left, right = q <= lo, q >= hi
    inside = ~(left | right)
    near = np.minimum(q - lo, hi - q)
    far = np.maximum(q - lo, hi - q)
    three = inside & (far - near > _EDGE_ATOL + _EDGE_RTOL * np.maximum(far, 1.0))
    e0 = np.where(left, lo - q, np.where(right, q - hi, 0.0))
    e1 = np.where(left, hi - q, np.where(right, q - lo, near))
    d0 = np.where(inside, 2.0 * d, d)
    k1 = d0 * (e1 - e0)
    k2 = k1 + d * (far - e1)
    ok = (d > 0) & (np.abs(np.where(three, k2, k1) - 1.0) <= 1e-12)
    mask = np.repeat(ok[:, None], 3, axis=1)  # cells of the rows kept ...
    mask[:, 2] &= three  # ... whose third edge exists only in two-bin rows
    return ok, (
        np.column_stack((e0, e1, far))[mask],
        np.column_stack((np.zeros_like(k1), k1, k2))[mask],
        np.column_stack((d0, d))[mask[:, 1:]],
        np.asarray(three[ok] + 2, dtype=np.intp),
    )


def _fold_ragged(edges, densities, sizes, q) -> tuple[np.ndarray, tuple]:
    """Fold multi-bar value histograms about ``q``, all rows at once.

    Row ``r`` holds ``sizes[r]`` (at least three) strictly increasing
    ``edges`` and one density fewer; ``q`` is a scalar or a column.  The
    arithmetic is ``Histogram.fold_abs``'s general path operand for
    operand — ``|e − q|`` plus 0 when ``q`` is inside, sorted, deduped
    at ``1e-15 + 1e-12·scale``, densities ``pdf(q + mid) + pdf(q − mid)``
    at the bin midpoints, knots the left-to-right ``cumsum`` of
    ``density · width`` — on rows padded to a common width (numpy's
    row-wise ``sort`` / ``diff`` / ``cumsum`` visit each row as the
    1-D calls do).  Only the pdf lookups loop: one ``searchsorted`` per
    row, exact where any offset trick would round.  Rows whose folded
    histogram ``DistanceDistribution`` would trim (a zero-density
    margin) or renormalise (mass off 1 by more than 1e-12) are not
    folded.  Returns the mask of rows folded and their ``(edges,
    knots, densities, sizes)``.
    """
    n = sizes.size
    starts = np.cumsum(sizes) - sizes
    q = np.broadcast_to(np.asarray(q, dtype=float), (n,))
    lo, hi = edges[starts], edges[starts + sizes - 1]
    inside = (lo < q) & (q < hi)
    count = sizes + inside
    row = np.repeat(np.arange(n), sizes)
    cand = np.full((n, int(count.max())), np.inf)
    cand[row, np.arange(edges.size) - starts[row]] = np.abs(edges - q[row])
    cand[inside, sizes[inside]] = 0.0
    cand.sort(axis=1)
    scale = np.maximum(np.abs(cand[:, 0]), np.abs(cand[np.arange(n), count - 1]))
    threshold = _EDGE_ATOL + _EDGE_RTOL * np.maximum(scale, 1.0)
    keep = np.empty(cand.shape, dtype=bool)
    keep[:, 0] = True
    with np.errstate(invalid="ignore"):  # inf - inf in the padding
        np.greater(np.diff(cand, axis=1), threshold[:, None], out=keep[:, 1:])
    keep &= np.arange(cand.shape[1]) < count[:, None]
    folded = cand[keep]
    m = keep.sum(axis=1)  # folded edges per row
    ends = np.cumsum(m)
    bins = np.ones(folded.size, dtype=bool)
    bins[ends - 1] = False
    at = np.flatnonzero(bins)  # each bin's left edge
    bin_row = np.repeat(np.arange(n), m - 1)
    mids = 0.5 * (folded[at] + folded[at + 1])
    x = np.stack((q[bin_row] + mids, q[bin_row] - mids))
    index = np.empty(x.shape, dtype=np.intp)
    cut = np.concatenate(([0], np.cumsum(m - 1)))
    spans = cut.tolist()
    rows = zip(starts.tolist(), (starts + sizes).tolist(), spans, spans[1:])
    for first_edge, end_edge, a, b in rows:
        row_edges = edges[first_edge:end_edge]
        index[:, a:b] = np.searchsorted(row_edges, x[:, a:b], side="right")
    index -= 1
    np.clip(index, 0, (sizes - 2)[bin_row], out=index)
    values = densities[index + (starts - np.arange(n))[bin_row]]
    support = (x >= lo[bin_row]) & (x <= hi[bin_row])
    pdf = np.where(support, values, 0.0)
    dens = pdf[0] + pdf[1]
    col = at - (ends - m)[bin_row]  # each bin's place in its row
    masses = np.zeros((n, int(m.max()) - 1))
    masses[bin_row, col] = dens * (folded[at + 1] - folded[at])
    knots = np.zeros(folded.size)
    knots[at + 1] = np.cumsum(masses, axis=1)[bin_row, col]
    has = m > 1
    first, last = np.zeros(n), np.zeros(n)
    first[has] = dens[cut[:-1][has]]
    last[has] = dens[cut[1:][has] - 1]
    ok = (first > 0) & (last > 0) & (np.abs(knots[ends - 1] - 1.0) <= 1e-12)
    columns = folded, knots, dens, m
    if not ok.all():
        columns = _gather_rows(*columns, np.flatnonzero(ok))
    return ok, columns


def _fold_one_bar(distributions: Sequence, lazy: list[int]) -> tuple[list, tuple]:
    """:func:`_fold_bars` over the one-bar rows among
    ``distributions[lazy]`` (unfolded ``from_value_histogram`` rows).
    Returns the indices folded and their columns."""
    picked = [i for i in lazy if distributions[i]._value._densities.size == 1]
    if not picked:
        return [], None
    rows = [distributions[i] for i in picked]
    lo, hi = np.concatenate([r._value._edges for r in rows]).reshape(-1, 2).T
    d = np.concatenate([r._value._densities for r in rows])
    ok, columns = _fold_bars(lo, hi, d, np.array([r._q for r in rows], dtype=float))
    return list(compress(picked, ok.tolist())), columns


def _fold_histograms(rows: list[int], histograms: list, q) -> tuple[list, tuple]:
    """:func:`_fold_ragged` over multi-bar value ``histograms`` (those of
    ``rows``).  Returns the rows folded and their columns."""
    edges = list(map(attrgetter("_edges"), histograms))
    sizes = np.fromiter(map(len, edges), dtype=np.intp, count=len(edges))
    densities = np.concatenate(list(map(attrgetter("_densities"), histograms)))
    ok, columns = _fold_ragged(np.concatenate(edges), densities, sizes, q)
    return list(compress(rows, ok.tolist())), columns


def folded_edges_bound(objects: Sequence, bars: tuple) -> int:
    """An upper bound on the edges :meth:`DistributionPack.from_objects`
    folds from the objects' kernel rows (a folded row has at most one
    edge more than its value histogram); rows it leaves to
    ``distance_distribution`` are not counted."""
    density = bars[2]
    total = 3 * int(np.count_nonzero(density > 0))
    for i in np.flatnonzero(density <= 0).tolist():
        obj = objects[i]
        if isinstance(obj, UncertainObject):
            total += obj.histogram._edges.size + 1
    return total


def _histogram_columns(histograms: list) -> tuple:
    """``(edges, knots, densities, sizes)`` of folded distance histograms."""
    try:
        edges = list(map(attrgetter("_edges"), histograms))
        knots = list(map(attrgetter("_cdf_knots"), histograms))
        densities = list(map(attrgetter("_densities"), histograms))
    except AttributeError:
        bad = next(type(h).__name__ for h in histograms if not hasattr(h, "_edges"))
        raise TypeError(
            f"DistributionPack takes DistanceDistributions or Histograms, got {bad}"
        ) from None
    return (
        np.concatenate(edges),
        np.concatenate(knots),
        np.concatenate(densities),
        np.fromiter(map(len, edges), dtype=np.intp, count=len(edges)),
    )


def _assemble(n: int, parts: list, histogram_of) -> tuple:
    """The columns of ``n`` rows in row order.

    ``parts`` are ``(rows, columns)`` the kernels folded (rows
    ascending); every other row ``i`` packs the folded histogram
    ``histogram_of(i)``.
    """
    done = np.zeros(n, dtype=bool)
    for rows, _ in parts:
        done[rows] = True
    rest = np.flatnonzero(~done).tolist()
    if rest:
        parts.append((rest, _histogram_columns(list(map(histogram_of, rest)))))
    if len(parts) == 1:
        return parts[0][1]
    order = np.concatenate([np.asarray(rows, dtype=np.intp) for rows, _ in parts])
    columns = map(np.concatenate, zip(*(columns for _, columns in parts)))
    return _gather_rows(*columns, np.argsort(order))


def _gather_rows(edges, knots, densities, sizes, perm) -> tuple:
    """Ragged gather: ``(edges, knots, densities, sizes)`` of rows ``perm``
    of flat columns whose row ``r`` holds ``sizes[r]`` edges."""
    perm = np.asarray(perm, dtype=np.intp)
    starts = (np.cumsum(sizes) - sizes)[perm]
    sizes = sizes[perm]
    new_starts = np.cumsum(sizes) - sizes
    gather = np.repeat(starts - new_starts, sizes) + np.arange(int(sizes.sum()))
    rows = np.arange(perm.size)  # row r owns one density fewer than edges
    dens_gather = np.repeat((starts - perm) - (new_starts - rows), sizes - 1)
    dens_gather += np.arange(dens_gather.size)
    return edges[gather], knots[gather], densities[dens_gather], sizes


class DistributionPack:
    """Flat ragged-array view of a candidate set's distance histograms.

    Parameters
    ----------
    distributions:
        A sequence of :class:`~repro.uncertainty.distance.DistanceDistribution`
        objects (anything with a ``.histogram`` attribute) or bare
        :class:`~repro.uncertainty.histogram.Histogram` instances.  Row
        ``i`` of every kernel output corresponds to ``distributions[i]``.

    Notes
    -----
    The pack is immutable: it snapshots each histogram's edges,
    densities, and cdf knots at construction.  All kernels return dense
    ``(|C|, n)`` matrices evaluated without any per-object Python
    dispatch.
    """

    __slots__ = (
        "_store",
        "_edges",
        "_knots",
        "_densities",
        "_offsets",
        "_dens_offsets",
        "_nbins",
        "_totals",
        "_size",
        "_run_slope",
        "_run_e0",
        "_run_k0",
        "_run_lead",
        "_run_trail",
        "_run_is_bin",
        "_bin_edge_idx",
    )

    def __init__(self, distributions: Sequence) -> None:
        if not len(distributions):
            raise ValueError("DistributionPack requires at least one distribution")
        # C-level attrgetter maps over private slots keep packing cost
        # near list-copy speed; the public properties would build one
        # read-only view per object per field, which is exactly the
        # per-object overhead this class exists to amortise.
        try:
            histograms = list(map(attrgetter("_histogram"), distributions))
        except AttributeError:
            histograms = [getattr(d, "histogram", d) for d in distributions]
        # Rows still unfolded (DistanceDistribution.from_value_histogram)
        # fold here through the column kernels; the rows they leave, and
        # the rows that arrive folded, pack their own histogram.
        lazy = [i for i, h in enumerate(histograms) if h is None]
        parts = []
        if lazy:
            folded, columns = _fold_one_bar(distributions, lazy)
            if folded:
                parts.append((folded, columns))
            many = [i for i in lazy if distributions[i]._value._densities.size > 1]
            if many:
                rows = [distributions[i] for i in many]
                q = np.array([row._q for row in rows], dtype=float)
                parts.append(
                    _fold_histograms(many, [row._value for row in rows], q)
                )

        def histogram_of(i):
            h = histograms[i]
            return distributions[i].histogram if h is None else h

        self._finish(*_assemble(len(distributions), parts, histogram_of))

    @classmethod
    def from_objects(cls, objects: Sequence, q, bars: tuple) -> "DistributionPack":
        """The pack of the objects' distance distributions about ``q``,
        folded by the column kernels without building them.

        ``bars`` are row-aligned ``(lo, hi, density)`` columns — the
        filter's (:class:`~repro.index.filtering.FoldColumns`): rows
        with ``density > 0`` are one uniform bar on ``[lo, hi]`` and fold
        in closed form from the columns alone.  Other 1-D
        :class:`~repro.uncertainty.objects.UncertainObject` rows fold in
        the ragged kernel from the object's own histogram arrays.  Every
        remaining row — 2-D regions, and rows the scalar fold would trim
        or renormalise — packs ``obj.distance_distribution(q).histogram``.
        Bit-identical to ``DistributionPack([obj.distance_distribution(q)
        for obj in objects])``.
        """
        return cls.from_segments([(objects, q, bars)])

    @classmethod
    def from_segments(cls, segments: Sequence) -> "DistributionPack":
        """One pack of many candidate sets, each folded about its own
        query point.

        ``segments`` are ``(objects, q, bars)`` triples as
        :meth:`from_objects` takes them; their rows follow one another
        in order.  The fold kernels take ``q`` as a column, one entry
        per row, so every row's columns are the ones
        :meth:`from_objects` folds for its own set, bit for bit.
        """
        if len(segments) == 1:
            [(objects, q, (lo, hi, density))] = segments

            def scalar_column(rows):
                return _scalar_query(q)

            def point_of(i):
                return q

        else:
            objects = [obj for objs, _, _ in segments for obj in objs]
            points = [q for _, q, _ in segments]
            seg = np.repeat(
                np.arange(len(segments)), [len(objs) for objs, _, _ in segments]
            )
            lo, hi, density = map(
                np.concatenate, zip(*(bars for _, _, bars in segments))
            )
            scalars = np.zeros(len(segments))

            def scalar_column(rows):
                """Each row's scalar query point (read once per segment)."""
                for s in np.unique(seg[rows]).tolist():
                    scalars[s] = _scalar_query(points[s])
                return scalars[seg[rows]]

            def point_of(i):
                return points[seg[i]]

        if not len(objects):
            raise ValueError("DistributionPack requires at least one distribution")
        one = np.flatnonzero(density > 0)
        parts = []
        done = np.zeros(len(objects), dtype=bool)
        if one.size:
            ok, columns = _fold_bars(lo[one], hi[one], density[one], scalar_column(one))
            parts.append((one[ok], columns))
            done[one[ok]] = True
        many, histograms = [], []
        for i in np.flatnonzero(~done).tolist():
            obj = objects[i]
            if isinstance(obj, UncertainObject):
                h = obj.histogram
                if h._densities.size > 1:
                    many.append(i)
                    histograms.append(h)
        if many:
            parts.append(_fold_histograms(many, histograms, scalar_column(many)))
        pack = object.__new__(cls)
        pack._finish(
            *_assemble(
                len(objects),
                parts,
                lambda i: objects[i].distance_distribution(point_of(i)).histogram,
            )
        )
        return pack

    def _finish(
        self,
        edges: np.ndarray,
        knots: np.ndarray,
        densities: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Derive offsets/row maps from flat columns (shared with take
        and from_store)."""
        try:
            self._store
        except AttributeError:
            self._store = None  # only from_store packs pin a column store
        self._size = sizes.size
        self._offsets = np.zeros(self._size + 1, dtype=np.intp)
        np.cumsum(sizes, out=self._offsets[1:])
        self._edges = edges
        self._knots = knots
        self._densities = densities
        self._dens_offsets = self._offsets - np.arange(
            self._size + 1, dtype=np.intp
        )
        self._nbins = sizes - 1
        self._totals = self._knots[self._offsets[1:] - 1]
        self._run_slope = None  # run tables built on first kernel use
        for arr in (
            self._edges,
            self._knots,
            self._densities,
            self._offsets,
            self._dens_offsets,
            self._nbins,
            self._totals,
        ):
            arr.flags.writeable = False

    def _ensure_run_tables(self) -> None:
        """Build the run-length kernel tables (lazily; kernel use only).

        Evaluated against ascending points, each row is a sequence of
        runs — one "left of support" run (value 0), one run per bin
        (np.interp's interior expression), one "right of support" run
        (value = total mass).  Per-run (slope, e0, k0) triples are
        static; only run lengths depend on the evaluation points.
        Small packs route to the row-interp fallback and never pay for
        this.
        """
        if self._run_slope is not None:
            return
        # Row r owns runs [off[r]+r, off[r+1]+r+1) — sizes[r]+1 runs.
        run_offsets = self._offsets + np.arange(self._size + 1, dtype=np.intp)
        n_runs = int(run_offsets[-1])
        lead = run_offsets[:-1]
        trail = run_offsets[1:] - 1
        is_bin = np.ones(n_runs, dtype=bool)
        is_bin[lead] = False
        is_bin[trail] = False
        bin_edge = np.ones(self._edges.size, dtype=bool)
        bin_edge[self._offsets[1:] - 1] = False  # last edge of each row
        bin_edge_idx = np.flatnonzero(bin_edge)
        e0 = self._edges[bin_edge_idx]
        k0 = self._knots[bin_edge_idx]
        slope = (self._knots[bin_edge_idx + 1] - k0) / (
            self._edges[bin_edge_idx + 1] - e0
        )
        run_slope = np.zeros(n_runs)
        run_e0 = np.zeros(n_runs)
        run_k0 = np.zeros(n_runs)
        run_slope[is_bin] = slope
        run_e0[is_bin] = e0
        run_k0[is_bin] = k0
        run_k0[trail] = self._totals
        self._run_e0 = run_e0
        self._run_k0 = run_k0
        self._run_lead = lead
        self._run_trail = trail
        self._run_is_bin = is_bin
        self._bin_edge_idx = bin_edge_idx
        for arr in (run_slope, run_e0, run_k0, lead, trail, is_bin, bin_edge_idx):
            arr.flags.writeable = False
        self._run_slope = run_slope

    def take(self, perm: np.ndarray) -> "DistributionPack":
        """A new pack whose row ``r`` is this pack's row ``perm[r]``.

        Pure ragged-array gathers — no per-object Python.  Used by
        :class:`~repro.core.subregions.SubregionTable` to apply the
        near-point sort without re-walking the histograms.
        """
        pack = object.__new__(DistributionPack)
        columns = self._edges, self._knots, self._densities, self._nbins + 1
        pack._finish(*_gather_rows(*columns, perm))
        return pack

    def rows_between(self, r0: int, r1: int) -> "DistributionPack":
        """A pack of rows ``[r0, r1)``: views of this pack's columns."""
        o0, o1 = int(self._offsets[r0]), int(self._offsets[r1])
        pack = object.__new__(DistributionPack)
        pack._finish(
            self._edges[o0:o1],
            self._knots[o0:o1],
            self._densities[o0 - r0 : o1 - r1],
            np.diff(self._offsets[r0 : r1 + 1]),
        )
        return pack

    # ------------------------------------------------------------------
    # Column-store transport (DESIGN.md §13/§16)
    # ------------------------------------------------------------------

    def to_store(self, backend: str = "shm", **options):
        """Export the pack's columns into a fresh
        :class:`~repro.storage.base.ColumnStore` of ``backend``.

        Besides the four defining columns (``edges``/``knots``/
        ``densities``/``sizes``) three small derived columns ship too
        (``totals``/``near``/``far``) so a chunked consumer keeps its
        O(|C|) row metadata resident without touching the flats.  The
        caller owns the store (``close`` unlinks); the descriptor
        rehydrates via :meth:`from_store` in any process.
        """
        from repro.storage import create_store

        return create_store(
            backend,
            {
                "edges": self._edges,
                "knots": self._knots,
                "densities": self._densities,
                "sizes": np.asarray(np.diff(self._offsets), dtype=np.int64),
                "totals": self._totals,
                "near": self.near,
                "far": self.far,
            },
            **options,
        )

    @classmethod
    def from_store(cls, store) -> "DistributionPack":
        """A pack view over a column store.

        A shared-memory store rehydrates zero-copy: the flat columns
        are read-only views, kernels are bit-identical to the exporting
        pack's.  A chunked ``mmap`` store returns a
        :class:`PagedDistributionPack`, which keeps only O(|C|) row
        metadata resident and streams the flats block by block —
        same bits, bounded memory.  Either way the pack pins the store
        for its lifetime; the store's *creator* owns the unlink.
        """
        if store.chunked:
            return PagedDistributionPack(store)
        pack = object.__new__(cls)
        pack._store = store
        pack._finish(
            store.get("edges"),
            store.get("knots"),
            store.get("densities"),
            np.asarray(store.get("sizes"), dtype=np.intp),
        )
        return pack

    # ------------------------------------------------------------------
    # Shape and raw columns
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """|C| — number of packed distributions."""
        return self._size

    @property
    def offsets(self) -> np.ndarray:
        """Row boundaries into :attr:`edges_flat` / :attr:`knots_flat`."""
        return self._offsets

    @property
    def edges_flat(self) -> np.ndarray:
        """All histogram edges, concatenated row by row."""
        return self._edges

    @property
    def knots_flat(self) -> np.ndarray:
        """All cdf knots, concatenated row by row (aligned with edges)."""
        return self._knots

    @property
    def densities_flat(self) -> np.ndarray:
        """All per-bin densities, concatenated row by row."""
        return self._densities

    @property
    def density_offsets(self) -> np.ndarray:
        """Row boundaries into :attr:`densities_flat`."""
        return self._dens_offsets

    @property
    def nbins(self) -> np.ndarray:
        """Bins per row, ``(|C|,)``."""
        return self._nbins

    @property
    def totals(self) -> np.ndarray:
        """Total mass per row (the cdf's right limit), ``(|C|,)``."""
        return self._totals

    @property
    def near(self) -> np.ndarray:
        """First support point per row (``histogram.lo``), ``(|C|,)``."""
        return self._edges[self._offsets[:-1]]

    @property
    def far(self) -> np.ndarray:
        """Last support point per row (``histogram.hi``), ``(|C|,)``."""
        return self._edges[self._offsets[1:] - 1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributionPack(size={self._size}, "
            f"edges={self._edges.size}, bins={int(self._nbins.sum())})"
        )

    # ------------------------------------------------------------------
    # Batched kernels
    # ------------------------------------------------------------------

    def cdf_many(self, xs: float | np.ndarray) -> np.ndarray:
        """``D_i(x)`` for every row ``i`` and evaluation point ``x``.

        Returns a ``(|C|, n)`` matrix for 1-D input (``(|C|,)`` for a
        scalar), bit-identical to evaluating each row's
        :meth:`Histogram.cdf` separately.
        """
        arr = np.asarray(xs, dtype=float)
        scalar = arr.ndim == 0
        flat = np.atleast_1d(arr)
        if flat.ndim != 1:
            raise ValueError("evaluation points must be a scalar or 1-D array")
        n = flat.size
        if n == 0:
            return np.zeros((self._size, 0))
        if (
            self._size <= _SMALL_PACK
            or n > _WIDE_EVAL
            or not np.isfinite(flat).all()
        ):
            # Tiny packs and very wide evaluations are faster row by
            # row (same bits); non-finite points only have defined
            # semantics through np.interp's boundary handling.
            return self._cdf_rows_interp(flat, scalar)
        if np.all(flat[1:] >= flat[:-1]):
            out = self._cdf_sorted(flat)
        else:
            order = np.argsort(flat, kind="stable")
            inverse = np.empty(n, dtype=np.intp)
            inverse[order] = np.arange(n, dtype=np.intp)
            out = self._cdf_sorted(flat[order])[:, inverse]
        if scalar:
            return out[:, 0]
        return out

    def sf_many(self, xs: float | np.ndarray) -> np.ndarray:
        """``1 - D_i(x)`` for every row — the survival matrix.

        Matches ``1.0 - cdf`` (the expression every verifier product
        uses) rather than ``total_mass - cdf``, so rows whose mass is
        one only up to rounding behave exactly as on the scalar path.
        """
        return 1.0 - self.cdf_many(xs)

    def mass_between_many(
        self, a: float | np.ndarray, b: float | np.ndarray
    ) -> np.ndarray:
        """``Pr[a <= R_i <= b]`` for every row (``cdf(b) - cdf(a)``)."""
        a_arr, b_arr = np.broadcast_arrays(
            np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        )
        if np.any(b_arr < a_arr):
            raise ValueError("mass_between_many requires a <= b")
        return self.cdf_many(b_arr) - self.cdf_many(a_arr)

    def cdf_segments(
        self, counts: np.ndarray, points: np.ndarray, widths: np.ndarray
    ) -> np.ndarray:
        """Each row's cdf at its own segment's ascending points.

        The rows come in segments of ``counts[s]`` rows, and segment
        ``s`` is evaluated at the next ``widths[s]`` entries of
        ``points``.  Returns the ragged cells flat, segment after
        segment, each segment a row-major ``(counts[s], widths[s])``
        block, and every block equal to :meth:`cdf_many` of its rows at
        its points, bit for bit: a segment :meth:`cdf_many` would
        evaluate row by row goes through ``np.interp`` row by row, and
        the others share one pass of the run kernel.
        """
        counts = np.asarray(counts, dtype=np.intp)
        widths = np.asarray(widths, dtype=np.intp)
        point_at = np.cumsum(widths) - widths
        finite = np.logical_and.reduceat(np.isfinite(points), point_at)
        by_row = (counts <= _SMALL_PACK) | (widths > _WIDE_EVAL) | ~finite
        seg = np.repeat(np.arange(counts.size), counts)
        row_cells = widths[seg]
        if not by_row.any():
            return self._cdf_ragged(seg, points, point_at, widths, row_cells)
        cell_at = np.cumsum(row_cells) - row_cells
        out = np.empty(int(row_cells.sum()))
        edges, knots = self._edges, self._knots
        starts, stops = self._offsets[:-1].tolist(), self._offsets[1:].tolist()
        point_list, cell_list = point_at.tolist(), cell_at.tolist()
        seg_list, width_list = seg.tolist(), widths.tolist()
        for r in np.flatnonzero(by_row[seg]).tolist():
            lo, hi, s = starts[r], stops[r], seg_list[r]
            n = width_list[s]
            row = knots[lo:hi]
            out[cell_list[r] : cell_list[r] + n] = np.interp(
                points[point_list[s] : point_list[s] + n],
                edges[lo:hi],
                row,
                left=0.0,
                right=row[-1],
            )
        if by_row.all():
            return out
        rows = np.flatnonzero(~by_row[seg])
        cells = self.take(rows)._cdf_ragged(
            seg[rows], points, point_at, widths, row_cells[rows]
        )
        # Scatter the kernel's rows back between the row-by-row ones.
        sizes = row_cells[rows]
        shift = np.repeat(cell_at[rows] - (np.cumsum(sizes) - sizes), sizes)
        out[shift + np.arange(cells.size)] = cells
        return out

    def _cdf_ragged(self, seg, points, point_at, widths, row_cells) -> np.ndarray:
        """:meth:`_cdf_sorted_block` with each row (``seg``: its
        segment) at its own segment's points."""
        self._ensure_run_tables()
        # Complex numbers order lexicographically, so (segment, value)
        # pairs put every row edge among its own segment's points.
        keyed = np.empty(points.size, dtype=complex)
        keyed.real = np.repeat(np.arange(widths.size), widths)
        keyed.imag = points
        probe = np.empty(self._edges.size, dtype=complex)
        edge_seg = np.repeat(seg, self._nbins + 1)
        probe.real = edge_seg
        probe.imag = self._edges
        positions = np.searchsorted(keyed, probe, side="left") - point_at[edge_seg]
        # Each cell's point: its row's segment's points, row after row.
        at = np.repeat(point_at[seg] - (np.cumsum(row_cells) - row_cells), row_cells)
        at += np.arange(at.size)
        return self._run_cells(positions, row_cells, points[at])

    # ------------------------------------------------------------------
    # Core kernel
    # ------------------------------------------------------------------

    def _cdf_rows_interp(self, xs: np.ndarray, scalar: bool) -> np.ndarray:
        """Row-loop evaluation for tiny packs (same bits, less latency)."""
        offsets = self._offsets
        out = np.empty((self._size, xs.size))
        for i in range(self._size):
            lo, hi = offsets[i], offsets[i + 1]
            knots = self._knots[lo:hi]
            out[i] = np.interp(
                xs, self._edges[lo:hi], knots, left=0.0, right=knots[-1]
            )
        if scalar:
            return out[:, 0]
        return out

    def _cdf_sorted(self, xs: np.ndarray) -> np.ndarray:
        """cdf matrix for ascending ``xs`` (blocked over columns)."""
        n = xs.size
        block = max(1, _MAX_CELLS // self._size)
        if n <= block:
            return self._cdf_sorted_block(xs)
        out = np.empty((self._size, n))
        for start in range(0, n, block):
            stop = min(start + block, n)
            out[:, start:stop] = self._cdf_sorted_block(xs[start:stop])
        return out

    def _cdf_sorted_block(self, xs: np.ndarray) -> np.ndarray:
        n = xs.size
        # Duality: for ascending xs, edge e <= xs[t] ⟺
        # searchsorted(xs, e, 'left') <= t.
        self._ensure_run_tables()
        positions = np.searchsorted(xs, self._edges, side="left")
        out = self._run_cells(positions, n, np.tile(xs, self._size))
        return out.reshape(self._size, n)

    def _run_cells(self, positions, n, xs) -> np.ndarray:
        """Every row's cells, row after row, from the position of each
        row edge among its row's ``n`` ascending points (``n`` a scalar
        or one per row) and each cell's point ``xs``.

        Each row splits its points into contiguous *runs* — left of the
        support, one run per bin, right of the support — whose (slope,
        e0, k0) triples were precomputed by :meth:`_ensure_run_tables`;
        only the run lengths depend on the points.  Three np.repeat
        gathers and np.interp's interior expression finish the job with
        no per-object dispatch.
        """
        reps = np.empty(self._run_slope.size, dtype=np.intp)
        reps[self._run_lead] = positions[self._offsets[:-1]]
        reps[self._run_trail] = n - positions[self._offsets[1:] - 1]
        reps[self._run_is_bin] = (
            positions[self._bin_edge_idx + 1] - positions[self._bin_edge_idx]
        )
        slope = np.repeat(self._run_slope, reps)
        e0 = np.repeat(self._run_e0, reps)
        k0 = np.repeat(self._run_k0, reps)
        # np.interp's interior expression, same operand order; the
        # boundary runs use (slope=0, e0=0) so they evaluate to exactly
        # k0 — 0.0 left of the support, the total mass right of it.
        return slope * (xs - e0) + k0


class PagedDistributionPack(DistributionPack):
    """A pack view over a *chunked* column store (mmap): same kernels,
    bounded memory.

    Only O(|C|) row metadata stays resident — sizes/offsets, totals,
    and the near/far support columns.  Every kernel walks the flat
    columns in blocks of at most ``block_flat`` elements: each block's
    slice of ``edges``/``knots``/``densities`` is read out of the
    store's window pool, finished into a transient in-RAM sub-pack,
    and evaluated with the ordinary kernels.  Because every
    :class:`DistributionPack` kernel is row-independent and
    bit-identical to the scalar ``np.interp`` path, the blocked
    evaluation produces *exactly* the matrix the resident pack would —
    the chunk boundary is invisible in the bits (property-tested).
    """

    __slots__ = ("_block_flat", "_near_col", "_far_col")

    #: Required columns; ``to_store`` writes all of them.
    REQUIRED = ("edges", "knots", "densities", "sizes", "totals", "near", "far")

    def __init__(self, store, *, block_flat: int | None = None) -> None:
        missing = [name for name in self.REQUIRED if name not in store]
        if missing:
            raise ValueError(
                f"paged pack store is missing columns {missing}; export "
                "with DistributionPack.to_store (or write the derived "
                "metadata columns alongside the flats)"
            )
        self._store = store
        sizes = np.asarray(store.get("sizes"), dtype=np.intp)
        self._size = sizes.size
        offsets = np.zeros(self._size + 1, dtype=np.intp)
        np.cumsum(sizes, out=offsets[1:])
        self._offsets = offsets
        self._dens_offsets = offsets - np.arange(self._size + 1, dtype=np.intp)
        self._nbins = sizes - 1
        self._totals = np.asarray(store.get("totals"), dtype=float)
        self._near_col = np.asarray(store.get("near"), dtype=float)
        self._far_col = np.asarray(store.get("far"), dtype=float)
        for arr in (
            self._offsets,
            self._dens_offsets,
            self._nbins,
            self._totals,
            self._near_col,
            self._far_col,
        ):
            if arr.flags.writeable:
                arr.flags.writeable = False
        if block_flat is None:
            page_bytes = getattr(store, "page_bytes", 1 << 20)
            pool_pages = getattr(store, "pool_pages", 64)
            # Budget roughly a quarter of the window pool per block so
            # one block's three column slices never thrash their own
            # pages back out mid-read.
            block_flat = (page_bytes * max(1, pool_pages // 4)) // 8
        self._block_flat = max(4096, int(block_flat))

    # -- block iteration -------------------------------------------------

    def _iter_blocks(self):
        """Yield ``(r0, r1, sub_pack)`` covering all rows in order."""
        offsets = self._offsets
        r0 = 0
        while r0 < self._size:
            target = offsets[r0] + self._block_flat
            r1 = int(np.searchsorted(offsets, target, side="right")) - 1
            r1 = min(max(r1, r0 + 1), self._size)
            yield r0, r1, self._materialize_rows(r0, r1)
            r0 = r1

    def _materialize_rows(self, r0: int, r1: int) -> DistributionPack:
        """Rows ``[r0, r1)`` as a transient resident sub-pack."""
        store = self._store
        offsets = self._offsets
        o0, o1 = int(offsets[r0]), int(offsets[r1])
        sub = object.__new__(DistributionPack)
        sub._finish(
            store.read("edges", o0, o1),
            store.read("knots", o0, o1),
            store.read("densities", o0 - r0, o1 - r1),
            np.asarray(np.diff(offsets[r0 : r1 + 1]), dtype=np.intp),
        )
        return sub

    # -- kernels (blocked, bit-identical) --------------------------------

    def cdf_many(self, xs: float | np.ndarray) -> np.ndarray:
        arr = np.asarray(xs, dtype=float)
        scalar = arr.ndim == 0
        flat = np.atleast_1d(arr)
        if flat.ndim != 1:
            raise ValueError("evaluation points must be a scalar or 1-D array")
        n = flat.size
        if n == 0:
            return np.zeros((self._size, 0))
        out = np.empty((self._size, n))
        for r0, r1, sub in self._iter_blocks():
            out[r0:r1] = sub.cdf_many(flat)
        if scalar:
            return out[:, 0]
        return out

    def take(self, perm: np.ndarray) -> DistributionPack:
        """Materialise rows ``perm`` into a resident pack.

        Reads maximal consecutive runs of ``perm`` in single store
        ranges; the result is an ordinary in-RAM pack (candidate sets
        that survive filtering are assumed to fit — only the full
        corpus is out-of-core).
        """
        perm = np.asarray(perm, dtype=np.intp)
        if perm.size == 0:
            raise ValueError("take requires at least one row")
        edges_parts, knots_parts, dens_parts, sizes_parts = [], [], [], []
        start = 0
        while start < perm.size:
            stop = start + 1
            while stop < perm.size and perm[stop] == perm[stop - 1] + 1:
                stop += 1
            r0, r1 = int(perm[start]), int(perm[stop - 1]) + 1
            sub = self._materialize_rows(r0, r1)
            edges_parts.append(sub.edges_flat)
            knots_parts.append(sub.knots_flat)
            dens_parts.append(sub.densities_flat)
            sizes_parts.append(np.diff(sub.offsets))
            start = stop
        pack = object.__new__(DistributionPack)
        pack._finish(
            np.concatenate(edges_parts),
            np.concatenate(knots_parts),
            np.concatenate(dens_parts),
            np.asarray(np.concatenate(sizes_parts), dtype=np.intp),
        )
        return pack

    # -- resident metadata / materialising columns -----------------------

    @property
    def near(self) -> np.ndarray:
        return self._near_col

    @property
    def far(self) -> np.ndarray:
        return self._far_col

    @property
    def edges_flat(self) -> np.ndarray:
        """The whole column, materialised (prefer blocked kernels)."""
        return self._store.get("edges")

    @property
    def knots_flat(self) -> np.ndarray:
        """The whole column, materialised (prefer blocked kernels)."""
        return self._store.get("knots")

    @property
    def densities_flat(self) -> np.ndarray:
        """The whole column, materialised (prefer blocked kernels)."""
        return self._store.get("densities")

    @property
    def store(self):
        """The backing chunked column store."""
        return self._store

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PagedDistributionPack(size={self._size}, "
            f"edges={int(self._offsets[-1])}, block_flat={self._block_flat})"
        )
