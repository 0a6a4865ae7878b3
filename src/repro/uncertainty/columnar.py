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

from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.uncertainty.histogram import _EDGE_ATOL, _EDGE_RTOL

__all__ = ["DistributionPack", "PagedDistributionPack"]

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


def _fold_one_bar(distributions: Sequence, lazy: list[int]) -> tuple[list, tuple]:
    """Fold the one-bar rows among ``distributions[lazy]`` column-wise.

    Figure 6's cases as ``np.where`` over ``(lo, hi, d, q)`` columns,
    with the arithmetic of ``Histogram.fold_abs`` + ``Histogram._raw``
    operand for operand (knots are the same ``d·Δe`` products summed
    left to right), so the columns are bit-identical to packing
    ``DistanceDistribution(h.fold_abs(q))`` rows.  Rows that class would
    normalise (folded mass off 1 by more than 1e-12) or whose density is
    not positive are left to the scalar path.  Returns the indices
    folded and their ``(edges, knots, densities, sizes)``.
    """
    picked = [i for i in lazy if distributions[i]._value._densities.size == 1]
    if not picked:
        return [], None
    rows = [distributions[i] for i in picked]
    lo, hi = np.concatenate([r._value._edges for r in rows]).reshape(-1, 2).T
    d = np.concatenate([r._value._densities for r in rows])
    q = np.array([r._q for r in rows], dtype=float)
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
    return [i for i, good in zip(picked, ok.tolist()) if good], (
        np.column_stack((e0, e1, far))[mask],
        np.column_stack((np.zeros_like(k1), k1, k2))[mask],
        np.column_stack((d0, d))[mask[:, 1:]],
        np.asarray(three[ok] + 2, dtype=np.intp),
    )


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
        # are folded here: one-bar rows by the closed-form kernel, the
        # rest through the scalar path, exactly as Histogram.fold_abs
        # chooses.  ``histograms`` keeps None for kernel-folded rows.
        lazy = [i for i, h in enumerate(histograms) if h is None]
        folded, columns = _fold_one_bar(distributions, lazy) if lazy else ([], None)
        for i in set(lazy).difference(folded):
            histograms[i] = distributions[i].histogram
        rest = [i for i, h in enumerate(histograms) if h is not None]
        if rest:
            parts = [histograms[i] for i in rest]
            try:
                edges_parts = list(map(attrgetter("_edges"), parts))
                knots_parts = list(map(attrgetter("_cdf_knots"), parts))
                dens_parts = list(map(attrgetter("_densities"), parts))
            except AttributeError:
                bad = next(
                    type(h).__name__ for h in parts if not hasattr(h, "_edges")
                )
                raise TypeError(
                    "DistributionPack takes DistanceDistributions or "
                    f"Histograms, got {bad}"
                ) from None
            packed = (
                np.concatenate(edges_parts),
                np.concatenate(knots_parts),
                np.concatenate(dens_parts),
                np.fromiter(
                    map(len, edges_parts), dtype=np.intp, count=len(edges_parts)
                ),
            )
            if folded:  # kernel rows come first: gather into the caller's order
                columns = map(np.concatenate, zip(columns, packed))
                columns = _gather_rows(*columns, np.argsort(folded + rest))
            else:
                columns = packed
        self._finish(*columns)

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

        Resident backends (``ram``/``shm``) rehydrate zero-copy: the
        flat columns are read-only views, kernels are bit-identical to
        the exporting pack's.  Chunked backends (``mmap``) return a
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
        # searchsorted(xs, e, 'left') <= t.  Each row therefore splits
        # the evaluation points into contiguous *runs* — left of the
        # support, one run per bin, right of the support — whose
        # (slope, e0, k0) triples were precomputed in _finish; only the
        # run lengths depend on xs.  Three np.repeat gathers and
        # np.interp's interior expression finish the job with no
        # per-object dispatch.
        self._ensure_run_tables()
        positions = np.searchsorted(xs, self._edges, side="left")
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
        out = slope * (np.tile(xs, self._size) - e0) + k0
        return out.reshape(self._size, n)


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

    def to_store(self, backend: str = "shm", **options):
        from repro.storage import create_store

        return create_store(
            backend,
            {
                "edges": self._store.get("edges"),
                "knots": self._store.get("knots"),
                "densities": self._store.get("densities"),
                "sizes": np.asarray(np.diff(self._offsets), dtype=np.int64),
                "totals": self._totals,
                "near": self._near_col,
                "far": self._far_col,
            },
            **options,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PagedDistributionPack(size={self._size}, "
            f"edges={int(self._offsets[-1])}, block_flat={self._block_flat})"
        )
