"""Subregion computation (Section IV-A, Figure 7 of the paper).

Given the candidate set's distance distributions, the space of
distances is partitioned at *end-points*: every near point, every point
where any distance pdf changes value (histogram breakpoints) below
``f_min``, and finally ``f_min`` and ``f_max`` themselves.  Adjacent
end-points bound the *subregions* ``S_1 .. S_M``; the rightmost
subregion ``S_M = [f_min, f_max]`` is special because no object whose
distance falls there can be the nearest neighbour.

The table stores, per object ``i`` and subregion ``j``:

* ``s_ij`` — the subregion probability ``Pr[R_i ∈ S_j]``,
* ``D_i(e_j)`` — the distance cdf at the subregion's lower end-point,

plus the per-edge products ``Y_j = Π_k (1 − D_k(e_j))`` (Equation 2)
and the per-object exclusion products
``Z_ij = Π_{k≠i} (1 − D_k(e_j))`` used by the L-SR and U-SR verifiers
and by incremental refinement.

Because the end-point grid contains *every* pdf breakpoint below
``f_min``, each distance pdf is constant inside every subregion.  This
is what makes Lemma 3 (conditional uniformity / exchangeability inside
a subregion) valid, what makes ``Z_i`` convex on each subregion (so its
value at the midpoint bounds L-SR's slice from below, see
:attr:`SubregionTable.q_lower`), and what makes the refinement integrand
a polynomial on each subregion — see :mod:`repro.core.refinement`.

Implementation notes
--------------------
* The cdf matrix ``D_i(e_j)`` and the end-point grid are built from a
  :class:`~repro.uncertainty.columnar.DistributionPack` — one batched
  kernel call over the packed candidate histograms instead of one
  ``cdf`` call per candidate.  The pack's kernels are bit-identical to
  the scalar path, so every matrix below is unchanged by this.
* The engine builds its tables with :meth:`SubregionTable.stacked`,
  many candidate sets at once, from a pack the fold kernels filled
  straight from the filter's columns: keys come with the pack, and
  ``distributions`` are built only if something reads them.
* Products ``Z`` divide one column product by each factor, as the
  paper's Equation 3 divides ``Y_j`` by ``1 − D_i(e_j)``, except where
  a factor is zero (an object's support ends at or before ``e_j``):
  those columns take an exact branch instead of 0/0 — see
  :func:`~repro.numerics.poisson_binomial.exclusion_products`.
* Products run over *all* candidates, not only those overlapping the
  subregion.  The paper restricts to overlapping objects, which is
  equivalent under its assumption that pdfs are non-zero throughout
  their uncertainty region; the full product stays correct even for
  pdfs with interior zero-density gaps (e.g. mixtures).
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Hashable, Sequence

import numpy as np

from repro.numerics.poisson_binomial import (
    exclusion_products,
    segmented_exclusion_products,
)
from repro.uncertainty.columnar import _MAX_CELLS, DistributionPack
from repro.uncertainty.distance import DistanceDistribution

__all__ = ["SubregionTable"]

#: Relative tolerance for deduplicating end-points.
_EDGE_RTOL = 1e-12


class SubregionTable:
    """Subregion probabilities and cdf values for one candidate set.

    Parameters
    ----------
    distributions:
        Distance distributions of the candidate set (any order; they
        are sorted by near point internally, as the paper prescribes).
        :meth:`stacked` builds the same table from a pack and keys
        without them.

    Raises
    ------
    ValueError:
        If the candidate set is empty.
    """

    #: Row-aligned distance distributions (sorted), or ``None`` until
    #: :attr:`distributions` builds them from ``_rows``.
    _distributions = None
    #: Candidate keys in row order, or ``None`` to read them off
    #: :attr:`distributions`.
    _keys = None
    #: The reader of the unsorted distributions, and the sort applied to
    #: them (``None``: already in order).
    _rows = None
    _perm = None
    #: The sorted candidates' pack, or ``None`` until :attr:`pack`
    #: packs :attr:`distributions`.
    _pack = None

    def __init__(self, distributions: Sequence[DistanceDistribution]) -> None:
        if not distributions:
            raise ValueError("candidate set must not be empty")
        rows = tuple(distributions)
        _build([self], DistributionPack(rows), [len(rows)], [None], [None])
        if self._perm is not None:
            rows = tuple(map(rows.__getitem__, self._perm.tolist()))
        self._distributions = rows

    @classmethod
    def stacked(
        cls, pack: DistributionPack, counts: Sequence[int], keys: Sequence, rows: Sequence
    ) -> list["SubregionTable"]:
        """The tables of many candidate sets in one pass.

        The rows of ``pack`` are the sets' distance histograms (any
        order within a set), set after set, ``counts[s]`` rows each;
        ``keys[s]`` are set ``s``'s identifiers in row order (or
        ``None`` to read them off :attr:`distributions`), and
        ``rows[s]`` a callable returning its row-aligned distance
        distributions, called on the first read of
        :attr:`distributions` (nothing on the query path reads them).
        One sort orders
        every set by ``(near, far)``, the end-points of all sets are
        pooled and deduplicated in one pass (each set at its own scale),
        and one cdf kernel fills every set's cells, in blocks of at most
        ``_MAX_CELLS`` cells.  Table ``s`` equals
        ``SubregionTable(rows[s]())`` bit for bit and owns its arrays:
        none holds a view of the stacked block.
        """
        tables = [cls.__new__(cls) for _ in counts]
        _build(tables, pack, counts, keys, rows)
        return tables

    # ------------------------------------------------------------------
    # Shape and identity
    # ------------------------------------------------------------------

    @property
    def distributions(self) -> tuple[DistanceDistribution, ...]:
        """Candidates sorted by near point (the paper's X_1 .. X_|C|),
        built on first read for a :meth:`stacked` table."""
        if self._distributions is None:
            rows = self._rows()
            if self._perm is not None:
                rows = map(rows.__getitem__, self._perm.tolist())
            self._distributions = tuple(rows)
        return self._distributions

    @property
    def pack(self) -> DistributionPack:
        """Columnar view of the candidates' histograms (row-aligned),
        packed from :attr:`distributions` on first read (the same
        columns the table was built from, bit for bit)."""
        if self._pack is None:
            self._pack = DistributionPack(self.distributions)
        return self._pack

    @cached_property
    def keys(self) -> tuple[Hashable, ...]:
        """Candidate identifiers, row-aligned (built once per table)."""
        if self._keys is not None:
            return self._keys
        return tuple(map(attrgetter("key"), self.distributions))

    @property
    def size(self) -> int:
        """|C| — number of candidates."""
        return self._cdf_matrix.shape[0]

    @property
    def fmin(self) -> float:
        return self._fmin

    @property
    def fmax(self) -> float:
        return self._fmax

    @property
    def edges(self) -> np.ndarray:
        """Inner end-points ``e_1 .. e_M`` (last one equals ``f_min``)."""
        view = self._edges.view()
        view.flags.writeable = False
        return view

    @property
    def n_inner(self) -> int:
        """Number of inner subregions (the paper's ``M − 1``)."""
        return self._edges.size - 1

    @property
    def n_subregions(self) -> int:
        """The paper's ``M``: inner subregions plus the rightmost one."""
        return self.n_inner + 1

    @property
    def widths(self) -> np.ndarray:
        """Widths of the inner subregions."""
        return np.diff(self._edges)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"SubregionTable(|C|={self.size}, M={self.n_subregions}, "
            f"fmin={self._fmin:.6g}, fmax={self._fmax:.6g})"
        )

    # ------------------------------------------------------------------
    # Matrices (all exact w.r.t. the histogram model)
    # ------------------------------------------------------------------

    @property
    def cdf_at_edges(self) -> np.ndarray:
        """``D_i(e_j)`` as a (|C|, M) matrix (read-only)."""
        view = self._cdf_matrix.view()
        view.flags.writeable = False
        return view

    @cached_property
    def s_inner(self) -> np.ndarray:
        """Subregion probabilities ``s_ij`` for inner subregions, (|C|, M−1)."""
        s = np.diff(self._cdf_matrix, axis=1)
        np.clip(s, 0.0, 1.0, out=s)
        s.flags.writeable = False
        return s

    def inner_rows(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of :attr:`s_inner`, bit for bit, without
        computing (or keeping) the others."""
        s = np.diff(self._cdf_matrix[rows], axis=1)
        np.clip(s, 0.0, 1.0, out=s)
        return s

    @cached_property
    def s_right(self) -> np.ndarray:
        """``s_iM`` — probability mass in the rightmost subregion, (|C|,)."""
        s = 1.0 - self._cdf_matrix[:, -1]
        np.clip(s, 0.0, 1.0, out=s)
        s.flags.writeable = False
        return s

    @cached_property
    def counts(self) -> np.ndarray:
        """``c_j`` — objects with non-zero subregion probability, (M−1,)."""
        # s_inner's clip keeps the sign, so its own array is not needed.
        counts = (np.diff(self._cdf_matrix, axis=1) > 0.0).sum(axis=0)
        counts.flags.writeable = False
        return counts

    @cached_property
    def Y(self) -> np.ndarray:
        """``Y_j = Π_k (1 − D_k(e_j))`` for every edge (Equation 2), (M,)."""
        survival = 1.0 - self._cdf_matrix
        y = np.prod(survival, axis=0)
        y.flags.writeable = False
        return y

    @cached_property
    def Z(self) -> np.ndarray:
        """``Z_ij = Π_{k≠i} (1 − D_k(e_j))``, shape (|C|, M).

        A zero factor (an object certainly closer than ``e_j``) is
        handled exactly, not through 0/0 division — see
        :func:`~repro.numerics.poisson_binomial.exclusion_products`.
        """
        z = self.exclusion_rows()
        z.flags.writeable = False
        return z

    def exclusion_rows(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Rows ``rows`` of :attr:`Z` (all when ``None``), bit for bit,
        without computing the others."""
        z = exclusion_products(1.0 - self._cdf_matrix, rows)
        np.clip(z, 0.0, 1.0, out=z)
        return z

    # ------------------------------------------------------------------
    # Per-subregion qualification-probability bounds (L-SR / Eq. 5)
    # ------------------------------------------------------------------

    @cached_property
    def q_lower(self) -> np.ndarray:
        """``q_ij.l`` — L-SR's lower bound per inner subregion, (|C|, M−1).

        ``q_ij.l = max(Z_i(e_j) / c_j, Z_i(m_j))``, with ``m_j`` the
        midpoint of ``S_j``.  The first term is Lemma 2.  The second
        holds because every pdf is constant inside ``S_j``: each factor
        ``1 − D_k`` of ``Z_i`` is linear, non-negative and
        non-increasing there, so their product is convex
        (``(fg)'' = f''g + 2f'g' + fg'' ≥ 0``), and ``d_i`` is constant,
        so ``q_ij`` is the mean of ``Z_i`` over ``S_j``, which the
        Hermite–Hadamard inequality bounds below by ``Z_i(m_j)`` (and
        above by U-SR's ``½ (Z_i(e_j) + Z_i(e_{j+1}))``).  Neither term
        dominates: with three objects spanning ``S_j`` and nothing
        inside ``e_j``, Lemma 2 reads 1/3 and the midpoint 1/4.  With
        ``c_j = 1`` and no interior-zero pdfs the bound is the paper's
        special case ``q_ij.l = 1``.

        Entries with ``s_ij = 0`` are set to 0: the conditional
        probability is undefined on a null event and Equation 4
        multiplies it by ``s_ij`` anyway.
        """
        q = self.q_lower_of(self.Z, self.s_inner)
        q.flags.writeable = False
        return q

    @cached_property
    def q_upper(self) -> np.ndarray:
        """``q_ij.u`` — U-SR's upper bound per inner subregion, (|C|, M−1).

        Equation 5 (in the form of Equation 11):
        ``q_ij.u = ½ (Z_i(e_{j+1}) + Z_i(e_j))``.

        As with :attr:`q_lower`, entries with ``s_ij = 0`` are zeroed.
        """
        q = self.q_upper_of(self.Z, self.s_inner)
        q.flags.writeable = False
        return q

    def q_lower_of(
        self, z: np.ndarray, s: np.ndarray, rows: np.ndarray | None = None
    ) -> np.ndarray:
        """:attr:`q_lower` of the rows ``rows`` (all when ``None``),
        whose :attr:`Z` and :attr:`s_inner` rows are ``z`` and ``s``;
        bit for bit the rows of the full matrix."""
        divisor = np.where(self.counts > 0, self.counts, 1).astype(float)
        q = z[:, :-1] / divisor[None, :]
        # Z_i(m_j): each D_k is linear on S_j, so its survival at the
        # midpoint is 1 − ½ (D_k(e_j) + D_k(e_{j+1})).
        survival = self._cdf_matrix[:, :-1] + self._cdf_matrix[:, 1:]
        survival *= -0.5
        survival += 1.0
        np.maximum(q, exclusion_products(survival, rows), out=q)
        q[s <= 0.0] = 0.0
        np.clip(q, 0.0, 1.0, out=q)
        return q

    @staticmethod
    def q_upper_of(z: np.ndarray, s: np.ndarray) -> np.ndarray:
        """:attr:`q_upper` of the rows whose :attr:`Z` and
        :attr:`s_inner` rows are ``z`` and ``s``."""
        q = 0.5 * (z[:, 1:] + z[:, :-1])
        q[s <= 0.0] = 0.0
        np.clip(q, 0.0, 1.0, out=q)
        return q

    # ------------------------------------------------------------------
    # Named accessors matching the paper's notation (used by tests)
    # ------------------------------------------------------------------

    def subregion_probability(self, i: int, j: int) -> float:
        """``s_ij`` with 0-based ``i`` and 0-based inner subregion ``j``;
        ``j = n_inner`` addresses the rightmost subregion."""
        if j == self.n_inner:
            return float(self.s_right[i])
        return float(self.s_inner[i, j])

    def cdf_at_edge(self, i: int, j: int) -> float:
        """``D_i(e_j)`` with 0-based indices (``j`` up to ``n_inner``)."""
        return float(self._cdf_matrix[i, j])

    def index_of(self, key: Hashable) -> int:
        """Row index of the candidate with identifier ``key``."""
        try:
            return self.keys.index(key)
        except ValueError:
            raise KeyError(key) from None


def _build(tables: list, pack: DistributionPack, counts, keys, rows) -> None:
    """Fill ``tables`` (one per set of ``counts`` rows of ``pack``)."""
    if len(tables) == 1:
        _build_one(tables[0], pack, keys[0], rows[0])
        return
    counts = np.asarray(counts, dtype=np.intp)
    k = counts.size
    seg = np.repeat(np.arange(k), counts)
    row_at = np.cumsum(counts) - counts
    # Sort each set by (near, far) as _build_one does (the set key
    # keeps the sets apart), and permute each table's cdf rows.
    near, far = pack.near, pack.far
    perm = np.lexsort((far, near, seg))
    moved = perm != np.arange(perm.size)
    if moved.any():
        moved = np.logical_or.reduceat(moved, row_at).tolist()
    else:
        moved = [False] * k
    fmins = np.minimum.reduceat(far, row_at)
    n_mins = np.minimum.reduceat(near, row_at)
    if not (fmins > n_mins).all():
        raise ValueError(_DEGENERATE)
    edges, widths = _end_points(pack, seg, n_mins, fmins)
    fmaxs = np.maximum.reduceat(far, row_at).tolist()
    edge_at = (np.cumsum(widths) - widths).tolist()
    row_list, count_list = row_at.tolist(), counts.tolist()
    width_list, fmin_list = widths.tolist(), fmins.tolist()
    for first, last in _cell_blocks(counts * widths):
        r0 = row_list[first]
        r1 = row_list[last - 1] + count_list[last - 1]
        e0 = edge_at[first]
        e1 = edge_at[last - 1] + width_list[last - 1]
        block = pack if (r0, r1) == (0, pack.size) else pack.rows_between(r0, r1)
        cells = block.cdf_segments(counts[first:last], edges[e0:e1], widths[first:last])
        np.clip(cells, 0.0, 1.0, out=cells)
        at = 0
        for s in range(first, last):
            table = tables[s]
            n, m = count_list[s], width_list[s]
            # Each table owns its arrays, never a view of the block.
            cdf = cells[at : at + n * m].reshape(n, m)
            table._edges = edges[edge_at[s] : edge_at[s] + m].copy()
            at += n * m
            table._fmin = fmin_list[s]
            table._fmax = fmaxs[s]
            table._rows = rows[s]
            table._keys = keys[s]
            if moved[s]:
                local = perm[row_list[s] : row_list[s] + n] - row_list[s]
                table._cdf_matrix = cdf[local]
                table._perm = local
                if keys[s] is not None:
                    table._keys = tuple(map(keys[s].__getitem__, local.tolist()))
            else:
                table._cdf_matrix = cdf.copy()


_DEGENERATE = (
    "f_min must exceed the smallest near point; the candidate "
    "set is degenerate (a zero-width distance support?)"
)


def _build_one(table: "SubregionTable", pack: DistributionPack, keys, rows) -> None:
    """Fill one table: the stacked pass of :func:`_build` for one set,
    with one set's arrays (fewer numpy calls, same bits).  A batch of
    one (every ``execute``) comes here and skips the set keys' complex
    sort and the ragged cdf gathers."""
    # Sort by (near, far) as the paper prescribes: one lexsort over the
    # pack's columns; np.lexsort is stable, so the order matches
    # sorted(key=lambda d: (d.near, d.far)) exactly.  Rows are
    # independent, so the cdf rows are permuted, not the pack.
    perm = np.lexsort((pack.far, pack.near))
    if np.array_equal(perm, np.arange(perm.size)):
        perm = None
    else:
        table._perm = perm
        if keys is not None:
            keys = tuple(map(keys.__getitem__, perm.tolist()))
    table._keys = keys
    table._rows = rows
    fars = pack.far
    table._fmin = fmin = float(fars.min())
    table._fmax = float(fars.max())
    n_min = float(pack.near.min())
    if not fmin > n_min:
        raise ValueError(_DEGENERATE)
    breakpoints, nears = pack.edges_flat, pack.near
    merged = np.sort(
        np.concatenate(
            (
                np.asarray([n_min, fmin]),
                breakpoints[(breakpoints > n_min) & (breakpoints < fmin)],
                nears[(nears > n_min) & (nears < fmin)],
            )
        )
    )
    scale = max(abs(float(merged[0])), abs(float(merged[-1])), 1.0)
    keep = np.empty(merged.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(merged), _EDGE_RTOL * scale, out=keep[1:])
    edges = merged[keep]
    edges[-1] = fmin
    table._edges = edges
    cdf = pack.cdf_many(edges)
    if perm is not None:
        cdf = cdf[perm]
    # Clamp tiny interpolation drift so downstream algebra stays in [0, 1].
    table._cdf_matrix = np.clip(cdf, 0.0, 1.0, out=cdf)


def _end_points(pack: DistributionPack, seg, n_mins, fmins) -> tuple:
    """Every set's end-points ``e_1 .. e_M``, flat, and ``M`` per set
    (``seg``: each row's set).

    A set's end-point multiset is its smallest near point, its f_min,
    and every breakpoint and near point strictly between them; sorted,
    deduplicated at ``_EDGE_RTOL`` of the set's own scale, with the
    last edge set to exactly f_min (as :func:`_build_one` does).  The
    rightmost subregion ``[f_min, f_max]`` is represented implicitly
    through :attr:`SubregionTable.s_right`, which avoids degenerate
    zero-width edges when all far points coincide.
    """
    breakpoints, nears = pack.edges_flat, pack.near
    k = fmins.size
    edge_seg = np.repeat(seg, pack.nbins + 1)
    inside = (breakpoints > n_mins[edge_seg]) & (breakpoints < fmins[edge_seg])
    nears_inside = (nears > n_mins[seg]) & (nears < fmins[seg])
    # Complex numbers order by (real, imag): (set, value) pairs sort
    # every set's multiset within its own run.
    pooled = np.empty(2 * k + int(inside.sum()) + int(nears_inside.sum()), dtype=complex)
    pooled.real = np.concatenate(
        (np.arange(k), np.arange(k), edge_seg[inside], seg[nears_inside])
    )
    pooled.imag = np.concatenate(
        (n_mins, fmins, breakpoints[inside], nears[nears_inside])
    )
    pooled.sort()
    merged = pooled.imag.copy()
    merged_seg = pooled.real.astype(np.intp)
    first = np.searchsorted(merged_seg, np.arange(k))
    last = np.append(first[1:], merged.size) - 1
    scale = np.maximum(np.maximum(np.abs(merged[first]), np.abs(merged[last])), 1.0)
    keep = np.empty(merged.size, dtype=bool)
    np.greater(np.diff(merged), (_EDGE_RTOL * scale)[merged_seg[1:]], out=keep[1:])
    keep[first] = True
    edges = merged[keep]
    widths = np.bincount(merged_seg[keep], minlength=k)
    edges[np.cumsum(widths) - 1] = fmins
    return edges, widths


def _cell_blocks(cells: np.ndarray):
    """``(first, last)`` runs of sets whose cells sum to at most
    ``_MAX_CELLS`` (a set above it alone is one run)."""
    total = 0
    first = 0
    for s, n in enumerate(cells.tolist()):
        if total and total + n > _MAX_CELLS:
            yield first, s
            first, total = s, 0
        total += n
    yield first, cells.size


def _ragged_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i] .. starts[i] + lengths[i] - 1`` for every ``i``,
    concatenated."""
    index = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    index += np.arange(index.size)
    return index


class StackedBrackets:
    """L-SR's and U-SR's bounds of chosen rows of many tables, as one
    pass over their cells.

    Every table's cells are laid out flat, row after row, table after
    table, and gathered once into column order.  Each column product
    runs over its own table's rows in row order
    (:func:`~repro.numerics.poisson_binomial.segmented_exclusion_products`,
    the very order of ``np.prod(axis=0)``, with the exact branch of
    :func:`~repro.numerics.poisson_binomial.exclusion_products` for a
    column holding a zero factor), and
    each row sum is ``einsum``'s over its own table's contiguous
    ``(rows, M − 1)`` block.  So the bounds, and the bracket rows left
    for refinement, are those :meth:`SubregionTable.exclusion_rows`,
    :meth:`SubregionTable.q_lower_of` and
    :meth:`SubregionTable.q_upper_of` give table by table, bit for bit.
    Tables wider than numpy's ``einsum`` buffer take whole-matrix row
    sums, so they are bounded table by table instead (see
    :mod:`repro.core.verifiers.fused`).

    ``rows[t]`` are the ascending rows of ``tables[t]`` to bound;
    :attr:`lower` holds their L-SR bounds, table after table.
    """

    def __init__(self, tables: Sequence["SubregionTable"], rows: Sequence[np.ndarray]) -> None:
        k = len(tables)
        n = np.array([table.size for table in tables])
        m = np.array([table._cdf_matrix.shape[1] for table in tables])
        # One padding cell keeps the last cell's right neighbour in bounds.
        cdf = np.concatenate([table._cdf_matrix.reshape(-1) for table in tables] + [[0.0]])
        cell_at = np.cumsum(n * m) - n * m
        col_at = np.cumsum(m) - m
        # Column order: each column's cells in row order, column after
        # column, table after table; ``runs`` are the columns' starts.
        run = np.repeat(n, m)
        runs = np.cumsum(run) - run
        stride = np.repeat(m, m)
        first = np.arange(m.sum()) + np.repeat(cell_at - col_at, m)
        order = _ragged_index(np.zeros_like(run), run) * np.repeat(stride, run)
        order += np.repeat(first, run)
        column = cdf[order]  # D_k(e_j), column order
        right = cdf[order + 1]  # D_k(e_{j+1}); a table's last column is unused

        picked = [r.size for r in rows]
        table_of = np.repeat(np.arange(k), picked)
        width = m[table_of]
        cells = _ragged_index(cell_at[table_of] + np.concatenate(rows) * width, width)
        cols = _ragged_index(col_at[table_of], width)
        # Z over the rows' full width; s and the brackets over the inner
        # subregions (each row's cells but its last).  Every factor is
        # in [0, 1]: the cdf matrices are clipped.
        z = segmented_exclusion_products(
            1.0 - column, runs, run, 1.0 - cdf[cells], cols
        )
        np.clip(z, 0.0, 1.0, out=z)
        inner = np.ones(cells.size, dtype=bool)
        inner[np.cumsum(width) - 1] = False
        at, inner_cols = cells[inner], cols[inner]
        s = cdf[at + 1] - cdf[at]
        np.clip(s, 0.0, 1.0, out=s)
        # c_j over every row of the table.
        counts = np.add.reduceat(right - column > 0.0, runs, dtype=np.intp)
        divisor = np.where(counts > 0, counts, 1).astype(float)
        q = z[inner] / divisor[inner_cols]
        # Z_i(m_j): survival at the midpoints, 1 − ½ (D_k(e_j) + D_k(e_{j+1})).
        midpoint = column + right
        midpoint *= -0.5
        midpoint += 1.0
        mine = cdf[at] + cdf[at + 1]
        mine *= -0.5
        mine += 1.0
        midpoint_z = segmented_exclusion_products(midpoint, runs, run, mine, inner_cols)
        np.maximum(q, midpoint_z, out=q)
        q[s <= 0.0] = 0.0
        np.clip(q, 0.0, 1.0, out=q)

        self._z, self._s, self._q_lower = z, s, q
        self._inner, self._width, self._table_of = inner, width, table_of
        self._inner_widths = (m - 1).tolist()
        #: L-SR's bound of every row, table after table.
        self.lower = self._row_sums(s, q, self._table_blocks())

    @staticmethod
    def _row_sums(s: np.ndarray, q: np.ndarray, blocks: list) -> np.ndarray:
        """``Σ_j s_ij q_ij`` of every row, ``einsum``'s over each
        table's own ``(rows, M − 1)`` block, clipped to [0, 1]."""
        sums = []
        at = 0
        for rows, width in blocks:
            size = rows * width
            sums.append(
                np.einsum(
                    "ij,ij->i",
                    s[at : at + size].reshape(rows, width),
                    q[at : at + size].reshape(rows, width),
                )
            )
            at += size
        return np.clip(np.concatenate(sums), 0.0, 1.0)

    def _table_blocks(self) -> list[tuple[int, int]]:
        """``(rows, M − 1)`` of every table's rows at hand."""
        counts = np.bincount(self._table_of, minlength=len(self._inner_widths))
        return list(zip(counts.tolist(), self._inner_widths))

    def upper(self, keep: np.ndarray) -> np.ndarray:
        """U-SR's bounds of the rows ``keep`` marks (those L-SR left
        UNKNOWN), table after table; those rows are kept."""
        at = np.flatnonzero(self._inner & np.repeat(keep, self._width))
        kept = np.repeat(keep, self._width - 1)
        s, self._q_lower = self._s[kept], self._q_lower[kept]
        q = 0.5 * (self._z[at + 1] + self._z[at])
        q[s <= 0.0] = 0.0
        np.clip(q, 0.0, 1.0, out=q)
        self._q_upper = q
        self._width, self._table_of = self._width[keep], self._table_of[keep]
        return self._row_sums(s, q, self._table_blocks())

    def brackets(self, keep: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each table's ``q_lower`` / ``q_upper`` rows of the rows
        ``keep`` marks among those :meth:`upper` kept."""
        kept = np.repeat(keep, self._width - 1)
        q_lower, q_upper = self._q_lower[kept], self._q_upper[kept]
        self._table_of = self._table_of[keep]
        out = []
        at = 0
        for rows, width in self._table_blocks():
            size = rows * width
            out.append(
                (
                    q_lower[at : at + size].reshape(rows, width),
                    q_upper[at : at + size].reshape(rows, width),
                )
            )
            at += size
        return out
