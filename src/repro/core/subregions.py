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
* The engine builds its tables with :meth:`SubregionTable.from_pack`
  from a pack the fold kernels filled straight from the filter's
  columns: keys come with the pack, and ``distributions`` are built
  only if something reads them.
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

from repro.numerics.poisson_binomial import exclusion_products
from repro.uncertainty.columnar import DistributionPack
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
        :meth:`from_pack` builds the same table from a pack and keys
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

    def __init__(self, distributions: Sequence[DistanceDistribution]) -> None:
        if not distributions:
            raise ValueError("candidate set must not be empty")
        rows = tuple(distributions)
        self._setup(DistributionPack(rows), None, None)
        if self._perm is not None:
            rows = tuple(map(rows.__getitem__, self._perm.tolist()))
        self._distributions = rows

    @classmethod
    def from_pack(
        cls, pack: DistributionPack, keys: Sequence[Hashable], rows
    ) -> "SubregionTable":
        """The table of the candidates whose distance histograms are the
        rows of ``pack`` (any order) and whose identifiers are ``keys``.

        ``rows`` is a callable returning the row-aligned distance
        distributions; :attr:`distributions` calls it on first read
        (nothing on the query path does).  Bit-identical to
        ``SubregionTable(rows())``.
        """
        table = cls.__new__(cls)
        table._setup(pack, tuple(keys), rows)
        return table

    def _setup(self, pack: DistributionPack, keys, rows) -> None:
        # Sort by (near, far) as the paper prescribes: one lexsort over
        # the pack's columns; np.lexsort is stable, so the order matches
        # sorted(key=lambda d: (d.near, d.far)) exactly.
        perm = np.lexsort((pack.far, pack.near))
        if np.array_equal(perm, np.arange(perm.size)):
            self._pack, self._perm = pack, None
        else:
            self._pack, self._perm = pack.take(perm), perm
            if keys is not None:
                keys = tuple(map(keys.__getitem__, perm.tolist()))
        self._keys = keys
        self._rows = rows
        fars = self._pack.far
        self._fmin = float(fars.min())
        self._fmax = float(fars.max())
        self._edges = self._build_edges()
        self._cdf_matrix = self._build_cdf_matrix()
        # Clamp tiny interpolation drift so downstream algebra stays in [0, 1].
        np.clip(self._cdf_matrix, 0.0, 1.0, out=self._cdf_matrix)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_edges(self) -> np.ndarray:
        """End-points ``e_1 .. e_M`` (from the smallest near point to f_min).

        The rightmost subregion ``[f_min, f_max]`` is represented
        implicitly through :attr:`s_right`, which avoids degenerate
        zero-width edges when all far points coincide.
        """
        n_min = float(self._pack.near.min())
        if not self._fmin > n_min:
            raise ValueError(
                "f_min must exceed the smallest near point; the candidate "
                "set is degenerate (a zero-width distance support?)"
            )
        # The end-point multiset, pooled from the pack's flat columns.
        nears = self._pack.near
        breakpoints = self._pack.edges_flat
        inside = breakpoints[(breakpoints > n_min) & (breakpoints < self._fmin)]
        nears_inside = nears[(nears > n_min) & (nears < self._fmin)]
        merged = np.sort(
            np.concatenate((np.asarray([n_min, self._fmin]), inside, nears_inside))
        )
        scale = max(abs(float(merged[0])), abs(float(merged[-1])), 1.0)
        threshold = _EDGE_RTOL * scale
        keep = np.empty(merged.size, dtype=bool)
        keep[0] = True
        np.greater(np.diff(merged), threshold, out=keep[1:])
        edges = merged[keep]
        # Guarantee the last edge is exactly f_min.
        edges[-1] = self._fmin
        return edges

    def _build_cdf_matrix(self) -> np.ndarray:
        """``D_i(e_j)`` for all candidates and end-points, (|C|, M).

        One columnar pack call replaces the per-candidate ``d.cdf``
        loop; the result is bit-identical (see
        :mod:`repro.uncertainty.columnar`).  Overridable so benchmarks
        can pit the scalar loop against the columnar kernel.
        """
        return self._pack.cdf_many(self._edges)

    # ------------------------------------------------------------------
    # Shape and identity
    # ------------------------------------------------------------------

    @property
    def distributions(self) -> tuple[DistanceDistribution, ...]:
        """Candidates sorted by near point (the paper's X_1 .. X_|C|),
        built on first read for a :meth:`from_pack` table."""
        if self._distributions is None:
            rows = self._rows()
            if self._perm is not None:
                rows = map(rows.__getitem__, self._perm.tolist())
            self._distributions = tuple(rows)
        return self._distributions

    @property
    def pack(self) -> DistributionPack:
        """Columnar view of the candidates' histograms (row-aligned)."""
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
        counts = (self.s_inner > 0.0).sum(axis=0)
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
