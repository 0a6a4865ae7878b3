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
a subregion) valid, and what makes the refinement integrand a
polynomial on each subregion — see :mod:`repro.core.refinement`.

Implementation notes
--------------------
* The cdf matrix ``D_i(e_j)`` and the end-point grid are built from a
  :class:`~repro.uncertainty.columnar.DistributionPack` — one batched
  kernel call over the packed candidate histograms instead of one
  ``cdf`` call per candidate.  The pack's kernels are bit-identical to
  the scalar path, so every matrix below is unchanged by this.
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

#: Candidate sets at or below this size skip the columnar machinery —
#: plain loops win on latency there (results are bit-identical).
_SMALL_SET = 8


def _subdivide(edges: np.ndarray, parts: int) -> np.ndarray:
    """Split every interval of ``edges`` into ``parts`` equal pieces."""
    steps = np.linspace(0.0, 1.0, parts + 1)[:-1]
    widths = np.diff(edges)
    fine = (edges[:-1, None] + widths[:, None] * steps[None, :]).reshape(-1)
    return np.concatenate((fine, edges[-1:]))


class SubregionTable:
    """Subregion probabilities and cdf values for one candidate set.

    Parameters
    ----------
    distributions:
        Distance distributions of the candidate set (any order; they
        are sorted by near point internally, as the paper prescribes).

    Raises
    ------
    ValueError:
        If the candidate set is empty.
    """

    def __init__(
        self,
        distributions: Sequence[DistanceDistribution],
        grid_refinement: int = 1,
    ) -> None:
        """``grid_refinement > 1`` splits every inner subregion into
        that many equal parts.  The pdfs remain constant inside each
        finer subregion, so all verifier bounds stay *sound* at any
        refinement level; the U-SR upper bound converges toward the
        exact probability as the grid refines (the event "another
        object shares my subregion" vanishes), though convergence is
        not necessarily monotone step-by-step.  This is the simplest
        instance of the paper's future-work direction of "other kinds
        of verifiers"; ``benchmarks/test_ablation_grid_refinement.py``
        quantifies the tightness/cost trade-off."""
        if not distributions:
            raise ValueError("candidate set must not be empty")
        if grid_refinement < 1:
            raise ValueError("grid_refinement must be >= 1")
        if len(distributions) <= _SMALL_SET:
            # Tiny candidate sets are cheaper through plain Python
            # loops than through the columnar machinery; the pack is
            # still materialised lazily if refinement asks for it.
            # Both branches produce bit-identical tables.
            ordered = sorted(distributions, key=lambda d: (d.near, d.far))
            self._distributions = tuple(ordered)
            self._pack = None
            self._fmin = min(d.far for d in ordered)
            self._fmax = max(d.far for d in ordered)
        else:
            # Sort by (near, far) as the paper prescribes — the keys
            # come from the pack's flat columns (one lexsort) instead
            # of one Python key tuple per candidate; np.lexsort is
            # stable, so the order matches
            # sorted(key=lambda d: (d.near, d.far)) exactly.
            unsorted_pack = DistributionPack(distributions)
            perm = np.lexsort((unsorted_pack.far, unsorted_pack.near))
            if np.array_equal(perm, np.arange(perm.size)):
                self._distributions = tuple(distributions)
                self._pack = unsorted_pack
            else:
                self._distributions = tuple(
                    map(distributions.__getitem__, perm.tolist())
                )
                self._pack = unsorted_pack.take(perm)
            fars = self._pack.far
            self._fmin = float(fars.min())
            self._fmax = float(fars.max())
        self._edges = self._build_edges()
        if grid_refinement > 1:
            self._edges = _subdivide(self._edges, grid_refinement)
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
        if self._pack is None:
            n_min = min(d.near for d in self._distributions)
        else:
            n_min = float(self._pack.near.min())
        if not self._fmin > n_min:
            raise ValueError(
                "f_min must exceed the smallest near point; the candidate "
                "set is degenerate (a zero-width distance support?)"
            )
        if self._pack is None:
            pool = [np.asarray([n_min, self._fmin])]
            for dist in self._distributions:
                edges = dist.breakpoints
                inside = edges[(edges > n_min) & (edges < self._fmin)]
                pool.append(inside)
                if n_min < dist.near < self._fmin:
                    pool.append(np.asarray([dist.near]))
            merged = np.sort(np.concatenate(pool))
        else:
            # Same multiset of end-points, pooled from the pack's flat
            # columns instead of one masking pass per candidate.
            nears = self._pack.near
            breakpoints = self._pack.edges_flat
            inside = breakpoints[
                (breakpoints > n_min) & (breakpoints < self._fmin)
            ]
            nears_inside = nears[(nears > n_min) & (nears < self._fmin)]
            merged = np.sort(
                np.concatenate(
                    (np.asarray([n_min, self._fmin]), inside, nears_inside)
                )
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
        if self._pack is None:
            return np.vstack(
                [np.asarray(d.cdf(self._edges)) for d in self._distributions]
            )
        return self._pack.cdf_many(self._edges)

    # ------------------------------------------------------------------
    # Shape and identity
    # ------------------------------------------------------------------

    @property
    def distributions(self) -> tuple[DistanceDistribution, ...]:
        """Candidates sorted by near point (the paper's X_1 .. X_|C|)."""
        return self._distributions

    @property
    def pack(self) -> DistributionPack:
        """Columnar view of the candidates' histograms (row-aligned).

        Materialised lazily for small candidate sets, whose table is
        built through plain loops.
        """
        if self._pack is None:
            self._pack = DistributionPack(self._distributions)
        return self._pack

    @cached_property
    def keys(self) -> tuple[Hashable, ...]:
        """Candidate identifiers, row-aligned (built once per table)."""
        return tuple(map(attrgetter("key"), self._distributions))

    @property
    def size(self) -> int:
        """|C| — number of candidates."""
        return len(self._distributions)

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
        z = exclusion_products(1.0 - self._cdf_matrix)
        np.clip(z, 0.0, 1.0, out=z)
        z.flags.writeable = False
        return z

    # ------------------------------------------------------------------
    # Per-subregion qualification-probability bounds (Lemma 2 / Eq. 5)
    # ------------------------------------------------------------------

    @cached_property
    def q_lower(self) -> np.ndarray:
        """``q_ij.l`` — L-SR's lower bound per inner subregion, (|C|, M−1).

        Lemma 2: ``q_ij.l = (1/c_j) · Π_{k≠i} (1 − D_k(e_j))``.  With
        ``c_j = 1`` and no interior-zero pdfs the product is 1 and the
        bound reduces to the paper's special case ``q_ij.l = 1``.

        Entries with ``s_ij = 0`` are set to 0: the conditional
        probability is undefined on a null event and Equation 4
        multiplies it by ``s_ij`` anyway.
        """
        divisor = np.where(self.counts > 0, self.counts, 1).astype(float)
        q = self.Z[:, :-1] / divisor[None, :]
        q[self.s_inner <= 0.0] = 0.0
        np.clip(q, 0.0, 1.0, out=q)
        q.flags.writeable = False
        return q

    @cached_property
    def q_upper(self) -> np.ndarray:
        """``q_ij.u`` — U-SR's upper bound per inner subregion, (|C|, M−1).

        Equation 5 (in the form of Equation 11):
        ``q_ij.u = ½ (Z_i(e_{j+1}) + Z_i(e_j))``.

        As with :attr:`q_lower`, entries with ``s_ij = 0`` are zeroed.
        """
        q = 0.5 * (self.Z[:, 1:] + self.Z[:, :-1])
        q[self.s_inner <= 0.0] = 0.0
        np.clip(q, 0.0, 1.0, out=q)
        q.flags.writeable = False
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
        for idx, dist in enumerate(self._distributions):
            if dist.key == key:
                return idx
        raise KeyError(key)
