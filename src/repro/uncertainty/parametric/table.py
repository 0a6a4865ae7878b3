"""Analytic subregion tables for parametric candidate sets.

:class:`AnalyticTable` duck-types the slice of
:class:`~repro.core.subregions.SubregionTable` the verifier chain
reads — ``keys``/``size``/``fmin``/``fmax``/``edges``/``s_inner``/
``s_right``/``q_lower``/``q_upper``/``distributions`` — but is built
from exact closed-form cdfs instead of histogram breakpoints, so its
grid is *chosen*, not dictated by 300 bars per candidate.

Soundness under arbitrary smooth cdfs
-------------------------------------
The histogram table's Lemma-2/Equation-5 bounds lean on pdfs being
constant inside every subregion.  Analytic models void that premise,
so this table uses the coarser-but-always-sound Riemann bracketing:
``Z_i(r) = Π_{k≠i}(1 − D_k(r))`` is non-increasing in ``r``, hence
for the inner subregion ``S_j = [e_j, e_{j+1}]``

    p_ij = ∫_{S_j} d_i(r) · Z_i(r) dr  ∈  [s_ij·Z_i(e_{j+1}), s_ij·Z_i(e_j)]

which is exactly what L-SR/U-SR compute from ``q_lower = Z[:, 1:]``
and ``q_upper = Z[:, :-1]``.  No ``1/c_j`` divisor appears: it would
*raise* the lower bound past what monotonicity alone guarantees.  The
rightmost subregion contributes exactly zero (some candidate's
support ends at ``f_min``, so beyond it either that candidate is
certainly closer or ``d_i`` is zero), which also keeps R-S's
``1 − s_iM = D_i(f_min)`` upper bound valid.  Both brackets converge
to ``p_i`` as the grid refines, so verification terminates for any
positive tolerance; callers escalate via :meth:`refined` and fall
back to the histogram pipeline only if escalation runs out.

``Z`` itself is the histogram table's product, from the one kernel
both share (:func:`~repro.numerics.poisson_binomial.exclusion_products`);
only the grid and the bracketing differ.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable

import numpy as np

from repro.numerics.poisson_binomial import exclusion_products
from repro.uncertainty.parametric.pack import MixedDistributionPack

__all__ = ["AnalyticTable"]

#: Relative tolerance for deduplicating pooled grid points.
_EDGE_RTOL = 1e-12


class AnalyticTable:
    """Verifier-facing subregion matrices over exact parametric cdfs.

    Parameters
    ----------
    distributions:
        The candidate set — parametric distances, or a mix with
        histogram-backed ones, or a :class:`MixedDistributionPack` over
        them (any order; sorted by ``(near, far)`` here).
    grid:
        Target number of inner subregions.  The pooled analytic knots
        and near points always stay in the grid; intervals are split
        uniformly until the count reaches the target.
    """

    def __init__(self, distributions, grid: int = 64) -> None:
        if isinstance(distributions, MixedDistributionPack):
            pack = distributions
        elif not distributions:
            raise ValueError("candidate set must not be empty")
        else:
            pack = MixedDistributionPack(distributions)
        self._pack = pack = pack.sorted()
        nears, fars = pack.near, pack.far
        self._fmin = fmin = float(fars.min())
        self._fmax = float(fars.max())
        n_min = float(nears.min())
        if not fmin > n_min:
            raise ValueError(
                "f_min must exceed the smallest near point; the candidate "
                "set is degenerate (a zero-width distance support?)"
            )
        knots = pack.knots()
        merged = np.sort(
            np.concatenate(
                (
                    [n_min, fmin],
                    knots[(knots > n_min) & (knots < fmin)],
                    nears[(nears > n_min) & (nears < fmin)],
                )
            )
        )
        scale = max(abs(float(merged[0])), abs(float(merged[-1])), 1.0)
        keep = np.empty(merged.size, dtype=bool)
        keep[0] = True
        np.greater(np.diff(merged), _EDGE_RTOL * scale, out=keep[1:])
        # The knot-pinned edges: grid-independent, shared by refined().
        self._pinned = merged[keep]
        self._pinned[-1] = fmin
        self._set_grid(grid)

    # ------------------------------------------------------------------

    def _set_grid(self, grid: int) -> None:
        """Split the pinned edges to ≥ ``grid`` cells; the cdf matrix."""
        if grid < 1:
            raise ValueError("grid must be >= 1")
        self._grid = int(grid)
        edges = self._pinned
        inner = edges.size - 1
        if inner < self._grid:
            parts = -(-self._grid // inner)
            steps = np.linspace(0.0, 1.0, parts + 1)[:-1]
            widths = np.diff(edges)
            fine = (edges[:-1, None] + widths[:, None] * steps[None, :]).reshape(-1)
            edges = np.concatenate((fine, edges[-1:]))
        self._edges = edges
        cdf = np.clip(self._pack.cdf_many(edges), 0.0, 1.0)
        # Guard against last-ulp wiggle in the closed forms: the
        # downstream algebra assumes each row is a non-decreasing cdf.
        np.maximum.accumulate(cdf, axis=1, out=cdf)
        self._cdf_matrix = cdf

    def refined(self, grid: int) -> "AnalyticTable":
        """A finer table over the same candidates (bounds only tighten):
        the sorted pack and the pinned edges are reused."""
        table = object.__new__(AnalyticTable)
        table._pack = self._pack
        table._fmin, table._fmax = self._fmin, self._fmax
        table._pinned = self._pinned
        table._set_grid(grid)
        return table

    # ------------------------------------------------------------------
    # Shape and identity (SubregionTable surface)
    # ------------------------------------------------------------------

    @property
    def distributions(self) -> tuple:
        """Per-candidate laws, built lazily by the pack."""
        return self._pack.distributions

    @property
    def pack(self) -> MixedDistributionPack:
        return self._pack

    @property
    def keys(self) -> tuple[Hashable, ...]:
        return self._pack.keys

    @property
    def size(self) -> int:
        return self._pack.size

    @property
    def grid(self) -> int:
        return self._grid

    @property
    def fmin(self) -> float:
        return self._fmin

    @property
    def fmax(self) -> float:
        return self._fmax

    @property
    def edges(self) -> np.ndarray:
        view = self._edges.view()
        view.flags.writeable = False
        return view

    @property
    def n_inner(self) -> int:
        return self._edges.size - 1

    @property
    def n_subregions(self) -> int:
        return self.n_inner + 1

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"AnalyticTable(|C|={self.size}, M={self.n_subregions}, "
            f"fmin={self._fmin:.6g}, fmax={self._fmax:.6g})"
        )

    # ------------------------------------------------------------------
    # Matrices consumed by the verifiers
    # ------------------------------------------------------------------

    @property
    def cdf_at_edges(self) -> np.ndarray:
        view = self._cdf_matrix.view()
        view.flags.writeable = False
        return view

    @cached_property
    def s_inner(self) -> np.ndarray:
        s = np.diff(self._cdf_matrix, axis=1)
        np.clip(s, 0.0, 1.0, out=s)
        s.flags.writeable = False
        return s

    @cached_property
    def s_right(self) -> np.ndarray:
        s = 1.0 - self._cdf_matrix[:, -1]
        np.clip(s, 0.0, 1.0, out=s)
        s.flags.writeable = False
        return s

    @cached_property
    def Z(self) -> np.ndarray:
        """``Z_ij = Π_{k≠i} (1 − D_k(e_j))`` — zero-aware, as for histograms."""
        z = exclusion_products(1.0 - self._cdf_matrix)
        np.clip(z, 0.0, 1.0, out=z)
        z.flags.writeable = False
        return z

    @cached_property
    def q_lower(self) -> np.ndarray:
        """Right-edge Riemann bound: ``Z_i(e_{j+1})`` (see module docs)."""
        q = np.array(self.Z[:, 1:])
        q[self.s_inner <= 0.0] = 0.0
        q.flags.writeable = False
        return q

    @cached_property
    def q_upper(self) -> np.ndarray:
        """Left-edge Riemann bound: ``Z_i(e_j)`` (see module docs)."""
        q = np.array(self.Z[:, :-1])
        q[self.s_inner <= 0.0] = 0.0
        q.flags.writeable = False
        return q
