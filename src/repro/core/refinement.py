"""Refinement: exact qualification probabilities, whole or incremental.

The exact probability of object ``i`` being the nearest neighbour is

    p_i = ∫ d_i(r) · Π_{k≠i} (1 − D_k(r)) dr                      ([5])

Because every pdf is piecewise-constant, every cdf piecewise-linear,
and the subregion grid contains all their breakpoints below ``f_min``,
the integrand is a polynomial of degree ≤ |C| − 1 inside each inner
subregion (and identically zero beyond ``f_min``, where the object
achieving ``f_min`` has survival 0).  Gauss–Legendre with
``⌈|C|/2⌉ (+ margin)`` nodes per subregion therefore evaluates each
piece *exactly* — see :mod:`repro.numerics.quadrature`.

The work per subregion factors: evaluating the exclusion products
``Π_{k≠i}(1 − D_k(x))`` at the subregion's quadrature nodes costs
O(|C|·nodes) and serves *every* object at once, because

    p_ij = s_ij · ½ · Σ_n w_n Π_{k≠i}(1 − D_k(x_n))

(the ``s_ij/width`` density times the half-width cancels the width).
The refiner therefore caches one weighted-exclusion vector per
subregion, so

* :meth:`Refiner.exact_all` — the **Basic** method of Section V —
  materialises all of them (cost O(|C|² · M), Table III's bound), and
* :meth:`Refiner.refine_object` — **incremental refinement**
  (Section IV-D) — materialises only the subregions it visits,
  collapsing each visited subregion's bound slice
  ``[s_ij·q_ij.l, s_ij·q_ij.u]`` to the exact ``p_ij`` and re-running
  the classifier, stopping as soon as the object is labelled.  The
  slice bounds come from the verifiers when available ("the knowledge
  accumulated by the verifiers ... can facilitate the refinement
  process"), or are the vacuous ``[0, s_ij]`` for the *Refine*
  strategy that skips verification.

Columnar substrate
------------------
Survival at the quadrature nodes is read off the subregion table, not
re-evaluated: the end-point grid contains every pdf breakpoint below
``f_min``, so each ``D_k`` is *linear* inside an inner subregion and at
the Gauss–Legendre node ``x_jn = e_j + t_n·(e_{j+1} − e_j)``,
``t_n = (1 + ξ_n)/2``,

    1 − D_k(x_jn) = 1 − (cdf_at_edges[k, j] + s_inner[k, j] · t_n)

— one broadcast over ``(|C|, chunk, nodes)`` with no
:class:`~repro.uncertainty.columnar.DistributionPack` call, no knot
search and no dependence on subregion widths (a small table's lazy
pack is never built for refinement).  The exclusion products over
that block are one column product divided by each row, with an exact
branch for zero factors
(:func:`~repro.numerics.poisson_binomial.exclusion_products`, the same
kernel as the tables' ``Z``).  The weighted-exclusion vectors live in
a lazily materialised dense ``(|C|, M−1)`` matrix guarded by a
filled-column mask.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery
from repro.numerics.poisson_binomial import exclusion_products
from repro.numerics.quadrature import gauss_legendre_nodes, nodes_for_degree

__all__ = ["Refiner"]

#: Subregions per chunk in vectorised evaluation, and per block of
#: :meth:`Refiner.refine_object`'s scan; bounds peak memory at roughly
#: ``|C| * chunk * nodes`` floats.
_CHUNK = 64

_UNKNOWN, _SATISFY, _FAIL = 0, 1, 2


class Refiner:
    """Exact integration services bound to one subregion table."""

    def __init__(
        self,
        table: SubregionTable,
        quadrature_margin: int = 1,
        order: str = "widest",
    ) -> None:
        if order not in ("widest", "left"):
            raise ValueError("order must be 'widest' or 'left'")
        self._table = table
        degree = max(table.size - 1, 1)
        self._nodes = nodes_for_degree(degree) + int(quadrature_margin)
        self._order = order
        #: Dense (|C|, M−1) matrix of weighted exclusion sums
        #: ``W[i, j] = Σ_n w_n Π_{k≠i}(1−D_k(x_jn))``, materialised
        #: lazily; ``_filled[j]`` marks the columns computed so far.
        self._weighted: np.ndarray | None = None
        self._filled: np.ndarray | None = None
        #: Object-subregion integrals consumed (diagnostics).
        self.integrations = 0
        #: Distinct subregions whose quadrature was evaluated.
        self.subregions_evaluated = 0

    @property
    def table(self) -> SubregionTable:
        return self._table

    @property
    def nodes_per_subregion(self) -> int:
        return self._nodes

    # ------------------------------------------------------------------
    # Shared quadrature cache
    # ------------------------------------------------------------------

    def _node_survival(self, chunk: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``1 − D_k`` at the nodes of subregions ``chunk``, ``(|C|, chunk, nodes)``.

        ``t`` holds the node positions as fractions of a subregion.
        Each ``D_k`` is linear there, so its value is the cdf at the
        left edge plus that fraction of the subregion's mass.  A result
        one ulp below zero is as good as zero to the caller.
        """
        table = self._table
        cdf = table.s_inner[:, chunk, None] * t
        cdf += table.cdf_at_edges[:, chunk, None]
        return np.subtract(1.0, cdf, out=cdf)

    def _weighted_matrix(self) -> np.ndarray:
        """The dense weighted-exclusion matrix (allocated on first use)."""
        if self._weighted is None:
            table = self._table
            self._weighted = np.zeros((table.size, table.n_inner))
            self._filled = np.zeros(table.n_inner, dtype=bool)
        return self._weighted

    def _ensure_weighted_excl(self, js: np.ndarray) -> None:
        """Materialise weighted-exclusion columns for the distinct
        subregion indices ``js``."""
        weighted_matrix = self._weighted_matrix()
        missing = js[~self._filled[js]]
        if missing.size == 0:
            return
        xs_unit, ws = gauss_legendre_nodes(self._nodes)
        t = 0.5 * (1.0 + xs_unit)
        for start in range(0, missing.size, _CHUNK):
            chunk = missing[start : start + _CHUNK]
            excl = exclusion_products(self._node_survival(chunk, t))
            # (objects, chunk): weighted node sums per subregion.
            weighted_matrix[:, chunk] = np.einsum("imn,n->im", excl, ws)
            self._filled[chunk] = True
            self.subregions_evaluated += int(chunk.size)

    # ------------------------------------------------------------------
    # Exact probabilities
    # ------------------------------------------------------------------

    def exact_subregion_probability(self, i: int, j: int) -> float:
        """``p_ij = ∫_{S_j} d_i(r) Π_{k≠i}(1 − D_k(r)) dr`` exactly."""
        s_ij = float(self._table.s_inner[i, j])
        if s_ij <= 0.0:
            return 0.0
        self._ensure_weighted_excl(np.asarray([j]))
        self.integrations += 1
        return 0.5 * s_ij * float(self._weighted[i, j])

    def exact_probability(self, i: int) -> float:
        """The full qualification probability of candidate ``i``.

        A masked dot product over the weighted-exclusion matrix — one
        vectorised accumulation instead of a Python loop over
        subregions, clamped to [0, 1] exactly as before.
        """
        table = self._table
        s_row = np.asarray(table.s_inner[i], dtype=float)
        js = np.flatnonzero(s_row > 0.0)
        self._ensure_weighted_excl(js)
        self.integrations += int(js.size)
        if js.size == 0:
            return 0.0
        total = 0.5 * float(np.dot(s_row[js], self._weighted[i, js]))
        return min(max(total, 0.0), 1.0)

    def exact_all(self) -> np.ndarray:
        """Exact probabilities of *all* candidates (the Basic method)."""
        table = self._table
        all_js = np.arange(table.n_inner)
        self._ensure_weighted_excl(all_js)
        result = 0.5 * np.einsum(
            "ij,ij->i", table.s_inner, self._weighted_matrix()
        )
        self.integrations += table.size * table.n_inner
        return np.clip(result, 0.0, 1.0)

    # ------------------------------------------------------------------
    # Incremental refinement (Section IV-D)
    # ------------------------------------------------------------------

    def refine_object(
        self,
        i: int,
        states: CandidateStates,
        query: CPNNQuery,
        use_verifier_slices: bool = True,
    ) -> int:
        """Refine candidate ``i`` until classified; returns the number
        of subregions that had to be integrated.

        ``use_verifier_slices=False`` reproduces the *Refine* strategy
        of Section V, which runs incremental refinement without any
        verifier knowledge (every slice starts at ``[0, s_ij]``).

        Bounds are updated and the classifier re-run after every single
        subregion, as Section IV-D prescribes, by a prefix scan over each
        warmed block of ``_CHUNK`` subregions: ``cumsum`` seeded with the
        running sums (so additions happen in visiting order), ``maximum``
        / ``minimum.accumulate`` for the running bounds, and the first
        decided subregion by ``flatnonzero`` — a per-subregion loop's
        labels, bounds and count, bit for bit.
        """
        table = self._table
        s = np.asarray(table.s_inner[i], dtype=float)
        if use_verifier_slices:
            lo = s * table.q_lower[i]
            up = s * table.q_upper[i]
        else:
            lo, up = np.zeros_like(s), s
        cur_lo, cur_up = float(lo.sum()), float(up.sum())
        pad = states.pad

        relevant = np.flatnonzero((s > 0.0) | (up > lo))
        if self._order == "widest":
            relevant = relevant[np.argsort(-(up - lo)[relevant], kind="stable")]

        # Track the running bound in plain floats; the state arrays are
        # only touched once, when the object's label is decided.
        best_lo, best_up = float(states.lower[i]), float(states.upper[i])
        threshold, tolerance = query.threshold, query.tolerance

        integrated = 0
        label = _UNKNOWN
        for start in range(0, relevant.size, _CHUNK):
            block = relevant[start : start + _CHUNK]
            self._ensure_weighted_excl(block)
            p = 0.5 * s[block] * self._weighted[i, block]
            sum_lo = np.cumsum(np.concatenate(([cur_lo], p - lo[block])))[1:]
            sum_up = np.cumsum(np.concatenate(([cur_up], p - up[block])))[1:]
            run_lo = np.maximum.accumulate(
                np.maximum(np.clip(sum_lo - pad, 0.0, 1.0), best_lo)
            )
            run_up = np.minimum.accumulate(
                np.minimum(np.clip(sum_up + pad, 0.0, 1.0), best_up)
            )
            decided = np.flatnonzero(
                (run_up < threshold) | (run_lo >= threshold)
                | (run_up - run_lo <= tolerance) | (run_lo > run_up)
            )
            k = int(decided[0]) if decided.size else block.size - 1
            integrated += k + 1
            cur_lo, cur_up = float(sum_lo[k]), float(sum_up[k])
            best_lo, best_up = float(run_lo[k]), float(run_up[k])
            if decided.size:
                if best_lo > best_up:
                    best_lo = best_up = 0.5 * (best_lo + best_up)
                # A collapsed bound has width 0 ≤ Δ, so it always decides.
                label = _FAIL if best_up < threshold else _SATISFY
                break
        self.integrations += integrated
        if label == _UNKNOWN:
            # Every subregion is exact now: collapse to the exact value.
            exact = min(max(cur_lo, 0.0), 1.0)
            best_lo = min(max(exact - pad, 0.0), 1.0)
            best_up = min(max(exact + pad, 0.0), 1.0)
            # Width is ~2·pad ≤ any admissible tolerance except Δ=0 with
            # the bound exactly at threshold; break the tie with the
            # exact value, as computing further cannot help.
            label = _SATISFY if exact >= threshold else _FAIL
        states.lower[i] = best_lo
        states.upper[i] = best_up
        states.labels[i] = label
        return integrated
