"""The Lower-Subregion (L-SR) verifier — Lemma 2 and the midpoint bound.

For each inner subregion ``S_j`` the *subregion qualification
probability* ``q_ij = Pr[X_i is NN | R_i ∈ S_j]`` is bounded from
below by the larger of two terms:

    q_ij.l = max( Z_i(e_j) / c_j,  Z_i(m_j) ),
    Z_i(r) = Π_{k≠i} (1 − D_k(r)),   m_j = ½ (e_j + e_{j+1})

* Lemma 2: ``Z_i(e_j)`` is Pr[no other object is already inside
  ``e_j``], and ``1/c_j`` is the exchangeability worst case of Lemma 3,
  where all ``c_j`` possible objects landed in ``S_j`` together.
* The midpoint bound.  The end-point grid holds every pdf breakpoint
  below ``f_min``, so inside ``S_j`` each factor ``1 − D_k`` is linear,
  non-negative and non-increasing.  A product of such functions is
  convex, since ``(fg)'' = f''g + 2f'g' + fg''`` and ``f'g' ≥ 0``.
  ``d_i`` is constant on ``S_j`` too, so ``q_ij`` is the mean of
  ``Z_i`` over ``S_j``, and the Hermite–Hadamard inequality gives
  ``Z_i(m_j) ≤ q_ij ≤ ½ (Z_i(e_j) + Z_i(e_{j+1}))``.  The right-hand
  side is U-SR's Equation 5.  By linearity the survival at ``m_j`` is
  the mean of the survivals at the two edges, so the term costs one
  more exclusion product over the table's own columns.

Neither term dominates.  The midpoint is far tighter when many objects
span a subregion (``1/c_j`` erases Lemma 2), and Lemma 2 can win when
few do: with three objects spread over ``S_j`` and none inside ``e_j``,
it reads 1/3 where the midpoint reads 1/4.  Aggregating with the law of
total probability (Equation 4):

    p_i.l = Σ_{j<M} s_ij · q_ij.l

Cost: O(|C|·M).  L-SR raises *lower* bounds, so it is most effective
at small thresholds where objects need to be proven to *satisfy*
(Figure 12's discussion).  The slices live in
:attr:`SubregionTable.q_lower <repro.core.subregions.SubregionTable.q_lower>`,
which the fused pass and refinement read as well.  Analytic tables keep
a Riemann lower slice instead: their smooth cells need not make ``Z_i``
convex.
"""

from __future__ import annotations

import numpy as np

from repro.core.subregions import SubregionTable
from repro.core.verifiers.base import BoundUpdate, Verifier

__all__ = ["LowerSubregionVerifier"]


class LowerSubregionVerifier(Verifier):
    """Lower-bound verifier from per-subregion exchangeability and
    convexity."""

    name = "L-SR"
    cost_rank = 1

    def compute(self, table: SubregionTable) -> BoundUpdate:
        lower = np.einsum("ij,ij->i", table.s_inner, table.q_lower)
        return BoundUpdate(lower=np.clip(lower, 0.0, 1.0))
