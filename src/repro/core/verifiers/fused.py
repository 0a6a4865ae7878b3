"""Figure 5's loop in one pass: RS on every row, then L-SR and U-SR on
the rows still unknown.

This is the engine's verification phase.  Its bounds, labels and
``unknown_after`` series equal, bit for bit, those of
:meth:`VerifierChain.run <repro.core.verifiers.chain.VerifierChain.run>`
with :func:`~repro.core.verifiers.chain.default_chain`.  The difference
is what gets computed: a labelled candidate's bound is never touched
again (Section III-B), so each verifier bounds only the rows the
classifier left UNKNOWN.  ``Z`` and the per-subregion brackets
``q_lower`` / ``q_upper`` are built for those rows alone
(:meth:`exclusion_rows` divides the column product over every
candidate by each chosen row).  The rows still UNKNOWN after U-SR leave
with their bracket rows, which incremental refinement reads instead of
the table's full matrices.

Works on :class:`~repro.core.subregions.SubregionTable` and on
:class:`~repro.uncertainty.parametric.table.AnalyticTable` alike; the
analytic path calls it again on a refined table with the same states to
escalate.  The chain and its three verifier classes stay as the staged
reference this pass is checked against.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.classifier import classify_arrays
from repro.core.state import CandidateStates

__all__ = ["VERIFIERS", "Verified", "verify"]

#: The verifiers of the pass, in the order they run (Table III's cost
#: order): Lemma 1, Lemma 2 or the midpoint bound / Equation 4,
#: Equation 5.
VERIFIERS = ("RS", "L-SR", "U-SR")

#: ``einsum`` sums the row of a one-row operand longer than its
#: 8192-element buffer in buffer-sized pieces, and a row of a taller
#: operand in one piece.  On a table that wide the L-SR / U-SR row sums
#: are taken over the whole matrix, as the chain takes them, so the
#: last bit agrees whatever number of rows is left.
_EINSUM_BUFFER = 8192

_UNKNOWN = 0


class Verified(NamedTuple):
    """What the pass leaves for refinement."""

    #: Fraction of candidates still UNKNOWN after each verifier that ran.
    unknown_after: dict[str, float]
    #: The candidates still UNKNOWN, ascending.
    rows: np.ndarray
    #: Their ``q_lower`` / ``q_upper`` rows; ``None`` when the pass
    #: ended before U-SR.
    q_lower: np.ndarray | None
    q_upper: np.ndarray | None


def _settle(
    states: CandidateStates,
    rows: np.ndarray,
    threshold: float,
    tolerance: float,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> np.ndarray:
    """Intersect ``rows``' bounds with fresh ones, padded as
    :meth:`CandidateStates.tighten` pads them, and relabel those rows;
    returns the mask of the ones still UNKNOWN."""
    pad = states.pad
    lo = states.lower[rows]
    up = states.upper[rows]
    if lower is not None:
        lo = np.maximum(lo, np.clip(lower - pad, 0.0, 1.0))
    if upper is not None:
        up = np.minimum(up, np.clip(upper + pad, 0.0, 1.0))
    crossed = lo > up
    if crossed.any():
        if np.any(lo[crossed] - up[crossed] > 1e-6):
            raise ValueError("inconsistent bounds produced by a verifier")
        lo[crossed] = up[crossed] = 0.5 * (lo[crossed] + up[crossed])
    states.lower[rows] = lo
    states.upper[rows] = up
    codes = classify_arrays(lo, up, threshold, tolerance)
    states.labels[rows] = codes
    return codes == _UNKNOWN


def verify(table, states: CandidateStates, threshold: float, tolerance: float) -> Verified:
    """Classify the UNKNOWN rows of ``states``, then bound and relabel
    them verifier by verifier until none is left or U-SR has run."""
    size = states.size
    unknown_after: dict[str, float] = {}
    rows = np.flatnonzero(states.labels == _UNKNOWN)
    codes = classify_arrays(states.lower[rows], states.upper[rows], threshold, tolerance)
    states.labels[rows] = codes
    rows = rows[codes == _UNKNOWN]
    if rows.size:
        rs = 1.0 - table.s_right[rows]
        rows = rows[_settle(states, rows, threshold, tolerance, upper=rs)]
        unknown_after["RS"] = rows.size / size
    if not rows.size:
        return Verified(unknown_after, rows, None, None)

    # L-SR: Z, s and q_lower for the rows it bounds ("span"), or for
    # every row of a table too wide to sum a slice; ``at`` picks the
    # still-UNKNOWN rows out of the span's arrays.
    wide = table.n_inner > _EINSUM_BUFFER
    span = np.arange(size) if wide else rows
    at = rows if wide else np.arange(rows.size)
    s = table.s_inner[span]
    z = table.exclusion_rows(span)
    q_lower = table.q_lower_of(z, s, span)
    lsr = np.clip(np.einsum("ij,ij->i", s, q_lower), 0.0, 1.0)
    keep = _settle(states, rows, threshold, tolerance, lower=lsr[at])
    rows, at = rows[keep], at[keep]
    unknown_after["L-SR"] = rows.size / size
    if not rows.size:
        return Verified(unknown_after, rows, None, None)

    if not wide:
        s, z, q_lower = s[at], z[at], q_lower[at]
        at = np.arange(rows.size)
    q_upper = table.q_upper_of(z, s)
    usr = np.clip(np.einsum("ij,ij->i", s, q_upper), 0.0, 1.0)
    keep = _settle(states, rows, threshold, tolerance, upper=usr[at])
    rows, at = rows[keep], at[keep]
    unknown_after["U-SR"] = rows.size / size
    return Verified(unknown_after, rows, q_lower[at], q_upper[at])
