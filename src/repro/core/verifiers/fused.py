"""Figure 5's loop in one pass: RS on every row, then L-SR and U-SR on
the rows still unknown.

This is the engine's verification phase.  Its bounds, labels and
``unknown_after`` series equal, bit for bit, those of
:meth:`VerifierChain.run <repro.core.verifiers.chain.VerifierChain.run>`
with :func:`~repro.core.verifiers.chain.default_chain`.  The difference
is what gets computed: a labelled candidate's bound is never touched
again (Section III-B), so each verifier bounds only the rows the
classifier left UNKNOWN.  ``Z`` and the per-subregion brackets
``q_lower`` / ``q_upper`` are built for those rows alone (the column
products run over every candidate and are divided by each chosen row).
The rows still UNKNOWN after U-SR leave with their bracket rows, which
incremental refinement reads instead of the table's full matrices.

A batch verifies all its tables in one pass, :func:`verify_stacked`;
a batch of one, and the analytic path, take :func:`verify`, the same
pass over one table without the stacked bookkeeping.  Two or more
histogram tables are bracketed together, cell by cell
(:class:`~repro.core.subregions.StackedBrackets`); a lone table,
:class:`~repro.uncertainty.parametric.table.AnalyticTable` and tables
wider than the ``einsum`` buffer are bracketed table by table through
their own ``exclusion_rows`` / ``q_lower_of`` / ``q_upper_of``.  The
analytic path calls :func:`verify` again on a refined table with the
same states to escalate.  The chain and its three verifier classes stay
as the staged reference this pass is checked against.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

import numpy as np

from repro.core.classifier import classify_arrays
from repro.core.state import CandidateStates
from repro.core.subregions import StackedBrackets, SubregionTable

__all__ = ["VERIFIERS", "Verified", "verify", "verify_stacked"]

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
    threshold,
    tolerance,
    lower: np.ndarray | None = None,
    upper: np.ndarray | None = None,
) -> np.ndarray:
    """Intersect ``rows``' bounds with fresh ones, padded as
    :meth:`CandidateStates.tighten` pads them, and relabel those rows
    (``threshold`` / ``tolerance``: one per row); returns the mask of
    the ones still UNKNOWN."""
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
    lsr, bracket = _lower(table, rows)
    keep = _settle(states, rows, threshold, tolerance, lower=lsr)
    rows = rows[keep]
    unknown_after["L-SR"] = rows.size / size
    if not rows.size:
        return Verified(unknown_after, rows, None, None)
    usr, (q_lower, q_upper, at) = _upper(table, bracket, keep)
    keep = _settle(states, rows, threshold, tolerance, upper=usr)
    rows, at = rows[keep], at[keep]
    unknown_after["U-SR"] = rows.size / size
    return Verified(unknown_after, rows, q_lower[at], q_upper[at])


def verify_stacked(
    tables: list, states: CandidateStates, thresholds, tolerances
) -> list[Verified]:
    """:func:`verify` of many tables in one pass.

    ``states`` holds every table's rows, table after table, and table
    ``t`` is verified against ``thresholds[t]`` / ``tolerances[t]``.
    The classifier, RS and each verifier's relabelling run once over
    the stacked rows.  L-SR's and U-SR's brackets of two or more
    histogram tables are one pass over their cells
    (:class:`~repro.core.subregions.StackedBrackets`).  A pass holding
    another table (an analytic one, or one wider than the ``einsum``
    buffer) brackets table by table, and so does a pass left with one
    table to bracket, which the dense matrices serve in fewer numpy
    calls than the cell gathers.  Either way a column product runs
    over its own table's rows and a row sum over its own table's
    width, so every table's bounds, labels and ``Verified`` equal
    :func:`verify` of that table alone, bit for bit.
    """
    k = len(tables)
    if k == 1:
        return [verify(tables[0], states, thresholds[0], tolerances[0])]
    sizes = [table.size for table in tables]
    starts = list(accumulate(sizes, initial=0))
    if len(set(thresholds)) == 1 and len(set(tolerances)) == 1:
        constraints = (thresholds[0], tolerances[0])

        def constraints_of(rows):
            return constraints

    else:
        threshold = np.repeat(np.asarray(thresholds, dtype=float), sizes)
        tolerance = np.repeat(np.asarray(tolerances, dtype=float), sizes)

        def constraints_of(rows):
            return threshold[rows], tolerance[rows]

    def cuts(rows: np.ndarray) -> list[int]:
        """Where each table's rows begin in ``rows`` (ascending), and
        where they end."""
        return np.searchsorted(rows, starts).tolist()

    after: list[dict[str, float]] = [{} for _ in tables]

    def record(name: str, ran: list[int], rows: np.ndarray) -> tuple[list, list]:
        """Book the unknown share after ``name`` of the tables it ran
        on; returns the cuts of ``rows`` and the tables still holding
        UNKNOWN rows."""
        cut = cuts(rows)
        for t in ran:
            after[t][name] = (cut[t + 1] - cut[t]) / sizes[t]
        return cut, [t for t in ran if cut[t + 1] > cut[t]]

    def stack(values: list) -> np.ndarray:
        return values[0] if len(values) == 1 else np.concatenate(values)

    rows = np.flatnonzero(states.labels == _UNKNOWN)
    codes = classify_arrays(states.lower[rows], states.upper[rows], *constraints_of(rows))
    states.labels[rows] = codes
    rows = rows[codes == _UNKNOWN]
    live: list[int] = []
    if rows.size:
        cut = cuts(rows)
        ran = [t for t in range(k) if cut[t + 1] > cut[t]]
        s_right = stack([tables[t].s_right for t in range(k)])
        keep = _settle(states, rows, *constraints_of(rows), upper=1.0 - s_right[rows])
        rows = rows[keep]
        cut, live = record("RS", ran, rows)

    brackets: list = [None] * k
    usr_ran: list[int] = []
    if live:
        ran = live
        mine = [rows[cut[t] : cut[t + 1]] - starts[t] for t in ran]
        if len(ran) > 1 and all(_stackable(tables[t]) for t in ran):
            stacked = StackedBrackets([tables[t] for t in ran], mine)
            lsr = stacked.lower
        else:
            stacked = None
            for t, chosen in zip(ran, mine):
                brackets[t] = _lower(tables[t], chosen)
            lsr = stack([brackets[t][0] for t in ran])
        keep = _settle(states, rows, *constraints_of(rows), lower=lsr)
        rows = rows[keep]
        cut, usr_ran = record("L-SR", ran, rows)
        if usr_ran:
            if stacked is not None:
                usr = stacked.upper(keep)
            else:
                at = list(accumulate((chosen.size for chosen in mine), initial=0))
                for i, t in enumerate(ran):
                    kept = keep[at[i] : at[i + 1]]
                    if kept.any():
                        brackets[t] = _upper(tables[t], brackets[t][1], kept)
                usr = stack([brackets[t][0] for t in usr_ran])
            keep = _settle(states, rows, *constraints_of(rows), upper=usr)
            rows = rows[keep]
            cut, _ = record("U-SR", usr_ran, rows)
            if stacked is not None:
                ends = dict(zip(ran, stacked.brackets(keep)))
            else:
                ends = {}
                at = list(accumulate((brackets[t][0].size for t in usr_ran), initial=0))
                for i, t in enumerate(usr_ran):
                    q_lower, q_upper, span_at = brackets[t][1]
                    span_at = span_at[keep[at[i] : at[i + 1]]]
                    ends[t] = (q_lower[span_at], q_upper[span_at])
            for t in usr_ran:
                brackets[t] = ends[t]
    if not rows.size:
        cut = [0] * (k + 1)

    usr_set = set(usr_ran)
    return [
        Verified(
            after[t],
            rows[cut[t] : cut[t + 1]] - starts[t],
            *(brackets[t] if t in usr_set else (None, None)),
        )
        for t in range(k)
    ]


def _stackable(table) -> bool:
    """Whether :class:`StackedBrackets` may bound ``table``'s rows: a
    histogram table narrow enough for slice-wise row sums."""
    return isinstance(table, SubregionTable) and table.n_inner <= _EINSUM_BUFFER


def _lower(table, rows: np.ndarray) -> tuple[np.ndarray, tuple]:
    """L-SR's bounds of ``rows`` of ``table`` and what U-SR reuses.

    ``Z``, ``s`` and ``q_lower`` are built for the rows L-SR bounds
    (the "span"), or for every row of a table too wide to sum a slice;
    ``at`` picks the bounded rows out of the span's arrays.
    """
    wide = table.n_inner > _EINSUM_BUFFER
    span = np.arange(table.size) if wide else rows
    at = rows if wide else np.arange(rows.size)
    s = table.inner_rows(span)
    z = table.exclusion_rows(span)
    q_lower = table.q_lower_of(z, s, span)
    lsr = np.clip(np.einsum("ij,ij->i", s, q_lower), 0.0, 1.0)
    return lsr[at], (wide, s, z, q_lower, at)


def _upper(table, bracket: tuple, keep: np.ndarray) -> tuple[np.ndarray, tuple]:
    """U-SR's bounds of the rows L-SR left UNKNOWN (``keep``), and
    their ``q_lower`` / ``q_upper`` span with the rows' places in it."""
    wide, s, z, q_lower, at = bracket
    at = at[keep]
    if not wide:
        s, z, q_lower = s[at], z[at], q_lower[at]
        at = np.arange(at.size)
    q_upper = table.q_upper_of(z, s)
    usr = np.clip(np.einsum("ij,ij->i", s, q_upper), 0.0, 1.0)
    return usr[at], (q_lower, q_upper, at)
