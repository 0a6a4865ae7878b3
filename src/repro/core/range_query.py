"""Constrained probabilistic range queries.

The paper's related work (Section II) points at probabilistic *range*
queries ([16], Tao et al.) as the sibling problem to PNN.  On the
attribute-uncertainty model they are much easier than PNN because
objects do not interact: the probability that object ``i`` lies within
distance ``r`` of the query point is simply its distance cdf,

    Pr[|X_i − q| ≤ r] = D_i(r)

This module answers the *constrained* variant with the same
filter-then-verify philosophy as the C-PNN engine:

1. **MBR verification** (no pdf access): ``maxdist(q) ≤ r`` proves
   probability 1, ``mindist(q) > r`` proves probability 0;
2. **exact evaluation** of ``D_i(r)`` only for objects whose bounding
   box straddles the range.

The paper's economy (Section III) is that after filtering every cost
follows the candidate set, never the dataset, and
:func:`range_routed_eval` keeps to it: past the one vectorised MBR
sweep its loops, its kernel call and its records run over the objects
whose region reaches the ball.  Objects proved outside get no record —
they are implied ``FAIL 0/0``, as they are for C-PNN.

With a threshold ``P`` and tolerance ``Δ`` the answer obeys the same
contract as the C-PNN: ``{i : D_i(r) ≥ P} ⊆ answer ⊆
{i : D_i(r) ≥ P − Δ}`` (with Δ only mattering for the MBR-decided
objects, whose bounds are 0/1 — so the answer is in fact exact).
"""

from __future__ import annotations

from typing import Callable, Hashable, Sequence

import numpy as np

from repro.core.types import AnswerRecord, Label

__all__ = ["range_probabilities", "range_routed_eval"]


def range_probabilities(
    objects: Sequence, q, radius: float
) -> dict[Hashable, float]:
    """``Pr[|X_i − q| ≤ radius]`` for every object (exact)."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    results: dict[Hashable, float] = {}
    for obj in objects:
        if obj.maxdist(q) <= radius:
            results[obj.key] = 1.0
        elif obj.mindist(q) > radius:
            results[obj.key] = 0.0
        else:
            results[obj.key] = float(obj.distance_distribution(q).cdf(radius))
    return results


def range_routed_eval(
    objects: Sequence,
    q,
    radius: float,
    threshold: float,
    mbr_mindist: np.ndarray,
    mbr_maxdist: np.ndarray,
    pack_provider: Callable[[list], object],
) -> tuple[tuple, list[AnswerRecord], int]:
    """Constrained range query over MBR-prefiltered objects.

    ``mbr_mindist`` / ``mbr_maxdist`` are one row of
    :meth:`repro.index.filtering.BatchMbrFilter.matrices` for ``q``.
    Everything after that sweep is proportional to the *candidates* —
    the objects whose region ``mindist(q) <= radius`` — never to
    ``len(objects)``.  Candidates certainly inside (MBR or region
    ``maxdist <= radius``) are decided without touching their pdfs;
    MBR-straddlers re-check their exact region distances (which 2-D
    regions may bound tighter than the MBR), and only true straddlers
    reach ``pack_provider``, which returns a columnar pack over their
    distance distributions (the engine routes histogram rows through
    its LRU cache) whose cdfs are evaluated in one kernel call.

    Returns ``(answers, records, n_evaluated)`` with one record per
    candidate, in object order.  Each is bit-identical to the record
    :func:`repro.baselines.scalar.scalar_range_query` computes for that
    key (the per-object branch structure is the scalar path's, and the
    pack cdf kernel reproduces per-object ``cdf(radius)`` bit for bit);
    the objects it omits are the ones the scalar path labels
    ``FAIL 0/0`` — implied, as for C-PNN.
    """
    inside = np.flatnonzero(mbr_mindist <= radius)
    sure_in = (mbr_maxdist[inside] <= radius).tolist()
    candidates: list = []
    probability: list[float] = []
    pending: list[int] = []  # candidate positions awaiting cdf(radius)
    for j, sure in zip(inside.tolist(), sure_in):
        obj = objects[j]
        if sure or obj.maxdist(q) <= radius:
            p = 1.0
        elif obj.mindist(q) > radius:
            continue  # the region is tighter than its MBR: not a candidate
        else:
            p = 0.0
            pending.append(len(candidates))
        candidates.append(obj)
        probability.append(p)
    if pending:
        # The provider may hand back a MixedDistributionPack (the range
        # leg of the parametric fast path): it evaluates the rows
        # analytically — the probability is the exact model's, no
        # histogram ever built — and is a drop-in replacement for the
        # all-histogram DistributionPack otherwise.
        pack = pack_provider([candidates[i] for i in pending])
        evaluated = np.asarray(pack.cdf_many(float(radius)), dtype=float)
        for i, p in zip(pending, evaluated.tolist()):
            probability[i] = p
    exact_at = set(pending)
    answers: list[Hashable] = []
    records: list[AnswerRecord] = []
    for i, (obj, p) in enumerate(zip(candidates, probability)):
        label = Label.SATISFY if p >= threshold else Label.FAIL
        records.append(
            AnswerRecord(
                key=obj.key,
                label=label,
                lower=p,
                upper=p,
                exact=p if i in exact_at else None,
            )
        )
        if label is Label.SATISFY:
            answers.append(obj.key)
    return tuple(answers), records, len(pending)
