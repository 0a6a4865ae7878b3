"""Probabilistic k-nearest-neighbour queries — the paper's future work.

Section VI lists "the evaluation of k-NN queries" as future work; this
module provides that extension on top of the same substrate:

* :func:`knn_qualification_probabilities` — the exact probability that
  each object is among the ``k`` nearest neighbours of ``q``:

      p_i(k) = ∫ d_i(r) · Pr[at most k−1 other objects closer than r] dr

  Conditioned on ``R_i = r`` the "closer" indicators are independent
  Bernoullis with success probabilities ``D_j(r)``, so the inner
  probability is a Poisson-binomial cdf
  (:mod:`repro.numerics.poisson_binomial`).  On each piece of the
  global breakpoint grid the integrand is again a polynomial — of a
  degree bounded by the objects that can be closer than ``f_min^k``,
  not by the census (:func:`_segment_rule`) — so Gauss–Legendre
  evaluates it exactly.

* :func:`knn_probability_bounds` / :func:`knn_routed_eval` — the
  RS-style verifier generalisation behind constrained
  (threshold/tolerance) k-NN queries: with ``f_min^k`` the k-th
  smallest far point, any object farther than ``f_min^k`` has at least
  ``k`` objects certainly closer, hence

      p_i(k).u ≤ D_i(f_min^k)

  which filters and fails most objects before any integration.
  Results are candidate-shaped: one record per ``f_min^k`` survivor,
  each bit-identical to the record the unfiltered scalar loop
  (:func:`repro.baselines.scalar.scalar_knn_query`) computes for that
  key; pruned objects are implied ``FAIL 0/0``.
"""

from __future__ import annotations

import time
from typing import Hashable, Sequence

import numpy as np

from repro.core.types import AnswerRecord, Label
from repro.numerics.poisson_binomial import prob_at_most_vectorized
from repro.numerics.quadrature import gauss_legendre_nodes, nodes_for_degree
from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.distance import DistanceDistribution
from repro.uncertainty.parametric.pack import MixedDistributionPack

__all__ = [
    "knn_analytic_eval",
    "knn_probability_bounds",
    "knn_qualification_probabilities",
    "knn_routed_eval",
    "kth_smallest_far",
]

#: Cap on ``|survivors| * points`` cells evaluated per exact-integration
#: chunk — bounds the transient cdf matrices regardless of grid size.
_EXACT_MAX_CELLS = 1 << 22


def kth_smallest_far(distributions: Sequence[DistanceDistribution], k: int) -> float:
    """``f_min^k`` — the k-th smallest far point of the candidate set."""
    fars = sorted(d.far for d in distributions)
    if not 1 <= k <= len(fars):
        raise ValueError("k must lie in [1, number of objects]")
    return fars[k - 1]


def knn_probability_bounds(
    distributions: Sequence[DistanceDistribution], k: int
) -> list[tuple[float, float]]:
    """Cheap algebraic bounds on ``Pr[object i among the k NNs]``.

    The RS-style pair of observations, one per side:

    * **upper** — with ``f_min^k`` the k-th smallest far point, any
      distance beyond it certainly has ≥ k objects closer, so
      ``p_i(k).u ≤ D_i(f_min^k)``;
    * **lower** — with ``n^k_{-i}`` the k-th smallest *near* point
      among the *other* objects, any distance below it can have at
      most k−1 others closer, so ``p_i(k).l ≥ D_i(n^k_{-i})``
      (evaluated just below the point; the cdf is continuous for
      histogram models, so the cdf value itself is sound).

    Both bounds cost O(|C| log |C|) total — no integration.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = len(distributions)
    if k >= n:
        return [(1.0, 1.0)] * n
    fmin_k = kth_smallest_far(distributions, k)
    nears = sorted(d.near for d in distributions)
    bounds = []
    for dist in distributions:
        upper = float(dist.cdf(fmin_k))
        # k-th smallest near point among the others: drop one instance
        # of this object's own near point from the sorted list.
        own_index = nears.index(dist.near)
        others = nears[:own_index] + nears[own_index + 1 :]
        lower_cut = others[k - 1]
        lower = float(dist.cdf(lower_cut))
        bounds.append((min(lower, upper), upper))
    return bounds


def _breakpoint_grid(
    distributions: Sequence[DistanceDistribution], lo: float, hi: float
) -> np.ndarray:
    """All pdf breakpoints of all objects inside [lo, hi]."""
    pool = [np.asarray([lo, hi])]
    for dist in distributions:
        edges = dist.breakpoints
        pool.append(edges[(edges > lo) & (edges < hi)])
    grid = np.unique(np.concatenate(pool))
    return grid[(grid >= lo) & (grid <= hi)]


def _segment_rule(nears, fmin_k: float, quadrature_margin: int):
    """Gauss–Legendre nodes/weights on [-1, 1], exact on every segment.

    Between consecutive breakpoints the k-NN integrand is ``pdf_i``
    (constant) times Pr[at most k−1 others closer], a polynomial in
    ``x`` of degree ≤ ``active − 1``, where ``active`` counts the
    objects whose near point lies below ``f_min^k``: each of their cdfs
    is linear on the segment and every other cdf is exactly 0 there.
    The order therefore follows the survivors, never the census.  The
    oracle and the routed path both come here, and the filter only
    prunes objects with ``near > f_min^k``, so both count the same
    ``active`` and use the same nodes.
    """
    active = int(np.count_nonzero(np.asarray(nears) < fmin_k))
    n_nodes = nodes_for_degree(max(active - 1, 0)) + int(quadrature_margin)
    return gauss_legendre_nodes(n_nodes)


def knn_qualification_probabilities(
    objects: Sequence,
    q,
    k: int,
    quadrature_margin: int = 1,
) -> dict[Hashable, float]:
    """Exact ``Pr[object is among the k NNs of q]`` for every object.

    ``objects`` may be ``SpatialUncertain`` objects or ready-made
    distance distributions.  Objects with zero probability (entirely
    beyond ``f_min^k``) are reported as 0.0.  ``quadrature_margin``
    adds nodes beyond the exact rule of :func:`_segment_rule`.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    distributions = [
        obj if isinstance(obj, DistanceDistribution) else obj.distance_distribution(q)
        for obj in objects
    ]
    if k >= len(distributions):
        # Every object is trivially among the k nearest.
        return {d.key: 1.0 for d in distributions}
    fmin_k = kth_smallest_far(distributions, k)
    xs_unit, ws = _segment_rule(
        [d.near for d in distributions], fmin_k, quadrature_margin
    )

    results: dict[Hashable, float] = {}
    for i, dist in enumerate(distributions):
        lo = dist.near
        hi = min(dist.far, fmin_k)
        if hi <= lo:
            results[dist.key] = 0.0
            continue
        grid = _breakpoint_grid(distributions, lo, hi)
        total = 0.0
        others = [d for j, d in enumerate(distributions) if j != i]
        for a, b in zip(grid[:-1], grid[1:]):
            if b <= a:
                continue
            half = 0.5 * (b - a)
            xs = 0.5 * (a + b) + half * xs_unit
            closer = np.vstack([np.asarray(d.cdf(xs)) for d in others])
            at_most = prob_at_most_vectorized(closer, k - 1, overwrite_input=True)
            density = np.asarray(dist.pdf(xs))
            total += half * float(ws @ (density * at_most))
        results[dist.key] = min(max(total, 0.0), 1.0)
    return results


def _routed_exact(
    pack: DistributionPack,
    distributions: Sequence[DistanceDistribution],
    needed: np.ndarray,
    k: int,
    fmin_k: float,
    quadrature_margin: int,
) -> dict[int, float]:
    """Exact ``p_i(k)`` for the survivor positions in ``needed``.

    Bit-identical replay of :func:`knn_qualification_probabilities`
    restricted to the filtered candidate set: the node set is the same
    (:func:`_segment_rule`), pruned objects contribute neither
    breakpoints (their supports lie beyond ``f_min^k``, outside every
    integration range) nor Poisson-binomial factors (their "closer"
    probability is exactly 0 at every node, an exact no-op of the
    row-sequential DP — which is also how object ``i``'s own row is
    dropped: zeroed in place, not copied out), and the per-segment
    accumulation replays the scalar loop's float operations in order.
    The survivor cdf matrix is evaluated through the
    :class:`~repro.uncertainty.columnar.DistributionPack` kernels
    instead of one ``cdf`` call per other object per segment.
    """
    xs_unit, ws = _segment_rule(pack.near, fmin_k, quadrature_margin)
    n_nodes = len(ws)
    out: dict[int, float] = {}
    per_chunk = max(1, _EXACT_MAX_CELLS // max(pack.size * n_nodes, 1))
    for i in needed:
        i = int(i)
        dist = distributions[i]
        lo = dist.near
        hi = min(dist.far, fmin_k)
        if hi <= lo:
            out[i] = 0.0
            continue
        grid = _breakpoint_grid(distributions, lo, hi)
        segments = [(a, b) for a, b in zip(grid[:-1], grid[1:]) if b > a]
        total_p = 0.0
        for start in range(0, len(segments), per_chunk):
            chunk = segments[start : start + per_chunk]
            halves = []
            xs_parts = []
            for a, b in chunk:
                half = 0.5 * (b - a)
                halves.append(half)
                xs_parts.append(0.5 * (a + b) + half * xs_unit)
            xs_all = np.concatenate(xs_parts)
            closer = pack.cdf_many(xs_all)
            closer[i] = 0.0
            at_most = prob_at_most_vectorized(closer, k - 1, overwrite_input=True)
            density = np.asarray(dist.pdf(xs_all))
            for s, half in enumerate(halves):
                sl = slice(s * n_nodes, (s + 1) * n_nodes)
                total_p += half * float(ws @ (density[sl] * at_most[sl]))
        out[i] = min(max(total_p, 0.0), 1.0)
    return out


def _rs_bounds(pack, k: int) -> tuple[float, np.ndarray, np.ndarray]:
    """``(f_min^k, lower, upper)`` — the RS-style bound pair of
    :func:`knn_probability_bounds` over a filtered candidate pack.

    ``f_min^k`` over survivors equals the all-object value (the k
    smallest far points always survive MBR filtering).  The lower cut is
    the k-th smallest *other* near point among survivors: an object
    whose own near point is among the k smallest drops it, shifting its
    cut one slot up.  When that differs from the all-object cut both
    exceed ``f_min^k``, where ``min(lower, upper)`` collapses to
    ``upper`` either way — as it does with exactly ``k`` survivors.
    """
    fmin_k = float(np.sort(pack.far)[k - 1])
    upper = np.asarray(pack.cdf_many(fmin_k), dtype=float)
    nears = pack.near
    if len(nears) < k + 1:
        return fmin_k, upper, upper
    sorted_nears = np.sort(nears)
    at_low = np.asarray(pack.cdf_many(float(sorted_nears[k - 1])), dtype=float)
    at_high = np.asarray(pack.cdf_many(float(sorted_nears[k])), dtype=float)
    first_idx = np.searchsorted(sorted_nears, nears, side="left")
    lower = np.minimum(np.where(first_idx <= k - 1, at_high, at_low), upper)
    return fmin_k, lower, upper


def _candidate_records(
    keys: Sequence[Hashable],
    lower: np.ndarray,
    upper: np.ndarray,
    threshold: float,
    exact: dict[int, float],
) -> tuple[tuple, list[AnswerRecord]]:
    """One record per candidate: the exact value where one was
    integrated, else the bound pair that decided the label."""
    answers: list[Hashable] = []
    records: list[AnswerRecord] = []
    for i, (key, lo, hi) in enumerate(zip(keys, lower.tolist(), upper.tolist())):
        p = exact.get(i)
        if p is not None:
            lo = hi = p
        label = Label.SATISFY if lo >= threshold else Label.FAIL
        records.append(AnswerRecord(key=key, label=label, lower=lo, upper=hi, exact=p))
        if label is Label.SATISFY:
            answers.append(key)
    return tuple(answers), records


def knn_analytic_eval(
    pack: MixedDistributionPack,
    keys: Sequence[Hashable],
    k: int,
    threshold: float,
) -> tuple[tuple, list[AnswerRecord]] | None:
    """Histogram-free constrained k-NN over closed-form distance laws.

    The analytic sibling of :func:`knn_routed_eval` for candidate sets
    whose every member carries a closed-form distance law, handed in
    as one
    :class:`~repro.uncertainty.parametric.pack.MixedDistributionPack`
    (the k-NN leg of the parametric fast path, DESIGN.md §15/§17):
    the RS-style bound pair (:func:`_rs_bounds`) holds for the
    **exact** distance cdfs just as it does for their histogram
    approximations, so one pack cdf sweep settles objects without
    materialising a single histogram.
    Bounds (and hence classifications) are with respect to the true
    model, like every analytic-tier answer.

    Returns ``(answers, records)`` — one record per candidate — when
    the bounds decide **every** survivor, else ``None``: the
    exact-integration tier (:func:`_routed_exact`) is certified only
    for piecewise-polynomial histogram pdfs, so undecided survivors
    fall back to the standard histogram pipeline — same records,
    histogram-certified exact values.  Deterministic either way, which
    is what the continuous tier's replay contract needs.
    """
    _, lower, upper = _rs_bounds(pack, k)
    if bool(np.any((upper >= threshold) & (lower < threshold))):
        return None
    return _candidate_records(keys, lower, upper, threshold, {})


def knn_routed_eval(
    distributions: Sequence[DistanceDistribution],
    keys: Sequence[Hashable],
    k: int,
    threshold: float,
    quadrature_margin: int = 1,
) -> tuple[tuple, list[AnswerRecord], int, float]:
    """Constrained k-NN over a *filtered* candidate set.

    ``distributions`` are the distance distributions of the objects
    surviving ``f_min^k`` MBR filtering, in insertion order, and
    ``keys`` their keys.  Returns ``(answers, records, n_exact,
    exact_seconds)`` with one record per survivor, each **bit-identical**
    to the record the unfiltered scalar path
    (:func:`repro.baselines.scalar.scalar_knn_query`) computes for that
    key; the objects the filter pruned are implied ``FAIL 0/0`` — the
    bounds the scalar path computes for them, their supports lying
    strictly beyond ``f_min^k``.  The bounds are :func:`_rs_bounds`;
    exact integrals replay :func:`knn_qualification_probabilities`'s
    float operations (see :func:`_routed_exact`).

    Requires ``len(distributions) >= k`` (guaranteed by the filter); the
    ``k >= n`` trivial case is the caller's.
    """
    pack = DistributionPack(distributions)
    fmin_k, lower, upper = _rs_bounds(pack, k)
    needed = np.flatnonzero((upper >= threshold) & (lower < threshold))
    exact: dict[int, float] = {}
    exact_seconds = 0.0
    if needed.size:
        tick = time.perf_counter()
        exact = _routed_exact(
            pack, distributions, needed, k, fmin_k, quadrature_margin
        )
        exact_seconds = time.perf_counter() - tick
    answers, records = _candidate_records(keys, lower, upper, threshold, exact)
    return answers, records, len(needed), exact_seconds
