"""The range executor: routed constrained probabilistic range queries.

Evaluates :class:`~repro.core.types.CRangeQuery` specs through the
shared substrate against the same host protocol as the k-NN executor
(``_objects``, ``_distribution_cache``, ``_ensure_batch_filter``).
Results are candidate-shaped — one record per object whose region
reaches the ball — with the answers of the scalar
:func:`repro.baselines.scalar.scalar_range_query` reference and its
records, bit for bit, for the candidates.
"""

from __future__ import annotations

import time

from repro.core.batch import distributions_for
from repro.core.range_query import range_routed_eval
from repro.core.types import CRangeQuery, PhaseTimings, QueryResult
from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.parametric.pack import MixedDistributionPack, closed_form

__all__ = ["RangeExecutorMixin"]


class RangeExecutorMixin:
    """Routed range evaluation (single + batch share this)."""

    def _range_group(
        self, specs: list[CRangeQuery]
    ) -> tuple[list[QueryResult], float]:
        """Evaluate range specs through the shared substrate.

        One vectorised MBR distance sweep classifies every (spec,
        object) pair — the last step that sees the whole dataset; only
        straddling objects re-check exact region distances, and only
        true straddlers build distributions (LRU cache) and evaluate
        ``cdf(radius)`` through the columnar kernel
        (:func:`~repro.core.range_query.range_routed_eval`).
        """
        cache = self._distribution_cache
        tick = time.perf_counter()
        mindist, maxdist = self._ensure_batch_filter().matrices(
            [spec.q for spec in specs]
        )
        filter_seconds = time.perf_counter() - tick
        results = []
        for b, spec in enumerate(specs):
            timings = PhaseTimings()
            hits_before = cache.hits if cache is not None else 0
            misses_before = cache.misses if cache is not None else 0
            tick = time.perf_counter()
            built: list[int] = []
            build_seconds = [0.0]

            def provider(objs, _q=spec.q, _built=built, _secs=build_seconds):
                inner = time.perf_counter()
                if self._config.parametric_fast_path and closed_form(objs):
                    # The range leg of the parametric fast path: the
                    # objects go into one mixed pack, where cdf(radius)
                    # evaluates analytically — no histograms, no cache
                    # traffic, no per-candidate law.  Mixed candidate
                    # sets keep the histogram route (all-or-nothing,
                    # like the C-PNN fast path).
                    pack = MixedDistributionPack.from_objects(objs, _q)
                else:
                    pack = DistributionPack(distributions_for(objs, _q, cache))
                    _built.append(len(objs))
                _secs[0] += time.perf_counter() - inner
                return pack

            answers, records, n_evaluated = range_routed_eval(
                self._objects,
                spec.q,
                spec.radius,
                spec.threshold,
                mindist[b],
                maxdist[b],
                provider,
            )
            elapsed = time.perf_counter() - tick
            timings.initialization = build_seconds[0]
            timings.verification = elapsed - build_seconds[0]
            results.append(
                QueryResult(
                    answers=answers,
                    records=records,
                    fmin=float(spec.radius),
                    timings=timings,
                    finished_after_verification=n_evaluated == 0,
                    refined_objects=n_evaluated,
                    spec=spec,
                    cache_hits=(cache.hits - hits_before) if cache is not None else 0,
                    cache_misses=(cache.misses - misses_before)
                    if cache is not None
                    else sum(built),
                )
            )
        return results, filter_seconds
