"""The range executor: routed constrained probabilistic range queries.

Evaluates :class:`~repro.core.types.CRangeQuery` specs through the
shared substrate against the same host protocol as the k-NN executor
(``_objects``, ``_config``, ``_ensure_batch_filter``).
Results are candidate-shaped — one record per object whose region
reaches the ball — with the answers of the scalar
:func:`repro.baselines.scalar.scalar_range_query` reference and its
records, bit for bit, for the candidates.
"""

from __future__ import annotations

import time

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

        One batched descent of the packed filter returns, per spec,
        the objects whose MBR reaches the ball with their MBR
        ``maxdist``; only straddling objects re-check exact region
        distances, and only true straddlers fold a pack from their
        filter columns and evaluate ``cdf(radius)`` through the columnar
        kernel (:func:`~repro.core.range_query.range_routed_eval`).
        """
        tick = time.perf_counter()
        flt = self._ensure_batch_filter()
        survivors = flt.range_filter(
            [spec.q for spec in specs], [spec.radius for spec in specs]
        )
        filter_seconds = time.perf_counter() - tick
        results = []
        for spec, (inside, _, inside_maxdist) in zip(specs, survivors):
            timings = PhaseTimings()
            tick = time.perf_counter()
            build_seconds = [0.0]

            def provider(objs, positions, _q=spec.q, _secs=build_seconds):
                inner = time.perf_counter()
                if self._config.parametric_fast_path and closed_form(objs):
                    # The range leg of the parametric fast path: the
                    # objects go into one mixed pack, where cdf(radius)
                    # evaluates analytically — no histograms, no
                    # per-candidate law.  Mixed candidate sets keep the
                    # histogram route (all-or-nothing, like the C-PNN
                    # fast path).
                    pack = MixedDistributionPack.from_objects(objs, _q)
                else:
                    bars = flt.columns(positions)[1:]
                    pack = DistributionPack.from_objects(objs, _q, bars)
                _secs[0] += time.perf_counter() - inner
                return pack

            answers, records, n_evaluated = range_routed_eval(
                self._objects,
                spec.q,
                spec.radius,
                spec.threshold,
                inside,
                inside_maxdist,
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
                )
            )
        return results, filter_seconds
