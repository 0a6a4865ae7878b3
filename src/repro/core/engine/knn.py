"""The k-NN executor: routed constrained probabilistic k-NN evaluation.

Evaluates :class:`~repro.core.types.CKNNQuery` specs through the
shared substrate — the host's batch MBR filter (``f_min^k`` pruning),
a pack folded from the survivors' positions and columns, and the
columnar bound/integration kernels
(:func:`repro.core.knn.knn_routed_eval`).  The host protocol is
``_objects``, ``_config`` and ``_ensure_batch_filter`` — anything that
serves those (the single
engine, and so the sharded engine built on it) gets candidate-shaped
results — one record per ``f_min^k`` survivor —
with the answers of the scalar
:func:`repro.baselines.scalar.scalar_knn_query` reference and its
records, bit for bit, for the survivors.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.knn import knn_analytic_eval, knn_routed_eval
from repro.core.types import AnswerRecords, CKNNQuery, PhaseTimings, QueryResult
from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.parametric.pack import MixedDistributionPack, closed_form

__all__ = ["KnnExecutorMixin"]

_SATISFY = 1


class KnnExecutorMixin:
    """Routed k-NN evaluation (single + batch share this)."""

    def _knn_group(
        self, specs: list[CKNNQuery]
    ) -> tuple[list[QueryResult], float]:
        """Evaluate k-NN specs through the shared substrate.

        One batched ``f_min^k`` descent of the packed filter serves
        every spec's point; each spec's pack folds from its survivors'
        filter columns (``DistributionPack.from_objects``) into the
        columnar bound/integration kernels
        (:func:`~repro.core.knn.knn_routed_eval`), which build a
        distribution only for the survivors they integrate.  Returns
        the results and the shared filtering seconds.
        """
        n = len(self._objects)
        ks = [min(spec.k, n) for spec in specs]
        nontrivial = [i for i, spec in enumerate(specs) if spec.k < n]
        filter_seconds = 0.0
        filtered: dict[int, tuple[np.ndarray, float]] = {}
        if nontrivial:
            tick = time.perf_counter()
            flt = self._ensure_batch_filter()
            swept = flt.kth_filter(
                [specs[i].q for i in nontrivial], [ks[i] for i in nontrivial]
            )
            filter_seconds = time.perf_counter() - tick
            filtered = dict(zip(nontrivial, swept))
        results = []
        for b, (spec, k) in enumerate(zip(specs, ks)):
            timings = PhaseTimings()
            if spec.k >= n:
                # Every object is trivially among the k nearest — the
                # scalar path's early return, replicated before any
                # distribution is built.  All of them are candidates,
                # so this is the one result that lists the census.
                keys = tuple(obj.key for obj in self._objects)
                ones = np.ones(len(keys))
                results.append(
                    QueryResult(
                        answers=keys,
                        records=AnswerRecords(
                            keys, np.full(len(keys), _SATISFY), ones, ones, ones
                        ),
                        fmin=float("inf"),
                        timings=timings,
                        finished_after_verification=True,
                        spec=spec,
                    )
                )
                continue
            survivors, fmin_k = filtered[b]
            candidates = [self._objects[i] for i in survivors]
            columns = flt.columns(survivors)
            keys = columns.keys
            if (
                self._config.parametric_fast_path
                and candidates
                and closed_form(candidates)
            ):
                # The k-NN leg of the parametric fast path: when every
                # survivor has a closed-form distance law, one analytic
                # cdf sweep can settle the whole spec without building
                # a single histogram.  Undecided survivors fall through
                # to the standard (histogram-certified) pipeline below;
                # the attempt stays booked either way, so the phases
                # still sum to the spec's wall.
                tick = time.perf_counter()
                pack = MixedDistributionPack.from_objects(candidates, spec.q)
                timings.initialization += time.perf_counter() - tick
                tick = time.perf_counter()
                settled = knn_analytic_eval(pack, keys, k, spec.threshold)
                timings.verification += time.perf_counter() - tick
                if settled is not None:
                    answers, records = settled
                    results.append(
                        QueryResult(
                            answers=answers,
                            records=records,
                            fmin=fmin_k,
                            timings=timings,
                            finished_after_verification=True,
                            refined_objects=0,
                            spec=spec,
                        )
                    )
                    continue
            tick = time.perf_counter()
            pack = DistributionPack.from_objects(candidates, spec.q, columns[1:])
            timings.initialization += time.perf_counter() - tick
            tick = time.perf_counter()
            answers, records, n_exact, exact_seconds = knn_routed_eval(
                pack,
                lambda i: candidates[i].distance_distribution(spec.q),
                keys,
                k,
                spec.threshold,
            )
            timings.verification += time.perf_counter() - tick - exact_seconds
            timings.refinement = exact_seconds
            results.append(
                QueryResult(
                    answers=answers,
                    records=records,
                    fmin=fmin_k,
                    timings=timings,
                    finished_after_verification=n_exact == 0,
                    refined_objects=n_exact,
                    spec=spec,
                )
            )
        return results, filter_seconds
