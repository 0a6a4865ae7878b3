"""Figure 13 — effect of the tolerance Δ on verification completeness.

Paper observation to reproduce: "as Δ increases from 0 to 0.2, more
queries are completed [by verification alone].  When Δ = 0.16, about
10 % more queries will be completed than when Δ = 0."

A query is *finished after verification* when the verifier chain
leaves no candidate unknown, so no refinement (integration) is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import CPNNQuery
from repro.experiments.report import ExperimentResult, Series
from repro.experiments.strategies import vr
from repro.experiments.workloads import DEFAULT_QUERY_SEED, cached_engine, query_points

__all__ = ["Fig13Params", "run"]


@dataclass
class Fig13Params:
    tolerances: tuple[float, ...] = (0.0, 0.04, 0.08, 0.12, 0.16, 0.20)
    #: The paper does not state Fig. 13's threshold.  At the default
    #: P = 0.3 our verifiers already finish 100% of queries with Δ = 0
    #: (see Fig. 11), leaving nothing for tolerance to improve, so the
    #: driver defaults to P = 0.1 where the Δ effect is measurable.
    threshold: float = 0.1
    n_queries: int = 40
    dataset_size: int = 53_144
    seed: int = DEFAULT_QUERY_SEED


def run(params: Fig13Params | None = None) -> ExperimentResult:
    params = params or Fig13Params()
    engine = cached_engine(params.dataset_size)
    points = query_points(params.n_queries, seed=params.seed)
    result = ExperimentResult(
        experiment_id="fig13",
        title="Effect of tolerance Δ",
        x_label="tolerance Δ",
        y_label="fraction of queries finished after verification",
        params={"n_queries": params.n_queries, "threshold": params.threshold},
    )
    finished = Series("finished_fraction")
    refine_time = Series("refinement_ms")
    for tolerance in params.tolerances:
        flags, r_times = [], []
        for q in points:
            res = vr(
                engine,
                CPNNQuery(float(q), threshold=params.threshold, tolerance=tolerance),
            )
            flags.append(1.0 if res.finished_after_verification else 0.0)
            r_times.append(res.timings.refinement)
        finished.add(tolerance, float(np.mean(flags)))
        refine_time.add(tolerance, 1e3 * float(np.mean(r_times)))
    result.series = [finished, refine_time]
    result.notes.append(
        "paper shape: completion fraction increases with Δ; Δ=0.16 "
        "completes ≈10% more queries than Δ=0"
    )
    return result
