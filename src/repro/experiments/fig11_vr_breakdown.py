"""Figure 11 — decomposition of VR's time into filtering,
verification and refinement, across thresholds.

Paper observations to reproduce:

* filtering time is flat in P;
* verification is cheap ("only 1 ms on average");
* refinement time falls as P grows and vanishes for P > 0.3 —
  verifiers settle everything at high thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import CPNNQuery
from repro.experiments.report import ExperimentResult, Series
from repro.experiments.strategies import vr
from repro.experiments.workloads import DEFAULT_QUERY_SEED, cached_engine, query_points

__all__ = ["Fig11Params", "run"]


@dataclass
class Fig11Params:
    #: The paper's x-axis runs 0..1; P must be positive so 0 → 0.01.
    thresholds: tuple[float, ...] = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    tolerance: float = 0.01
    n_queries: int = 20
    dataset_size: int = 53_144
    seed: int = DEFAULT_QUERY_SEED


def run(params: Fig11Params | None = None) -> ExperimentResult:
    params = params or Fig11Params()
    engine = cached_engine(params.dataset_size)
    points = query_points(params.n_queries, seed=params.seed)
    result = ExperimentResult(
        experiment_id="fig11",
        title="Analysis of VR (phase breakdown)",
        x_label="threshold P",
        y_label="avg time per query (ms)",
        params={"n_queries": params.n_queries, "tolerance": params.tolerance},
    )
    filtering = Series("filtering_ms")
    verification = Series("verification_ms")
    refinement = Series("refinement_ms")
    refined_objects = Series("avg_refined_objects")
    for threshold in params.thresholds:
        f, v, r, n_ref = [], [], [], []
        for q in points:
            res = vr(
                engine,
                CPNNQuery(float(q), threshold=threshold, tolerance=params.tolerance),
            )
            f.append(res.timings.filtering)
            # The paper's three-phase accounting charges initialisation
            # (distance pdfs/cdfs + subregion table) to verification.
            v.append(res.timings.initialization + res.timings.verification)
            r.append(res.timings.refinement)
            n_ref.append(res.refined_objects)
        filtering.add(threshold, 1e3 * float(np.mean(f)))
        verification.add(threshold, 1e3 * float(np.mean(v)))
        refinement.add(threshold, 1e3 * float(np.mean(r)))
        refined_objects.add(threshold, float(np.mean(n_ref)))
    result.series = [filtering, verification, refinement, refined_objects]
    result.notes.append(
        "paper shape: filtering flat, verification ~1 ms, refinement "
        "decreasing in P and ≈0 for P > 0.3"
    )
    return result
