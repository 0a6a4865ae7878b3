"""Figure 10 — query response time vs threshold P for the three
evaluation strategies (Basic, Refine, VR) on the uniform-pdf workload.

Paper observations to reproduce:

* both Refine and VR beat Basic at every threshold;
* at P = 0.3, Refine ≈ 80 % and VR ≈ 16 % of Basic's cost;
* VR is consistently faster than Refine — ≈ 5× at P = 0.3 and up to
  ≈ 40× at P = 0.7 (most objects fail quickly via upper bounds).

Strategy times are end-to-end (filtering + initialisation +
verification + refinement), matching the paper's total response time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import CPNNQuery
from repro.experiments.report import ExperimentResult, Series
from repro.experiments.strategies import STRATEGIES
from repro.experiments.workloads import DEFAULT_QUERY_SEED, cached_engine, query_points

__all__ = ["Fig10Params", "run"]


@dataclass
class Fig10Params:
    thresholds: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    tolerance: float = 0.01
    n_queries: int = 20
    dataset_size: int = 53_144
    seed: int = DEFAULT_QUERY_SEED


def run(params: Fig10Params | None = None) -> ExperimentResult:
    params = params or Fig10Params()
    engine = cached_engine(params.dataset_size)
    points = query_points(params.n_queries, seed=params.seed)
    result = ExperimentResult(
        experiment_id="fig10",
        title="Time vs. P (uniform pdf)",
        x_label="threshold P",
        y_label="avg time per query (ms)",
        params={
            "n_queries": params.n_queries,
            "tolerance": params.tolerance,
            "|T|": params.dataset_size,
        },
    )
    series = {name: Series(f"{name}_ms") for name in STRATEGIES}
    for threshold in params.thresholds:
        for name, answer in STRATEGIES.items():
            times = []
            for q in points:
                res = answer(
                    engine,
                    CPNNQuery(
                        float(q), threshold=threshold, tolerance=params.tolerance
                    ),
                )
                times.append(res.timings.total)
            series[name].add(threshold, 1e3 * float(np.mean(times)))
    result.series = list(series.values())
    basic = result.series_by_name("basic_ms")
    vr = result.series_by_name("vr_ms")
    refine = result.series_by_name("refine_ms")
    idx03 = params.thresholds.index(0.3) if 0.3 in params.thresholds else None
    if idx03 is not None and basic.ys[idx03] > 0:
        result.notes.append(
            f"at P=0.3: VR/Basic = {vr.ys[idx03] / basic.ys[idx03]:.2f}, "
            f"Refine/Basic = {refine.ys[idx03] / basic.ys[idx03]:.2f} "
            "(paper: 0.16 and 0.80)"
        )
    return result
