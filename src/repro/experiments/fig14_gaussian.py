"""Figure 14 — the Gaussian-pdf workload: time vs P (log scale).

Each object's pdf is a truncated Gaussian "approximated by a 300-bar
histogram, [with] a mean at the center of its range, and a standard
deviation of 1/6 of the width of the uncertainty region".

Paper observations to reproduce:

* VR outperforms Basic and Refine at every threshold;
* the saving is *larger* than with uniform pdfs, because exact
  probability evaluation over 300-bar histograms is expensive while
  verification cost barely changes;
* at P = 1 both Refine and VR collapse to almost zero cost (at most
  one candidate can have probability 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import CPNNQuery
from repro.experiments.report import ExperimentResult, Series
from repro.experiments.strategies import STRATEGIES
from repro.experiments.workloads import DEFAULT_QUERY_SEED, cached_engine, query_points

__all__ = ["Fig14Params", "run"]


@dataclass
class Fig14Params:
    thresholds: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    tolerance: float = 0.01
    n_queries: int = 5
    dataset_size: int = 53_144
    #: Histogram bars per Gaussian; the paper uses 300.
    bars: int = 300
    #: ``'parametric'`` (default) builds closed-form Gaussian objects —
    #: VR runs on the analytic fast path with zero histogram
    #: constructions; ``'histogram'`` replays the paper-faithful eager
    #: 300-bar build (DESIGN.md §15).
    representation: str = "parametric"
    seed: int = DEFAULT_QUERY_SEED


def run(params: Fig14Params | None = None) -> ExperimentResult:
    params = params or Fig14Params()
    engine = cached_engine(
        params.dataset_size,
        pdf="gaussian",
        bars=params.bars,
        representation=params.representation,
    )
    points = query_points(params.n_queries, seed=params.seed)
    result = ExperimentResult(
        experiment_id="fig14",
        title="Gaussian pdf: time vs. P",
        x_label="threshold P",
        y_label="avg time per query (ms, log scale in the paper)",
        params={
            "n_queries": params.n_queries,
            "bars": params.bars,
            "tolerance": params.tolerance,
            "representation": params.representation,
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
    vr = result.series_by_name("vr_ms")
    basic = result.series_by_name("basic_ms")
    speedups = [b / v for b, v in zip(basic.ys, vr.ys) if v > 0]
    if speedups:
        result.notes.append(
            f"VR speed-up over Basic: min {min(speedups):.1f}x, "
            f"max {max(speedups):.1f}x (paper: larger than the uniform case)"
        )
    return result
