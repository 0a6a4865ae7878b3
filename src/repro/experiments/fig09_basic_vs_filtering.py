"""Figure 9 — cost of the Basic method vs filtering as |T| grows.

The paper: "As the total table size |T| increases, the time spent on
the Basic solution increases more than filtering, and so its running
time starts to dominate the filtering time when the data set size is
larger than 5000."

We sweep the surrogate dataset size, answer queries with the Basic
reference (:func:`repro.experiments.strategies.basic`), and report the average filtering and probability-evaluation
times plus Basic's share of the total — the quantity the figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import CPNNQuery
from repro.experiments.report import ExperimentResult, Series
from repro.experiments.strategies import basic as basic_query
from repro.experiments.workloads import DEFAULT_QUERY_SEED, cached_engine, query_points

__all__ = ["Fig09Params", "run"]


@dataclass
class Fig09Params:
    sizes: tuple[int, ...] = (1000, 2000, 5000, 10000, 20000, 40000)
    n_queries: int = 10
    seed: int = DEFAULT_QUERY_SEED
    #: Keep interval lengths fixed across sizes so that overlap (and
    #: hence candidate-set size) grows with density, as in real data.
    mean_length: float = 16.0


def run(params: Fig09Params | None = None) -> ExperimentResult:
    params = params or Fig09Params()
    result = ExperimentResult(
        experiment_id="fig9",
        title="Basic vs. Filtering",
        x_label="total set size |T|",
        y_label="avg time per query (ms)",
        params={"n_queries": params.n_queries},
    )
    filtering = Series("filtering_ms")
    basic = Series("basic_ms")
    share = Series("basic_share_%")
    candidates = Series("avg_candidates")
    for n in params.sizes:
        engine = cached_engine(n, mean_length=params.mean_length)
        filter_times, basic_times, cand_sizes = [], [], []
        for q in query_points(params.n_queries, seed=params.seed):
            res = basic_query(
                engine, CPNNQuery(float(q), threshold=0.3, tolerance=0.0)
            )
            filter_times.append(res.timings.filtering)
            basic_times.append(res.timings.refinement)
            cand_sizes.append(len(res.records))
        f_ms = 1e3 * float(np.mean(filter_times))
        b_ms = 1e3 * float(np.mean(basic_times))
        filtering.add(n, f_ms)
        basic.add(n, b_ms)
        share.add(n, 100.0 * b_ms / (f_ms + b_ms))
        candidates.add(n, float(np.mean(cand_sizes)))
    result.series = [filtering, basic, share, candidates]
    result.notes.append(
        "paper shape: Basic grows faster than filtering and dominates "
        "total time beyond |T| ≈ 5000"
    )
    return result
