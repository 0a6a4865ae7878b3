"""Figure 12 — fraction of objects still *unknown* after each verifier
in the chain {RS, L-SR, U-SR}, across thresholds.

Paper observations to reproduce:

* at P = 0.1 roughly 75 % of objects remain unknown after RS; L-SR
  removes ≈ 7 % more; ≈ 15 % remain after U-SR;
* RS and U-SR (upper-bound verifiers) get stronger as P grows: more
  objects can be failed outright;
* L-SR (the lower-bound verifier) helps mostly at small P, where
  objects can be proven to satisfy;
* U-SR outperforms L-SR on this workload because candidate sets are
  large (≈ 96), so individual probabilities are small and failing
  objects is easier than satisfying them.

When the chain terminates early the remaining verifiers never run; the
unknown fraction is then carried forward (it is 0 by definition).

The L-SR column is not the paper's Lemma 2 alone.  Since 14.0.0 the
engine's L-SR slice is ``max(Z_i(e_j)/c_j, Z_i(m_j))``, Lemma 2 or the
exclusion product at the subregion's midpoint (see
:mod:`repro.core.verifiers.lsr`).  Lemma 2 alone removed nothing after
RS at any P on this workload; the midpoint term is what makes L-SR's
column drop below RS's, so compare its share with the paper's ≈ 7 %
with that in mind.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import CPNNQuery
from repro.experiments.report import ExperimentResult, Series
from repro.experiments.workloads import DEFAULT_QUERY_SEED, cached_engine, query_points

__all__ = ["Fig12Params", "run"]

_VERIFIER_ORDER = ("RS", "L-SR", "U-SR")


@dataclass
class Fig12Params:
    thresholds: tuple[float, ...] = (0.10, 0.15, 0.20, 0.25, 0.30, 0.35)
    tolerance: float = 0.01
    n_queries: int = 20
    dataset_size: int = 53_144
    seed: int = DEFAULT_QUERY_SEED


def run(params: Fig12Params | None = None) -> ExperimentResult:
    params = params or Fig12Params()
    engine = cached_engine(params.dataset_size)
    points = query_points(params.n_queries, seed=params.seed)
    result = ExperimentResult(
        experiment_id="fig12",
        title="Comparison of verifiers (unknown fraction)",
        x_label="threshold P",
        y_label="fraction of candidates labelled unknown",
        params={"n_queries": params.n_queries, "tolerance": params.tolerance},
    )
    series = {name: Series(f"after_{name}") for name in _VERIFIER_ORDER}
    for threshold in params.thresholds:
        sums = {name: [] for name in _VERIFIER_ORDER}
        for q in points:
            res = engine.execute(
                CPNNQuery(float(q), threshold=threshold, tolerance=params.tolerance),
            )
            last = 1.0
            for name in _VERIFIER_ORDER:
                last = res.unknown_after_verifier.get(name, 0.0 if last == 0.0 else last)
                sums[name].append(last)
        for name in _VERIFIER_ORDER:
            series[name].add(threshold, float(np.mean(sums[name])))
    result.series = list(series.values())
    result.notes.append(
        "paper shape at P=0.1: ~0.75 after RS, L-SR removes ~0.07 more, "
        "~0.15 left after U-SR; all curves fall as P grows"
    )
    return result
