"""Baseline PNN evaluators used for comparison and cross-validation.

* :mod:`repro.baselines.basic` — the traditional numerical-integration
  method of [5] (Cheng, Kalashnikov, Prabhakar, SIGMOD 2003), an
  implementation independent from the engine's Gauss–Legendre path;
* :mod:`repro.baselines.montecarlo` — the sampling method of [9]
  (Kriegel, Kunath, Renz, DASFAA 2007);
* :mod:`repro.baselines.scalar` — the unfiltered per-object k-NN and
  range loops the engine's routed paths are checked against, and
  ``scalar.assert_covers``, the contract of that check.
"""

from repro.baselines.basic import basic_pnn_probabilities
from repro.baselines.montecarlo import (
    monte_carlo_knn_probabilities,
    monte_carlo_pnn_probabilities,
)
from repro.baselines.scalar import scalar_knn_query, scalar_range_query

__all__ = [
    "basic_pnn_probabilities",
    "monte_carlo_knn_probabilities",
    "monte_carlo_pnn_probabilities",
    "scalar_knn_query",
    "scalar_range_query",
]
