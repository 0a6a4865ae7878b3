"""Figure 14 bench: the Gaussian-pdf workload (300-bar histograms,
sigma = width/6).

Expected shape (paper): VR's advantage over Basic/Refine is *larger*
than in the uniform case, because exact integration over fine
histograms is expensive while verifier algebra barely changes; at
P = 1 everything is cheap."""

import pytest

from repro.core.types import CPNNQuery
from repro.experiments.strategies import STRATEGIES

THRESHOLDS = [0.3, 0.7, 1.0]


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_gaussian_query_time(
    benchmark, gaussian_engine, bench_queries, strategy, threshold
):
    benchmark.group = f"fig14 P={threshold}"
    benchmark.name = strategy
    answer = STRATEGIES[strategy]
    benchmark(
        lambda: [
            answer(
                gaussian_engine,
                CPNNQuery(float(q), threshold=threshold, tolerance=0.01),
            )
            for q in bench_queries
        ]
    )
