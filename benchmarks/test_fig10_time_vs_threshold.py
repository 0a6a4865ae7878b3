"""Figure 10 bench: end-to-end query time for Basic / Refine / VR
across thresholds on the uniform-pdf workload.

Expected shape (paper): VR < Refine ≤ Basic at every threshold; the
VR advantage widens with P as upper-bound verifiers fail objects
without integration."""

import pytest

from repro.core.types import CPNNQuery
from repro.experiments.strategies import STRATEGIES

THRESHOLDS = [0.1, 0.3, 0.7]


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_query_time(benchmark, uniform_engine, bench_queries, strategy, threshold):
    benchmark.group = f"fig10 P={threshold}"
    benchmark.name = strategy
    answer = STRATEGIES[strategy]
    benchmark(
        lambda: [
            answer(
                uniform_engine,
                CPNNQuery(float(q), threshold=threshold, tolerance=0.01),
            )
            for q in bench_queries
        ]
    )
