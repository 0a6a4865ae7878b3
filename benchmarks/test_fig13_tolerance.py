"""Figure 13 bench: effect of the tolerance Δ on query time.

A larger Δ lets verification finish more queries outright (paper:
Δ = 0.16 completes ~10% more queries than Δ = 0), so the end-to-end
time should (weakly) decrease with Δ.  Every query runs cold
(:func:`~repro.experiments.strategies.vr`): a benchmark round repeats
its specs, which ``execute`` would otherwise replay from the engine's
table cache."""

import pytest

from repro.core.types import CPNNQuery
from repro.experiments.strategies import vr

TOLERANCES = [0.0, 0.08, 0.16]


@pytest.mark.parametrize("tolerance", TOLERANCES)
def test_vr_time_vs_tolerance(benchmark, uniform_engine, bench_queries, tolerance):
    benchmark.group = "fig13 tolerance"
    benchmark(
        lambda: [
            vr(uniform_engine, CPNNQuery(float(q), threshold=0.3, tolerance=tolerance))
            for q in bench_queries
        ]
    )


@pytest.mark.parametrize("tolerance", [0.0, 0.16])
def test_refinement_work_shrinks_with_tolerance(
    uniform_engine, bench_queries, tolerance, benchmark
):
    """Also record how many objects still need refinement."""

    def run():
        return sum(
            vr(uniform_engine, CPNNQuery(float(q), threshold=0.3, tolerance=tolerance)).refined_objects
            for q in bench_queries
        )

    benchmark.group = "fig13 refinement load"
    total = benchmark(run)
    assert total >= 0
