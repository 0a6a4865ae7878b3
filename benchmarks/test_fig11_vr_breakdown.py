"""Figure 11 bench: the three phases of VR measured in isolation.

Expected shape (paper): filtering flat in P, verification ~constant
and small, refinement shrinking to zero past P ≈ 0.3."""

import pytest

from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery
from repro.core.verifiers import default_chain


@pytest.fixture(scope="module")
def prepared(uniform_engine, bench_queries):
    """Pre-filtered candidate distributions for each query point."""
    cases = []
    for q in bench_queries:
        result = uniform_engine._filter(q)
        dists = [obj.distance_distribution(q) for obj in result.candidates]
        cases.append(dists)
    return cases


def test_filtering_phase(benchmark, uniform_engine, bench_queries):
    benchmark.group = "fig11 phases"
    benchmark(lambda: [uniform_engine._filter(q) for q in bench_queries])


def test_initialization_phase(benchmark, prepared):
    benchmark.group = "fig11 phases"
    benchmark(lambda: [SubregionTable(dists) for dists in prepared])


@pytest.mark.parametrize("threshold", [0.1, 0.5])
def test_verification_phase(benchmark, prepared, bench_queries, threshold):
    tables = [SubregionTable(dists) for dists in prepared]
    chain = default_chain()

    def verify():
        outcomes = []
        for q, table in zip(bench_queries, tables):
            states = CandidateStates(table.keys)
            outcomes.append(
                chain.run(table, states, CPNNQuery(q, threshold, 0.01))
            )
        return outcomes

    benchmark.group = "fig11 phases"
    benchmark(verify)


@pytest.mark.parametrize("threshold", [0.1, 0.5])
def test_full_vr_including_refinement(
    benchmark, uniform_engine, bench_queries, threshold
):
    benchmark.group = "fig11 phases"
    benchmark(
        lambda: [
            uniform_engine.execute(
                CPNNQuery(float(q), threshold=threshold, tolerance=0.01),
            )
            for q in bench_queries
        ]
    )
