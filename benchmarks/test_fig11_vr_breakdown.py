"""Figure 11 bench: the three phases of VR measured in isolation.

Expected shape (paper): filtering flat in P, verification ~constant
and small, refinement shrinking to zero past P ≈ 0.3.  Each phase times
the step the engine runs: the filter, the table built from the filter's
positions and fold columns, and the one verifier pass.  The whole
pipeline runs cold (:func:`~repro.experiments.strategies.vr`): a
benchmark round repeats its specs, which ``execute`` would otherwise
replay from the engine's table cache."""

import pytest

from repro.core.state import CandidateStates
from repro.core.types import CPNNQuery
from repro.core.verifiers import verify
from repro.experiments.strategies import vr


@pytest.fixture(scope="module")
def prepared(uniform_engine, bench_queries):
    """Each query point's spec and filter result (positions + columns)."""
    return [
        (CPNNQuery(float(q)), uniform_engine._filter(float(q))) for q in bench_queries
    ]


def build_tables(engine, prepared) -> list:
    """The engine's initialisation step: positions → subregion table."""
    tables, _ = engine._build_tables(
        [(spec.q, filtered) for spec, filtered in prepared]
    )
    return tables


def test_filtering_phase(benchmark, uniform_engine, bench_queries):
    benchmark.group = "fig11 phases"
    benchmark(lambda: [uniform_engine._filter(q) for q in bench_queries])


def test_initialization_phase(benchmark, uniform_engine, prepared):
    benchmark.group = "fig11 phases"
    benchmark(build_tables, uniform_engine, prepared)


@pytest.mark.parametrize("threshold", [0.1, 0.5])
def test_verification_phase(benchmark, uniform_engine, prepared, threshold):
    tables = build_tables(uniform_engine, prepared)

    def verify_all():
        return [
            verify(table, CandidateStates(table.keys), threshold, 0.01)
            for table in tables
        ]

    benchmark.group = "fig11 phases"
    benchmark(verify_all)


@pytest.mark.parametrize("threshold", [0.1, 0.5])
def test_full_vr_including_refinement(
    benchmark, uniform_engine, bench_queries, threshold
):
    benchmark.group = "fig11 phases"
    benchmark(
        lambda: [
            vr(uniform_engine, CPNNQuery(float(q), threshold=threshold, tolerance=0.01))
            for q in bench_queries
        ]
    )
