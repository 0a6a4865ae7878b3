"""Figure 9 bench: filtering cost vs Basic evaluation cost as the
table size grows.  The paper's observation: Basic's share of the total
time dominates beyond |T| ≈ 5000."""

import numpy as np
import pytest

from repro.core.engine import UncertainEngine
from repro.core.types import CPNNQuery
from repro.datasets.longbeach import long_beach_surrogate
from repro.datasets.queries import random_query_points
from repro.experiments.strategies import basic

SIZES = [2_000, 8_000, 24_000]

_ENGINES: dict[int, UncertainEngine] = {}


def engine_for(n: int) -> UncertainEngine:
    if n not in _ENGINES:
        _ENGINES[n] = UncertainEngine(long_beach_surrogate(n=n))
    return _ENGINES[n]


def queries():
    rng = np.random.default_rng(20080407)
    return random_query_points(3, rng=rng)


@pytest.mark.parametrize("size", SIZES)
def test_filtering_phase(benchmark, size):
    engine = engine_for(size)
    pts = queries()
    benchmark.group = f"fig9 |T|={size}"
    benchmark(lambda: [engine._filter(q) for q in pts])


@pytest.mark.parametrize("size", SIZES)
def test_basic_evaluation(benchmark, size):
    engine = engine_for(size)
    pts = queries()
    benchmark.group = f"fig9 |T|={size}"
    benchmark(
        lambda: [
            basic(engine, CPNNQuery(float(q), threshold=0.3, tolerance=0.0))
            for q in pts
        ]
    )
