"""Bench: the dimension-agnostic pipeline on 2-D workloads.

Section IV-A's extension claim in practice: the same engine runs over
disks/segments/rectangles once their distance cdfs are built.  2-D
distance-cdf construction is the dominant initialisation cost here
(geometric integration instead of a histogram fold)."""

import numpy as np
import pytest

from repro.core.engine import UncertainEngine
from repro.core.types import CPNNQuery
from repro.datasets.planar import planar_disks, planar_mixed_objects
from repro.experiments.strategies import STRATEGIES

_ENGINES = {}


def engine_for(kind: str) -> UncertainEngine:
    if kind not in _ENGINES:
        rng = np.random.default_rng(11)
        if kind == "disks":
            objects = planar_disks(2_000, rng=rng)
        else:
            objects = planar_mixed_objects(2_000, rng=rng)
        _ENGINES[kind] = UncertainEngine(objects)
    return _ENGINES[kind]


def queries():
    rng = np.random.default_rng(13)
    return [tuple(q) for q in rng.uniform(0, 1000, (3, 2))]


@pytest.mark.parametrize("kind", ["disks", "mixed"])
@pytest.mark.parametrize("strategy", ["basic", "vr"])
def test_2d_query(benchmark, kind, strategy):
    engine = engine_for(kind)
    pts = queries()
    benchmark.group = f"2d pipeline ({kind})"
    benchmark.name = strategy
    answer = STRATEGIES[strategy]
    benchmark(
        lambda: [
            answer(engine, CPNNQuery(tuple(q), threshold=0.3, tolerance=0.01))
            for q in pts
        ]
    )


def test_2d_filtering(benchmark):
    engine = engine_for("disks")
    pts = queries()
    benchmark.group = "2d pipeline (disks)"
    benchmark.name = "filtering-only"
    benchmark(lambda: [engine._filter(q) for q in pts])
