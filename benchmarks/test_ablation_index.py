"""Ablation: R-tree vs linear-scan filtering, and the packed filter's fanout.

The R-tree's branch-and-bound visits O(log n + answer) nodes instead
of scanning all n objects; the gap widens with dataset size and is the
reason filtering stays flat in Figure 9 while Basic grows."""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, UncertainEngine
from repro.datasets.longbeach import long_beach_surrogate
from repro.datasets.queries import random_query_points
from repro.index.filtering import BatchMbrFilter

_OBJECTS = {}
_ENGINES = {}


def objects_for(n: int):
    if n not in _OBJECTS:
        _OBJECTS[n] = long_beach_surrogate(n=n)
    return _OBJECTS[n]


def engine_for(n: int, use_rtree: bool) -> UncertainEngine:
    key = (n, use_rtree)
    if key not in _ENGINES:
        _ENGINES[key] = UncertainEngine(
            objects_for(n), EngineConfig(use_rtree=use_rtree)
        )
    return _ENGINES[key]


def queries():
    rng = np.random.default_rng(20080407)
    return random_query_points(5, rng=rng)


@pytest.mark.parametrize("n", [4_000, 16_000])
@pytest.mark.parametrize("use_rtree", [True, False], ids=["rtree", "linear"])
def test_filtering_index_choice(benchmark, n, use_rtree):
    engine = engine_for(n, use_rtree)
    pts = queries()
    benchmark.group = f"ablation index |T|={n}"
    benchmark(lambda: [engine._filter(q) for q in pts])


@pytest.mark.parametrize("fanout", [4, 16, 64])
def test_rtree_fanout(benchmark, fanout):
    flt = BatchMbrFilter(objects_for(16_000), fanout)
    pts = queries()
    benchmark.group = "ablation rtree fanout"
    benchmark.name = f"fanout={fanout}"
    benchmark(lambda: [flt([q]) for q in pts])
