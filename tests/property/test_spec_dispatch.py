"""Property tests: the routed façade ≡ the scalar reference paths.

The acceptance bar of the API redesign: ``execute(CKNNQuery)`` must
match :func:`scalar_knn_query`/:func:`knn_qualification_probabilities`
and ``execute(CRangeQuery)`` must match :func:`scalar_range_query`
**exactly** under :func:`repro.baselines.scalar.assert_covers` — same
answers, bit-identical records for every candidate, and only implied
``FAIL 0/0`` objects omitted — across
1-D and 2-D object mixes, and ``execute_batch`` must equal a
sequential ``execute`` loop for all three spec types (including mixed
batches).  No tolerances anywhere: the routed paths are engineered to
replay the scalar float operations.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import scalar_knn_query, scalar_range_query
from repro.baselines.scalar import assert_covers
from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.knn import knn_qualification_probabilities
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.uncertainty.twod import (
    UncertainDisk,
    UncertainRectangle,
    UncertainSegment,
)
from tests.conftest import make_random_objects


def objects_1d(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return make_random_objects(rng, n)


def objects_2d(seed: int, n: int) -> list:
    """A mixed bag of disks / segments / rectangles."""
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(n):
        cx, cy = rng.uniform(0.0, 20.0, size=2)
        kind = i % 3
        if kind == 0:
            objects.append(
                UncertainDisk(i, (cx, cy), float(rng.uniform(0.3, 2.0)))
            )
        elif kind == 1:
            dx, dy = rng.uniform(0.5, 3.0, size=2)
            objects.append(
                UncertainSegment(i, (cx, cy), (cx + dx, cy + dy), distance_bins=32)
            )
        else:
            w, h = rng.uniform(0.5, 3.0, size=2)
            objects.append(
                UncertainRectangle.from_bounds(
                    i, cx, cy, cx + w, cy + h, distance_bins=32
                )
            )
    return objects


def build(dim: str, seed: int, n: int):
    if dim == "1d":
        return objects_1d(seed, n), float(
            np.random.default_rng(seed + 1).uniform(0.0, 60.0)
        )
    objects = objects_2d(seed, n)
    q = tuple(np.random.default_rng(seed + 1).uniform(0.0, 20.0, size=2))
    return objects, q


def records_tuple(records):
    return [(r.key, r.label, r.lower, r.upper, r.exact) for r in records]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 10),
    k=st.integers(1, 12),
    threshold=st.sampled_from([0.05, 0.3, 0.5, 0.9]),
    dim=st.sampled_from(["1d", "2d"]),
)
def test_execute_cknn_matches_scalar_path(seed, n, k, threshold, dim):
    objects, q = build(dim, seed, n)
    engine = UncertainEngine(objects)
    result = engine.execute(CKNNQuery(q, threshold=threshold, k=k))
    assert_covers(result, *scalar_knn_query(objects, q, k, threshold))
    # And against the exact probabilities' thresholding (when k < n the
    # scalar engine computes them on demand; k >= n is the trivial 1.0).
    exact = knn_qualification_probabilities(objects, q, k=min(k, n))
    expected = {key for key, p in exact.items() if p >= threshold}
    assert set(result.answers) == expected


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 12),
    radius=st.sampled_from([0.5, 2.0, 8.0, 40.0]),
    threshold=st.sampled_from([0.05, 0.5, 1.0]),
    dim=st.sampled_from(["1d", "2d"]),
)
def test_execute_crange_matches_scalar_path(seed, n, radius, threshold, dim):
    objects, q = build(dim, seed, n)
    engine = UncertainEngine(objects)
    result = engine.execute(CRangeQuery(q, threshold=threshold, radius=radius))
    assert_covers(result, *scalar_range_query(objects, q, radius, threshold))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 9),
    dim=st.sampled_from(["1d", "2d"]),
    use_rtree=st.booleans(),
)
def test_execute_batch_equals_sequential_loop(seed, n, dim, use_rtree):
    objects, _ = build(dim, seed, n)
    rng = np.random.default_rng(seed + 2)
    engine = UncertainEngine(objects, EngineConfig(use_rtree=use_rtree))

    def point():
        if dim == "1d":
            return float(rng.uniform(0.0, 60.0))
        return tuple(rng.uniform(0.0, 20.0, size=2))

    specs = [
        CPNNQuery(point(), threshold=0.3, tolerance=0.0),
        CKNNQuery(point(), threshold=0.3, k=int(rng.integers(1, n + 2))),
        CRangeQuery(point(), threshold=0.5, radius=float(rng.uniform(0.5, 10.0))),
        CPNNQuery(point(), threshold=0.5, tolerance=0.01),
        CKNNQuery(point(), threshold=0.6, k=1),
    ]
    batch = engine.execute_batch(specs)
    assert len(batch) == len(specs)
    for spec, batched in zip(specs, batch):
        single = engine.execute(spec)
        assert batched.answers == single.answers, spec
        assert records_tuple(batched.records) == records_tuple(single.records), spec

