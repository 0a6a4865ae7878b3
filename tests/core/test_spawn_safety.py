"""Spawn-safety: everything that crosses the worker pipe must pickle.

The process executor serializes query specs, work items, store
descriptors, and result containers across a spawn boundary.  These
round-trips are load-bearing: a type that silently stops pickling
(say, by growing a lambda-valued field) would take the process backend
down with an opaque error, so each one is pinned here, cheaply, without
spawning anything.
"""

import pickle

import numpy as np
import pytest

from repro.core.batch import BatchResult
from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.engine.executors.base import PnnItem
from repro.core.types import (
    CKNNQuery,
    CPNNQuery,
    CRangeQuery,
    QueryResult,
)
from repro.storage import ColumnField, StoreDescriptor
from repro.uncertainty.parametric import (
    GaussianMixtureDistance,
    GpsEllipseDistance,
    TruncatedGaussianDistance,
    UniformDiskDistance,
)
from repro.uncertainty.pdfs import TruncatedGaussianPdf
from tests.conftest import make_random_objects


def round_trip(value):
    return pickle.loads(pickle.dumps(value))


class TestSpecPickling:
    @pytest.mark.parametrize(
        "spec",
        [
            CPNNQuery(3.5, threshold=0.4, tolerance=0.02),
            CPNNQuery((1.0, 2.0), threshold=0.3, tolerance=0.0),
            CKNNQuery(7.0, threshold=0.5, k=3),
            CRangeQuery((4.0, 9.0), threshold=0.6, radius=2.5, tolerance=0.01),
        ],
    )
    def test_specs_round_trip_equal(self, spec):
        twin = round_trip(spec)
        assert type(twin) is type(spec)
        assert twin == spec

    def test_default_config_round_trips(self):
        config = round_trip(EngineConfig(executor="process", process_min_batch=4))
        assert config.executor == "process"
        assert config.process_min_batch == 4
        assert config == EngineConfig(executor="process", process_min_batch=4)


class TestWorkItemPickling:
    def test_pnn_item(self):
        specs = (CPNNQuery(1.0, threshold=0.3), CPNNQuery(2.0, threshold=0.4))
        item = PnnItem(lane=1, indices=(0, 5), specs=specs)
        twin = round_trip(item)
        assert (twin.lane, twin.indices) == (1, (0, 5))
        assert twin.specs == specs


class TestDescriptorPickling:
    def test_descriptor_round_trips(self):
        desc = StoreDescriptor(
            backend="shm",
            location="repro_shm_test",
            nbytes=256,
            fields=(
                ColumnField(name="lows", dtype="<f8", shape=(4, 2), offset=0),
                ColumnField(name="highs", dtype="<f8", shape=(4, 2), offset=64),
            ),
        )
        twin = round_trip(desc)
        assert twin == desc
        assert twin.field("highs").offset == 64


class TestParametricPickling:
    @pytest.mark.parametrize(
        "dist",
        [
            TruncatedGaussianDistance(5.0, 2.0, 8.0, key="g"),
            GaussianMixtureDistance(
                4.0,
                [
                    TruncatedGaussianPdf(0.0, 3.0, bars=16),
                    TruncatedGaussianPdf(5.0, 9.0, bars=16),
                ],
                key="m",
            ),
            UniformDiskDistance((0.0, 0.0), (3.0, 4.0), 2.0, key="d"),
            GpsEllipseDistance(
                (0.0, 0.0), (6.0, 2.0), 2.0, 0.8, angle=0.6, k=3.0, key="e"
            ),
        ],
        ids=lambda d: str(d.key),
    )
    def test_parametric_distances_round_trip(self, dist):
        twin = round_trip(dist)
        assert type(twin) is type(dist)
        assert (twin.key, twin.family) == (dist.key, dist.family)
        xs = np.linspace(dist.near, dist.far, 25)
        np.testing.assert_array_equal(twin.cdf(xs), dist.cdf(xs))


class TestResultPickling:
    def test_query_and_batch_results_round_trip(self, rng):
        objects = make_random_objects(rng, 18)
        engine = UncertainEngine(objects)
        specs = [
            CPNNQuery(11.0, threshold=0.3, tolerance=0.01),
            CKNNQuery(30.0, threshold=0.4, k=2),
            CRangeQuery(47.0, threshold=0.5, radius=6.0),
        ]
        batch = engine.execute_batch(specs)
        twin = round_trip(batch)
        assert isinstance(twin, BatchResult)
        assert len(twin.results) == len(batch.results)
        for a, b in zip(twin.results, batch.results):
            assert isinstance(a, QueryResult)
            assert a.answers == b.answers
            assert a.fmin == b.fmin
            assert a.spec == b.spec
            for x, y in zip(a.records, b.records):
                assert (x.key, x.label, x.lower, x.upper, x.exact) == (
                    y.key,
                    y.label,
                    y.lower,
                    y.upper,
                    y.exact,
                )
