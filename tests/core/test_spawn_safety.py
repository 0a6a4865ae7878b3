"""Spawn-safety: everything that crosses the worker pipe must pickle.

The process executor serializes query specs, work items, store
descriptors, uncertain objects, and result containers across a spawn
boundary.  These round-trips are load-bearing: a type that silently
stops pickling (say, by growing a lambda-valued field) would take the
process backend down with an opaque error, so each one is pinned here,
cheaply, without spawning anything — except the last class, which
ships a ``replace`` through a live pool's mutation log.
"""

import pickle

import numpy as np
import pytest

from repro.core.batch import BatchResult
from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.engine.executors.base import PnnItem
from repro.core.types import (
    CKNNQuery,
    CPNNQuery,
    CRangeQuery,
    QueryResult,
)
from repro.datasets.longbeach import long_beach_surrogate
from repro.storage import ColumnField, StoreDescriptor
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric import (
    GaussianMixtureDistance,
    GaussianMixtureObject,
    GaussianObject,
    GpsEllipseDistance,
    TruncatedGaussianDistance,
    UniformDiskDistance,
)
from repro.uncertainty.pdfs import TruncatedGaussianPdf
from tests.conftest import make_random_objects
from tests.core.test_sharded import assert_batches_identical


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


def histogram_bytes(obj):
    histogram = obj.histogram
    return [
        a.tobytes()
        for a in (histogram._edges, histogram._densities, histogram._cdf_knots)
    ]


#: Every 1-D family: (object factory, whether its histogram is lazy).
ONE_D_FAMILIES = {
    "uniform": (lambda: UncertainObject.uniform("u", 1.0, 4.5), False),
    "gaussian": (
        lambda: UncertainObject.gaussian("g", -2.0, 3.0, mean=0.7, sigma=0.4),
        False,
    ),
    "histogram": (
        lambda: UncertainObject.from_histogram(
            "h", Histogram.from_masses([0.0, 1.0, 3.0, 4.0], [0.2, 0.5, 0.3])
        ),
        False,
    ),
    "gaussian_object": (lambda: GaussianObject("p", 0.0, 6.0, bars=64), True),
    "mixture_object": (
        lambda: GaussianMixtureObject(
            "m",
            [
                TruncatedGaussianPdf(0.0, 3.0, bars=16),
                TruncatedGaussianPdf(5.0, 9.0, bars=16),
            ],
            [0.4, 0.6],
        ),
        True,
    ),
}


class TestObjectPickling:
    """Objects travel as key and pdf; the histogram is rebuilt from the
    pdf by the method construction runs, and the MBR on demand."""

    @pytest.mark.parametrize("family", sorted(ONE_D_FAMILIES))
    def test_round_trip_is_bit_identical(self, family):
        make, lazy = ONE_D_FAMILIES[family]
        obj = make()
        want = histogram_bytes(obj)
        mbr = obj.mbr
        twin = round_trip(obj)
        assert type(twin) is type(obj)
        assert twin.key == obj.key
        assert twin._mbr is None
        assert (twin._histogram is None) is lazy
        assert histogram_bytes(twin) == want
        assert twin.mbr == mbr

    @pytest.mark.parametrize("family", sorted(ONE_D_FAMILIES))
    def test_derived_state_does_not_travel(self, family):
        obj = ONE_D_FAMILIES[family][0]()
        obj.histogram, obj.mbr  # fill both derived slots
        state = obj.__getstate__()
        assert state["_histogram"] is None and state["_mbr"] is None
        assert state["_pdf"] is obj.pdf

    @pytest.mark.parametrize("family", ["uniform", "gaussian", "gaussian_object"])
    def test_parametric_pdfs_pickle_without_arrays(self, family):
        obj = ONE_D_FAMILIES[family][0]()
        obj.histogram, obj.mbr  # fill both derived slots
        assert b"numpy" not in pickle.dumps(obj)

    def test_corpus_pickle_size_guard(self):
        # bench/'s pnn_verify corpus after engine build: the process
        # executor's attach message carries exactly this list.
        objects = long_beach_surrogate(n=20_000, mean_length=42.0, seed=7)
        UncertainEngine(objects)
        assert len(pickle.dumps(objects)) < 1_500_000


class TestMutationLogShipsObjects:
    def test_replace_on_a_process_lane_matches_single_engine(self, rng):
        objects = make_random_objects(rng, 30)
        config = EngineConfig(executor="process", process_min_batch=0)
        sharded = ShardedEngine(objects, config, n_shards=2)
        single = UncertainEngine(objects, config)
        specs = [
            CPNNQuery(float(q), threshold=0.3, tolerance=0.01)
            for q in np.linspace(3.0, 57.0, 10)
        ]
        try:
            # Attach first, so the replacements travel in the log.
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )
            assert sharded.stats()["executor"]["backend"] == "process"
            replacements = [
                UncertainObject.uniform(objects[3].key, 20.0, 31.0),
                UncertainObject.gaussian(objects[7].key, 25.0, 34.0, mean=27.0),
                GaussianObject(objects[11].key, 18.0, 26.0, bars=48),
                UncertainObject.from_histogram(
                    objects[14].key,
                    Histogram.from_masses([30.0, 32.0, 35.0], [0.7, 0.3]),
                ),
            ]
            for engine in (sharded, single):
                for obj in replacements:
                    engine.replace(obj.key, obj)
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )
        finally:
            sharded.close()
