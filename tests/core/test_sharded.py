"""Tests for the lane-parallel sharded engine (DESIGN.md §12).

Bit-identity against :class:`UncertainEngine` is the load-bearing
contract — answers, records, and bounds must match exactly for all
three spec families, mixed batches, both filter modes, 1-D and 2-D
data, and across dynamic updates.  The structural tests cover
construction, the staged filter, and the observability surface.
"""

import time

import numpy as np
import pytest

from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery, QueryPlan
from repro.experiments.strategies import STRATEGIES
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.twod import UncertainDisk
from tests.conftest import make_random_objects


def mixed_specs(points=(4.0, 19.0, 33.0, 57.0)):
    specs = []
    for q in points:
        specs.append(CPNNQuery(q, threshold=0.3, tolerance=0.0))
        specs.append(CKNNQuery(q, threshold=0.4, k=2))
        specs.append(CRangeQuery(q, threshold=0.5, radius=6.0))
    return specs


def assert_results_identical(a, b):
    assert a.answers == b.answers
    assert (a.fmin == b.fmin) or (np.isnan(a.fmin) and np.isnan(b.fmin))
    assert len(a.records) == len(b.records)
    for x, y in zip(a.records, b.records):
        assert (x.key, x.label, x.lower, x.upper, x.exact) == (
            y.key,
            y.label,
            y.lower,
            y.upper,
            y.exact,
        )


def assert_batches_identical(got, want):
    assert len(got.results) == len(want.results)
    for a, b in zip(got.results, want.results):
        assert_results_identical(a, b)


class TestBitIdentity:
    @pytest.mark.parametrize("use_rtree", [True, False])
    def test_mixed_batch_matches_single_engine(self, rng, use_rtree):
        objects = make_random_objects(rng, 36)
        config = EngineConfig(use_rtree=use_rtree)
        single = UncertainEngine(list(objects), config)
        with ShardedEngine(
            list(objects), config, n_shards=3
        ) as sharded:
            specs = mixed_specs()
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )
            # Warm replay (result snapshots, lane caches) stays exact.
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategies_match(self, rng, strategy):
        """The engine's pipeline and the Basic / Refine references read
        the same filter on both engines, so they answer alike."""
        objects = make_random_objects(rng, 20)
        single = UncertainEngine(list(objects))
        answer = STRATEGIES[strategy]
        with ShardedEngine(list(objects), n_shards=2) as sharded:
            for q in (7.0, 31.0, 52.0):
                spec = CPNNQuery(q, threshold=0.3, tolerance=0.01)
                assert_results_identical(answer(sharded, spec), answer(single, spec))

    def test_heterogeneous_constraints_match(self, rng):
        objects = make_random_objects(rng, 24)
        single = UncertainEngine(list(objects))
        with ShardedEngine(list(objects), n_shards=4) as sharded:
            specs = [
                CPNNQuery(10.0, threshold=0.2, tolerance=0.0),
                CPNNQuery(25.0, threshold=0.6, tolerance=0.05),
                CPNNQuery(40.0, threshold=0.35, tolerance=0.01),
            ]
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )

    def test_2d_disks_match(self, rng):
        objects = [
            UncertainDisk(
                i,
                (float(rng.uniform(0, 40)), float(rng.uniform(0, 40))),
                float(rng.uniform(0.5, 2.5)),
                distance_bins=24,
            )
            for i in range(18)
        ]
        single = UncertainEngine(list(objects))
        with ShardedEngine(list(objects), n_shards=2) as sharded:
            specs = [
                CPNNQuery((10.0, 12.0), threshold=0.3, tolerance=0.0),
                CKNNQuery((25.0, 30.0), threshold=0.4, k=3),
                CRangeQuery((18.0, 5.0), threshold=0.5, radius=8.0),
            ]
            assert_batches_identical(
                sharded.execute_batch(specs), single.execute_batch(specs)
            )

    def test_single_execute_routes_through_batch_path(self, rng):
        objects = make_random_objects(rng, 16)
        single = UncertainEngine(list(objects))
        with ShardedEngine(list(objects), n_shards=2) as sharded:
            for spec in mixed_specs((8.0, 44.0)):
                a = sharded.execute(spec)
                b = single.execute(spec)
                assert frozenset(a.answers) == frozenset(b.answers)
            assert sharded.pnn(30.0) == single.pnn(30.0)

    def test_empty_engine_semantics(self):
        with ShardedEngine([], n_shards=3) as sharded:
            result = sharded.execute(CPNNQuery(1.0))
            assert result.answers == ()
            batch = sharded.execute_batch(mixed_specs((1.0,)))
            assert all(r.answers == () for r in batch.results)
            with pytest.raises(ValueError):
                sharded.pnn(1.0)
            sharded.insert(UncertainObject.uniform("a", 0.0, 1.0))
            assert sharded.execute(CPNNQuery(0.5)).answers == ("a",)


class TestDynamicUpdates:
    def test_stream_matches_fresh_single_engine(self, rng):
        objects = make_random_objects(rng, 30)
        with ShardedEngine(
            list(objects), n_shards=2
        ) as sharded:
            mirror = list(objects)
            sharded.execute_batch(mixed_specs())  # warm every lane cache
            counter = 100
            for round_ in range(3):
                newcomer = UncertainObject.uniform(
                    ("new", counter), 5.0 * round_, 5.0 * round_ + 2.0
                )
                counter += 1
                sharded.insert(newcomer)
                mirror.append(newcomer)
                victim = mirror.pop(rng.integers(0, len(mirror)))
                assert sharded.remove(victim.key)
                index = int(rng.integers(0, len(mirror)))
                moved = UncertainObject.uniform(
                    mirror[index].key, 50.0 - round_, 52.0 + round_
                )
                sharded.replace(moved.key, moved)
                mirror[index] = moved
                fresh = UncertainEngine(list(mirror))
                assert_batches_identical(
                    sharded.execute_batch(mixed_specs()),
                    fresh.execute_batch(mixed_specs()),
                )

    def test_pnn_matches_linear_filter_for_2d(self, rng):
        """With use_rtree=False the single engine's pnn filters with
        exact region distances (tighter than MBRs for 2-D regions);
        the sharded pnn must return the identical key set."""
        objects = [
            UncertainDisk(
                i,
                (float(rng.uniform(0, 60)), float(rng.uniform(0, 60))),
                float(rng.uniform(0.5, 3.0)),
                distance_bins=16,
            )
            for i in range(40)
        ]
        config = EngineConfig(use_rtree=False)
        single = UncertainEngine(list(objects), config)
        with ShardedEngine(
            list(objects), config, n_shards=1
        ) as sharded:
            for q in ((70.0, 20.0), (10.0, 10.0), (33.0, 48.0)):
                assert sharded.pnn(q) == single.pnn(q)

    def test_warm_replay_skips_the_fanout_sweep(self, rng):
        """A fully snapshot-answerable batch must not pay the parent's
        filter pass it would then discard."""
        objects = make_random_objects(rng, 20)
        specs = [CPNNQuery(q, threshold=0.3, tolerance=0.0)
                 for q in (4.0, 19.0, 33.0)]
        with ShardedEngine(objects, n_shards=2) as sharded:
            cold = sharded.execute_batch(specs)

            def boom(points):
                raise AssertionError("parent filter ran on a warm batch")

            sharded._filter_batch = boom
            warm = sharded.execute_batch(specs)
            assert warm.result_hits == len(specs)
            assert [r.answers for r in warm.results] == [
                r.answers for r in cold.results
            ]

    def test_drain_and_refill(self, rng):
        objects = make_random_objects(rng, 6)
        with ShardedEngine(list(objects), n_shards=1) as sharded:
            for obj in objects:
                assert sharded.remove(obj.key)
            assert len(sharded) == 0
            assert sharded.execute(CPNNQuery(3.0)).answers == ()
            refill = make_random_objects(rng, 4)
            for obj in refill:
                sharded.insert(obj)
            fresh = UncertainEngine(list(refill))
            assert_batches_identical(
                sharded.execute_batch(mixed_specs()),
                fresh.execute_batch(mixed_specs()),
            )


class TestConstructionAndConfig:
    def test_validation(self, rng):
        objects = make_random_objects(rng, 4)
        with pytest.raises(ValueError):
            ShardedEngine(objects, n_shards=0)
        with pytest.raises(ValueError):
            ShardedEngine(objects + objects)  # duplicate keys

    def test_mixed_dimensions_rejected(self, rng):
        objects = make_random_objects(rng, 3)
        objects.append(UncertainDisk("d", (1.0, 2.0), 0.5, distance_bins=16))
        with pytest.raises(ValueError):
            ShardedEngine(objects)


class TestObservability:
    def test_stats_shape(self, rng):
        objects = make_random_objects(rng, 20)
        with ShardedEngine(objects, n_shards=2) as sharded:
            sharded.execute_batch(mixed_specs())
            stats = sharded.stats()
            assert stats["engine"] == "ShardedEngine"
            assert stats["objects"] == 20
            shards = stats["shards"]
            assert shards["n_shards"] == 2
            assert shards["parallel"]["specs"] == 4  # the C-PNN slice
            assert shards["parallel"]["wall_s"] > 0
            assert len(stats["caches"]["lanes"]) == 2

    def test_single_engine_stats(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 8))
        stats = engine.stats()
        assert stats["engine"] == "UncertainEngine"
        assert stats["objects"] == 8
        assert stats["index"] == "rtree"
        assert list(stats["caches"]) == ["table_cache"]

    def test_explain_carries_shard_snapshot(self, rng):
        objects = make_random_objects(rng, 20)
        with ShardedEngine(objects, n_shards=2) as sharded:
            single = UncertainEngine(list(objects))
            for spec in (
                CPNNQuery(30.0),
                CKNNQuery(30.0, k=2),
                CKNNQuery(30.0, k=50),
                CRangeQuery(30.0, radius=5.0),
            ):
                plan = sharded.explain(spec)
                reference = single.explain(spec)
                assert isinstance(plan, QueryPlan)
                assert plan.family == reference.family
                assert plan.candidates == reference.candidates
                assert plan.pruned == reference.pruned
                assert plan.shards["n_shards"] == 2
                assert "shards" in plan.describe()

    def test_compact_reprs(self, rng):
        objects = make_random_objects(rng, 10)
        with ShardedEngine(objects, n_shards=1) as sharded:
            batch = sharded.execute_batch(mixed_specs((9.0,)))
            assert len(repr(batch)) < 200
            assert "BatchResult(results=3" in repr(batch)
            assert len(repr(batch.results[0])) < 200
            assert "QueryResult(answers=" in repr(batch.results[0])
            assert "ShardedEngine(objects=10" in repr(sharded)

    def test_parallel_speedup_reported_in_plan(self, rng):
        objects = make_random_objects(rng, 16)
        with ShardedEngine(objects, n_shards=2) as sharded:
            sharded.execute_batch([CPNNQuery(q) for q in (3.0, 17.5, 42.25)])
            plan = sharded.explain(CPNNQuery(3.0))
            parallel = plan.shards["parallel"]
            assert parallel["lanes_used"] >= 1
            assert parallel["parallel_speedup"] > 0

    def test_parent_filtering_is_booked(self, rng, monkeypatch):
        """The parent stages every C-PNN filter pass for the lanes; that
        time is the batch's (and a single query's) filtering phase."""
        objects = make_random_objects(rng, 16)
        config = EngineConfig(executor="serial")
        with ShardedEngine(objects, config, n_shards=2) as sharded:
            filter_batch = sharded._filter_batch

            def slow_filter_batch(points):
                time.sleep(0.02)
                return filter_batch(points)

            monkeypatch.setattr(sharded, "_filter_batch", slow_filter_batch)
            assert sharded.execute(CPNNQuery(3.0)).timings.filtering >= 0.02
            batch = sharded.execute_batch([CPNNQuery(q) for q in (5.0, 17.5, 42.25)])
            assert batch.timings.filtering >= 0.02
