"""Unit tests for the batch query subsystem (engine, cache, filter)."""

import numpy as np
import pytest

from repro.core.batch import BatchResult, point_key
from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.types import CPNNQuery
from repro.experiments.strategies import STRATEGIES
from repro.index.filtering import BatchMbrFilter, PnnFilter
from repro.index.str_pack import str_bulk_load
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.twod import UncertainDisk, UncertainRectangle, UncertainSegment
from tests.conftest import cpnn_specs, make_random_objects


def random_disks(rng, n):
    """2-D regions, whose distance distributions no fold kernel builds."""
    return [
        UncertainDisk(i, tuple(rng.uniform(0.0, 60.0, 2)), float(rng.uniform(1.0, 8.0)))
        for i in range(n)
    ]


def query_points(rng, n=12, domain=(-5.0, 65.0)):
    return [float(q) for q in rng.uniform(*domain, size=n)]


class TestPointKey:
    def test_scalar(self):
        assert point_key(1.5) == 1.5
        assert point_key(np.float64(1.5)) == 1.5

    def test_sequence(self):
        assert point_key((1.0, 2.0)) == (1.0, 2.0)
        assert point_key(np.asarray([1.0, 2.0])) == (1.0, 2.0)

    def test_length_one_sequence_stays_hashable(self):
        key = point_key([3.0])
        assert key == (3.0,)
        hash(key)


class TestBatchMbrFilter:
    @pytest.mark.parametrize("n", [5, 40])
    def test_matches_rtree_filter_1d(self, rng, n):
        objects = make_random_objects(rng, n)
        tree_filter = PnnFilter(str_bulk_load([(o.mbr, o) for o in objects]))
        batch_filter = BatchMbrFilter(objects)
        points = query_points(rng)
        batched = batch_filter(points)
        for q, got in zip(points, batched):
            reference = tree_filter(q)
            assert got.fmin == reference.fmin
            assert {o.key for o in got.candidates} == {
                o.key for o in reference.candidates
            }

    def test_matches_rtree_filter_2d(self, rng):
        objects = [
            UncertainDisk("disk", (0.0, 0.0), 2.0),
            UncertainSegment("seg", (1.0, 1.0), (4.0, 3.0)),
            UncertainRectangle.from_bounds("rect", -3.0, -1.0, -1.0, 2.0),
            UncertainDisk("far", (40.0, 40.0), 1.0),
        ]
        tree_filter = PnnFilter(str_bulk_load([(o.mbr, o) for o in objects]))
        batch_filter = BatchMbrFilter(objects)
        points = [tuple(p) for p in rng.uniform(-5, 45, size=(10, 2))]
        for q, got in zip(points, batch_filter(points)):
            reference = tree_filter(q)
            assert got.fmin == reference.fmin
            assert {o.key for o in got.candidates} == {
                o.key for o in reference.candidates
            }

    def test_dimension_mismatch_rejected(self, rng):
        batch_filter = BatchMbrFilter(make_random_objects(rng, 4))
        with pytest.raises(ValueError):
            batch_filter([(1.0, 2.0)])

    def test_empty_objects_rejected(self):
        with pytest.raises(ValueError):
            BatchMbrFilter([])


class TestQueryBatch:
    def test_empty_points(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 6))
        batch = engine.execute_batch([])
        assert isinstance(batch, BatchResult)
        assert len(batch) == 0
        assert batch.answers == []

    def test_matches_sequential_exactly(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 30))
        points = query_points(rng, n=15)
        batch = engine.execute_batch(cpnn_specs(points, threshold=0.3, tolerance=0.0))
        assert len(batch) == len(points)
        for q, result in zip(points, batch):
            reference = engine.execute(CPNNQuery(q, threshold=0.3, tolerance=0.0))
            assert set(result.answers) == set(reference.answers)
            assert result.fmin == reference.fmin
            assert result.refined_objects == reference.refined_objects
            assert result.unknown_after_verifier == reference.unknown_after_verifier
            got = {r.key: (r.label, r.lower, r.upper) for r in result.records}
            want = {r.key: (r.label, r.lower, r.upper) for r in reference.records}
            assert got == want

    def test_matches_sequential_with_tolerance(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 20))
        points = query_points(rng, n=8)
        batch = engine.execute_batch(cpnn_specs(points, threshold=0.4, tolerance=0.05))
        for q, result in zip(points, batch):
            reference = engine.execute(CPNNQuery(q, threshold=0.4, tolerance=0.05))
            assert set(result.answers) == set(reference.answers)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_strategies_match_sequential(self, rng, strategy):
        """At Δ = 0 a batch's answers are every strategy's sequential
        answers: the engine's pipeline and the Basic / Refine
        references agree."""
        engine = UncertainEngine(make_random_objects(rng, 15))
        points = query_points(rng, n=6)
        batch = engine.execute_batch(cpnn_specs(points, threshold=0.3, tolerance=0.0))
        answer = STRATEGIES[strategy]
        for q, result in zip(points, batch):
            reference = answer(engine, CPNNQuery(q, threshold=0.3, tolerance=0.0))
            assert set(result.answers) == set(reference.answers)

    def test_repeated_probes_hit_caches(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 15))
        points = query_points(rng, n=6)
        first = engine.execute_batch(cpnn_specs(points, threshold=0.3, tolerance=0.0))
        assert first.table_hits == 0
        assert first.cache_hits == 0
        second = engine.execute_batch(cpnn_specs(points, threshold=0.3, tolerance=0.0))
        assert second.table_hits == len(points)
        assert second.table_misses == 0
        for a, b in zip(first, second):
            assert a.answers == b.answers

    def test_duplicate_points_within_batch_share_tables(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 15))
        point = 30.0
        batch = engine.execute_batch(
            cpnn_specs([point] * 5, threshold=0.3, tolerance=0.0)
        )
        assert batch.table_hits == 4
        assert batch.table_misses == 1
        assert len({tuple(r.answers) for r in batch}) == 1

    def test_table_hits_report_no_distribution_misses(self, rng, constructed):
        """A table-cache hit builds no distributions.  (2-D regions:
        C-PNN builds a distribution only for rows no fold kernel
        takes, so a cold table builds one per candidate.)"""
        engine = UncertainEngine(random_disks(rng, 10))
        points = [tuple(p) for p in rng.uniform(-5, 65, size=(4, 2))]
        del constructed[:]
        cold = engine.execute_batch(cpnn_specs(points, threshold=0.3, tolerance=0.0))
        assert len(constructed) == sum(len(r.records) for r in cold)
        del constructed[:]
        warm = engine.execute_batch(cpnn_specs(points, threshold=0.3, tolerance=0.0))
        assert warm.table_hits == len(points)
        assert constructed == []
        assert (warm.cache_hits, warm.cache_misses) == (0, 0)

    def test_insert_invalidates_batch_state(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 10))
        engine.execute_batch(cpnn_specs([30.0], threshold=0.3, tolerance=0.0))
        engine.insert(UncertainObject.uniform("new", 29.9, 30.1))
        batch = engine.execute_batch(cpnn_specs([30.0], threshold=0.3, tolerance=0.0))
        assert "new" in batch[0].answers
        assert batch.table_misses == 1

    def test_remove_invalidates_batch_state(self, rng):
        objects = make_random_objects(rng, 10)
        engine = UncertainEngine(objects)
        before = engine.execute_batch(cpnn_specs([30.0], threshold=0.05, tolerance=0.0))
        target = before[0].answers[0]
        assert engine.remove(target)
        after = engine.execute_batch(cpnn_specs([30.0], threshold=0.05, tolerance=0.0))
        assert target not in after[0].answers
        reference = engine.execute(CPNNQuery(30.0, threshold=0.05, tolerance=0.0))
        assert set(after[0].answers) == set(reference.answers)

    def test_emptied_engine_returns_empty_results(self):
        engine = UncertainEngine([UncertainObject.uniform("solo", 0, 1)])
        assert engine.remove("solo")
        batch = engine.execute_batch([0.5])
        assert [result.answers for result in batch] == [()]

    def test_linear_scan_engine_matches_sequential(self, rng):
        engine = UncertainEngine(
            make_random_objects(rng, 12), EngineConfig(use_rtree=False)
        )
        points = query_points(rng, n=5)
        batch = engine.execute_batch(cpnn_specs(points, threshold=0.3, tolerance=0.0))
        for q, result in zip(points, batch):
            reference = engine.execute(CPNNQuery(q, threshold=0.3, tolerance=0.0))
            assert set(result.answers) == set(reference.answers)
            assert result.fmin == reference.fmin

    @pytest.mark.parametrize(
        "thresholds", [[0.25] * 4, [0.1, 0.3, 0.5, 0.7]], ids=["uniform", "mixed"]
    )
    def test_prepared_queries(self, rng, thresholds):
        engine = UncertainEngine(make_random_objects(rng, 12))
        prepared = [
            CPNNQuery(q, threshold, 0.0)
            for q, threshold in zip(query_points(rng, n=4), thresholds)
        ]
        batch = engine.execute_batch(prepared)
        for query, result in zip(prepared, batch):
            reference = engine.execute(query)
            assert set(result.answers) == set(reference.answers)

    def test_2d_mixture_matches_sequential(self, rng):
        objects = [
            UncertainDisk("disk", (0.0, 0.0), 2.0),
            UncertainSegment("seg", (1.0, 1.0), (4.0, 3.0)),
            UncertainRectangle.from_bounds("rect", -3.0, -1.0, -1.0, 2.0),
            UncertainDisk("far", (9.0, 9.0), 1.0),
        ]
        engine = UncertainEngine(objects)
        points = [tuple(p) for p in rng.uniform(-4, 10, size=(8, 2))]
        batch = engine.execute_batch(cpnn_specs(points, threshold=0.2, tolerance=0.0))
        for q, result in zip(points, batch):
            reference = engine.execute(CPNNQuery(q, threshold=0.2, tolerance=0.0))
            assert set(result.answers) == set(reference.answers)

    def test_batch_timings_populated(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 20))
        batch = engine.execute_batch(
            cpnn_specs(query_points(rng, n=6), threshold=0.3, tolerance=0.0)
        )
        assert batch.timings.total > 0
        assert batch.timings.initialization > 0

    def test_batch_phases_are_the_sum_of_its_results(self, rng, unit_clock):
        """A batch's phase totals equal the sums over its results
        exactly — the VR refinement total covers what each query's own
        span covers."""
        objects = [
            UncertainObject.gaussian(i, lo, lo + 12.0, bars=32)
            for i, lo in enumerate(rng.uniform(0.0, 60.0, size=30))
        ]
        engine = UncertainEngine(objects)
        # P at the top candidate's exact p with Δ = 0: no bound settles
        # that candidate, so every query refines it.
        specs = [
            CPNNQuery(q, max(engine.pnn(q).values()), 0.0)
            for q in query_points(rng, n=6)
        ]
        batch = engine.execute_batch(specs)
        assert batch.total_refined >= 2, "the workload must reach refinement"
        for phase in ("initialization", "verification", "refinement"):
            assert getattr(batch.timings, phase) == sum(
                getattr(r.timings, phase) for r in batch.results
            )
        assert batch.timings.refinement == len(specs)

    def test_answer_sets_property(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 10))
        points = query_points(rng, n=3)
        batch = engine.execute_batch(cpnn_specs(points, threshold=0.3, tolerance=0.0))
        assert batch.answer_sets == [frozenset(r.answers) for r in batch.results]


class TestTableCacheRecency:
    @staticmethod
    def _entry():
        from repro.core.batch import CachedTable

        return CachedTable(table=object(), fmin=1.0)

    def test_lru_eviction(self):
        from repro.core.batch import TableCache

        cache = TableCache(2)
        first, second = self._entry(), self._entry()
        cache.put("a", first)
        cache.put("b", second)
        assert cache.get("a") is first  # refreshed: "b" is now the oldest
        cache.put("c", self._entry())
        assert len(cache) == 2
        assert cache.peek("b") is None
        assert cache.peek("a") is first
        assert (cache.hits, cache.misses) == (1, 0)

    def test_hit_and_miss_accounting(self):
        """``get`` counts; ``peek`` (the sharded pre-filter probe) does
        not."""
        from repro.core.batch import TableCache

        cache = TableCache(2)
        cache.put("a", self._entry())
        cache.peek("a")
        cache.peek("b")
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.get("b") is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_rejects_nonpositive_size(self):
        from repro.core.batch import TableCache

        with pytest.raises(ValueError):
            TableCache(0)

    def test_cell_budget_keeps_snapshots_and_drops_tables(self, rng):
        """Past its cell budget the cache lets go of the oldest tables
        but keeps their entries' snapshots: a repeated spec replays, a
        new constraint at that point builds its table again."""
        from repro.core.batch import TableCache

        engine = UncertainEngine(make_random_objects(rng, 60))
        points = query_points(rng, n=6)
        cold = engine.execute_batch(cpnn_specs(points))
        cells = [entry.table.size * entry.table.n_subregions
                 for entry in engine._table_cache._entries.values()]
        engine = UncertainEngine(engine.objects)
        engine._table_cache = TableCache(maxsize=16, max_cells=sum(cells[-2:]))
        assert engine.execute_batch(cpnn_specs(points)).table_misses == len(points)
        entries = list(engine._table_cache._entries.values())
        assert len(entries) == len(points)
        assert [entry.table is None for entry in entries] == [True] * 4 + [False] * 2
        replay = engine.execute_batch(cpnn_specs(points))
        assert replay.result_hits == len(points)
        assert replay.answers == cold.answers
        other = engine.execute_batch(cpnn_specs(points[:1], threshold=0.6))
        assert (other.table_misses, other.table_hits) == (1, 0)
        fresh = UncertainEngine(engine.objects).execute(CPNNQuery(points[0], 0.6, 0.01))
        assert other[0].records == fresh.records


class TestTableCacheInvalidation:
    @staticmethod
    def _cache_with_entries(entries):
        from repro.core.batch import CachedTable, TableCache

        cache = TableCache(16)
        for point, fmin in entries:
            cache.put(point_key(point), CachedTable(table=object(), fmin=fmin))
        return cache

    def test_far_box_invalidates_nothing(self):
        cache = self._cache_with_entries([(0.0, 1.0), (10.0, 1.0)])
        assert cache.invalidate_overlapping([100.0], [101.0]) == 0
        assert len(cache) == 2

    def test_overlapping_box_drops_only_affected(self):
        cache = self._cache_with_entries([(0.0, 1.0), (10.0, 1.0)])
        # mindist([9.5, 10.5], q=10) = 0 <= 1, mindist(.., q=0) = 9.5 > 1
        assert cache.invalidate_overlapping([9.5], [10.5]) == 1
        assert len(cache) == 1
        assert cache.get(point_key(10.0)) is None
        assert cache.get(point_key(0.0)) is not None

    def test_boundary_is_inclusive(self):
        # mindist == fmin exactly: the object enters the candidate set
        # (the filter keeps mindist <= fmin), so the entry must drop.
        cache = self._cache_with_entries([(0.0, 2.0)])
        assert cache.invalidate_overlapping([2.0], [3.0]) == 1

    def test_invalidate_boxes_unions_the_tests(self):
        cache = self._cache_with_entries([(0.0, 1.0), (10.0, 1.0), (50.0, 1.0)])
        lows = np.array([[9.5], [49.5]])
        highs = np.array([[10.5], [50.5]])
        assert cache.invalidate_boxes(lows, highs) == 2
        assert len(cache) == 1

    def test_2d_points(self):
        from repro.core.batch import CachedTable, TableCache

        cache = TableCache(8)
        cache.put(point_key((0.0, 0.0)), CachedTable(table=object(), fmin=1.0))
        cache.put(point_key((10.0, 10.0)), CachedTable(table=object(), fmin=1.0))
        assert cache.invalidate_overlapping([9.0, 9.0], [11.0, 11.0]) == 1
        assert cache.get(point_key((0.0, 0.0))) is not None
