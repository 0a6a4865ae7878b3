"""Tests for dynamic insert/remove/replace on the engine.

Covers the incremental-maintenance layer of DESIGN.md §11: duplicate
key rejection, deferred index maintenance, selective table-cache
invalidation, and the in-place ``replace`` primitive.
"""

import numpy as np
import pytest

from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.types import CPNNQuery
from repro.uncertainty.objects import UncertainObject
from tests.conftest import make_random_objects


class TestInsert:
    def test_inserted_object_visible(self, rng):
        objects = make_random_objects(rng, 10)
        engine = UncertainEngine(objects)
        newcomer = UncertainObject.uniform("new", 29.9, 30.1)
        engine.insert(newcomer)
        pnn = engine.pnn(30.0)
        assert pnn["new"] > 0.5  # tight interval right at the query
        assert len(engine) == 11

    def test_matches_fresh_engine(self, rng):
        objects = make_random_objects(rng, 12)
        engine = UncertainEngine(objects[:8])
        for obj in objects[8:]:
            engine.insert(obj)
        fresh = UncertainEngine(objects)
        for q in (5.0, 30.0, 55.0):
            assert engine.pnn(q) == pytest.approx(fresh.pnn(q))
            assert set(engine.execute(CPNNQuery(q, tolerance=0.0)).answers) == set(
                fresh.execute(CPNNQuery(q, tolerance=0.0)).answers
            )

    def test_dimension_mismatch_rejected(self, rng):
        from repro.uncertainty.twod import UncertainDisk

        engine = UncertainEngine(make_random_objects(rng, 3))
        with pytest.raises(ValueError):
            engine.insert(UncertainDisk("2d", (0, 0), 1.0))

    def test_linear_scan_engine_updates_too(self, rng):
        objects = make_random_objects(rng, 6)
        engine = UncertainEngine(objects, EngineConfig(use_rtree=False))
        engine.insert(UncertainObject.uniform("new", 29.9, 30.1))
        assert "new" in engine.pnn(30.0)


class TestRemove:
    def test_removed_object_gone(self, rng):
        objects = make_random_objects(rng, 10)
        engine = UncertainEngine(objects)
        target = max(engine.pnn(30.0), key=engine.pnn(30.0).get)
        assert engine.remove(target)
        assert target not in engine.pnn(30.0)
        assert len(engine) == 9

    def test_remove_missing_returns_false(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 3))
        assert not engine.remove("no-such-key")
        assert len(engine) == 3

    def test_matches_fresh_engine_after_churn(self, rng):
        objects = make_random_objects(rng, 15)
        engine = UncertainEngine(objects)
        removed = {2, 7, 11}
        for key in removed:
            assert engine.remove(key)
        survivors = [o for o in objects if o.key not in removed]
        fresh = UncertainEngine(survivors)
        for q in (10.0, 30.0, 50.0):
            assert engine.pnn(q) == pytest.approx(fresh.pnn(q))

    def test_probabilities_renormalise(self, rng):
        objects = make_random_objects(rng, 8)
        engine = UncertainEngine(objects)
        engine.remove(objects[0].key)
        assert sum(engine.pnn(30.0).values()) == pytest.approx(1.0, abs=1e-9)

    def test_remove_to_empty_then_query_is_empty(self):
        engine = UncertainEngine([UncertainObject.uniform("solo", 0, 1)])
        assert engine.remove("solo")
        assert engine.execute(CPNNQuery(0.5)).answers == ()
        with pytest.raises(ValueError):
            engine.pnn(0.5)

    def test_empty_engine_reports_clear_error(self):
        engine = UncertainEngine([UncertainObject.uniform("solo", 0, 1)])
        assert engine.remove("solo")
        assert len(engine) == 0
        with pytest.raises(ValueError):
            engine.pnn(0.5)

    def test_insert_after_empty_recovers(self):
        engine = UncertainEngine([UncertainObject.uniform("a", 0, 1)])
        engine.remove("a")
        engine.insert(UncertainObject.uniform("b", 2, 3))
        assert engine.pnn(2.5)["b"] == pytest.approx(1.0)


class TestDuplicateKeys:
    def test_insert_duplicate_key_rejected(self, rng):
        """Regression: a second object under an existing key used to be
        silently accepted; ``remove`` then deleted only the first
        match, leaving a shadowed duplicate in the index."""
        objects = make_random_objects(rng, 6)
        engine = UncertainEngine(objects)
        with pytest.raises(ValueError, match="duplicate object key"):
            engine.insert(UncertainObject.uniform(objects[2].key, 10.0, 11.0))
        # The failed insert must not corrupt the engine: the original
        # object is still the one indexed, and remove leaves no shadow.
        assert len(engine) == 6
        assert engine.remove(objects[2].key)
        assert len(engine) == 5
        result = engine.execute(CPNNQuery(30.0, threshold=0.01, tolerance=0.0))
        assert objects[2].key not in result.answers
        assert not engine.remove(objects[2].key)

    def test_constructor_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate object key"):
            UncertainEngine(
                [
                    UncertainObject.uniform("x", 0, 1),
                    UncertainObject.uniform("x", 2, 3),
                ]
            )

    def test_reinsert_after_remove_is_fine(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 4))
        assert engine.remove(2)
        engine.insert(UncertainObject.uniform(2, 29.9, 30.1))
        assert engine.pnn(30.0)[2] > 0.5


class TestReplace:
    def test_replace_matches_fresh_engine(self, rng):
        objects = make_random_objects(rng, 12)
        engine = UncertainEngine(objects)
        replaced = list(objects)
        for i in (1, 5, 9):
            newcomer = UncertainObject.uniform(
                objects[i].key, 10.0 + i, 14.0 + i
            )
            engine.replace(objects[i].key, newcomer)
            replaced[i] = newcomer
        fresh = UncertainEngine(replaced)
        for q in (5.0, 12.0, 30.0):
            assert engine.pnn(q) == pytest.approx(fresh.pnn(q))

    def test_replace_is_in_place(self, rng):
        objects = make_random_objects(rng, 5)
        engine = UncertainEngine(objects)
        newcomer = UncertainObject.uniform(objects[2].key, 1.0, 2.0)
        engine.replace(objects[2].key, newcomer)
        assert engine.objects[2] is newcomer
        assert len(engine) == 5

    def test_replace_missing_key_raises(self, rng):
        engine = UncertainEngine(make_random_objects(rng, 3))
        with pytest.raises(KeyError):
            engine.replace("no-such-key", UncertainObject.uniform("n", 0, 1))

    def test_replace_with_new_key(self, rng):
        objects = make_random_objects(rng, 4)
        engine = UncertainEngine(objects)
        engine.replace(objects[0].key, UncertainObject.uniform("fresh", 29.9, 30.1))
        assert "fresh" in engine.pnn(30.0)
        assert not engine.remove(objects[0].key)
        assert engine.remove("fresh")

    def test_replace_duplicate_new_key_rejected(self, rng):
        objects = make_random_objects(rng, 4)
        engine = UncertainEngine(objects)
        clash = UncertainObject.uniform(objects[1].key, 0.0, 1.0)
        with pytest.raises(ValueError, match="duplicate object key"):
            engine.replace(objects[0].key, clash)

    def test_replace_dimension_mismatch_rejected(self, rng):
        from repro.uncertainty.twod import UncertainDisk

        objects = make_random_objects(rng, 3)
        engine = UncertainEngine(objects)
        with pytest.raises(ValueError, match="dimensionality"):
            engine.replace(objects[0].key, UncertainDisk(objects[0].key, (0, 0), 1.0))

    def test_interleaved_replace_and_batch_identical_to_fresh(self, rng):
        """Dead-reckoning stream: warm caches must stay exact."""
        objects = make_random_objects(rng, 20)
        engine = UncertainEngine(objects)
        points = [5.0, 18.0, 30.0, 44.0, 57.0]
        specs = [CPNNQuery(p, threshold=0.3, tolerance=0.0) for p in points]
        current = list(objects)
        for round_no in range(4):
            engine.execute_batch(specs)  # warm caches between updates
            for i in (round_no, 10 + round_no):
                lo = float(rng.uniform(0, 55))
                newcomer = UncertainObject.uniform(current[i].key, lo, lo + 3.0)
                engine.replace(current[i].key, newcomer)
                current[i] = newcomer
            warm = engine.execute_batch(specs)
            fresh = UncertainEngine(current).execute_batch(specs)
            for a, b in zip(warm.results, fresh.results):
                assert a.answers == b.answers
                assert a.fmin == b.fmin
                for x, y in zip(a.records, b.records):
                    assert (x.key, x.label, x.lower, x.upper, x.exact) == (
                        y.key,
                        y.label,
                        y.lower,
                        y.upper,
                        y.exact,
                    )


class TestSelectiveInvalidation:
    def test_far_update_keeps_tables_warm(self, rng):
        """A mutation far from a probed point must not drop its cached
        table or memoised result."""
        objects = [
            UncertainObject.uniform(i, float(i), float(i) + 1.0)
            for i in range(10)
        ]
        engine = UncertainEngine(objects)
        spec = CPNNQuery(2.0, threshold=0.3, tolerance=0.0)
        engine.execute_batch([spec])
        # Insert far beyond every candidate's reach of q=2.0.
        engine.insert(UncertainObject.uniform("far", 1000.0, 1001.0))
        warm = engine.execute_batch([spec])
        assert warm.result_hits == 1
        assert warm.table_misses == 0

    def test_near_update_invalidates(self, rng):
        objects = [
            UncertainObject.uniform(i, float(i), float(i) + 1.0)
            for i in range(10)
        ]
        engine = UncertainEngine(objects)
        spec = CPNNQuery(2.0, threshold=0.3, tolerance=0.0)
        engine.execute_batch([spec])
        engine.insert(UncertainObject.uniform("near", 1.9, 2.1))
        refreshed = engine.execute_batch([spec])
        assert refreshed.result_hits == 0
        assert refreshed.table_misses == 1
        assert "near" in refreshed.results[0].answers

    def test_survived_entries_answer_identically_to_fresh(self, rng):
        objects = make_random_objects(rng, 15)
        engine = UncertainEngine(objects)
        near_spec = CPNNQuery(30.0, threshold=0.2, tolerance=0.0)
        far_spec = CPNNQuery(55.0, threshold=0.2, tolerance=0.0)
        engine.execute_batch([near_spec, far_spec])
        engine.insert(UncertainObject.uniform("new", 29.5, 30.5))
        warm = engine.execute_batch([near_spec, far_spec])
        # Share the engine's exact objects so the comparison is bit-level.
        fresh = UncertainEngine(list(engine.objects))
        cold = fresh.execute_batch([near_spec, far_spec])
        for a, b in zip(warm.results, cold.results):
            assert a.answers == b.answers
            for x, y in zip(a.records, b.records):
                assert (x.key, x.label, x.lower, x.upper, x.exact) == (
                    y.key,
                    y.label,
                    y.lower,
                    y.upper,
                    y.exact,
                )

    def test_remove_far_object_keeps_results_warm(self):
        objects = [
            UncertainObject.uniform(i, float(i), float(i) + 1.0)
            for i in range(10)
        ]
        engine = UncertainEngine(objects)
        spec = CPNNQuery(1.0, threshold=0.3, tolerance=0.0)
        engine.execute_batch([spec])
        assert engine.remove(9)  # far from q=1.0's candidate set
        warm = engine.execute_batch([spec])
        assert warm.result_hits == 1

    def test_remove_candidate_invalidates(self):
        objects = [
            UncertainObject.uniform(i, float(i), float(i) + 1.0)
            for i in range(10)
        ]
        engine = UncertainEngine(objects)
        spec = CPNNQuery(1.0, threshold=0.3, tolerance=0.0)
        first = engine.execute_batch([spec])
        victim = first.results[0].answers[0]
        assert engine.remove(victim)
        refreshed = engine.execute_batch([spec])
        assert refreshed.result_hits == 0
        assert victim not in refreshed.results[0].answers


class TestDeferredIndexMaintenance:
    def test_batch_filter_rows_match_objects(self, rng):
        objects = make_random_objects(rng, 10)
        engine = UncertainEngine(objects)
        engine.execute_batch([CPNNQuery(30.0)])  # force filter build
        engine.insert(UncertainObject.uniform("n1", 3.0, 4.0))
        assert engine.remove(4)
        engine.replace(7, UncertainObject.uniform(7, 40.0, 41.0))
        engine.execute_batch([CPNNQuery(30.0)])  # flush row maintenance
        bf = engine._batch_filter
        assert bf is not None
        assert bf.objects == tuple(engine.objects)
        expected_lows = np.array([o.mbr.lows for o in engine.objects])
        assert np.array_equal(bf._lows, expected_lows)

    def test_single_query_sees_pending_updates(self, rng):
        objects = make_random_objects(rng, 8)
        engine = UncertainEngine(objects)
        engine.insert(UncertainObject.uniform("new", 29.9, 30.1))
        assert engine.remove(0)
        assert engine.stats()["filter_stale"]
        # Single-query paths repack the stale filter before answering.
        assert "new" in engine.pnn(30.0)
        assert not engine.stats()["filter_stale"]
        plan = engine.explain(CPNNQuery(30.0))
        assert plan.index == "rtree"

    def test_tree_queue_stays_bounded_under_batch_only_stream(self):
        """Regression: a batch-only update stream must not accumulate
        deferred index work (and pin every replaced object) forever —
        replaces widen the packed levels in place, nothing queues."""
        objects = [
            UncertainObject.uniform(i, float(i), float(i) + 1.0)
            for i in range(50)
        ]
        engine = UncertainEngine(objects)
        for step in range(40):
            key = step % 50
            engine.replace(
                key, UncertainObject.uniform(key, float(key), float(key) + 1.0)
            )
            engine.execute_batch([CPNNQuery(10.5, threshold=0.3)])
        assert not hasattr(engine, "_pending_tree_ops")
        # The one filter holds the current objects only; a repack the
        # replaces made due happens at the next filtering.
        assert engine._batch_filter.objects == tuple(engine.objects)
        assert engine.pnn(10.5)
        assert not engine.stats()["filter_stale"]

    def test_replayed_records_are_isolated(self):
        """Mutating a replayed record must not corrupt the snapshot."""
        objects = [
            UncertainObject.uniform(i, float(i), float(i) + 1.0)
            for i in range(6)
        ]
        engine = UncertainEngine(objects)
        spec = CPNNQuery(2.0, threshold=0.3, tolerance=0.0)
        engine.execute_batch([spec])
        replayed = engine.execute_batch([spec])
        assert replayed.result_hits == 1
        original = replayed.results[0].records[0].lower
        replayed.results[0].records[0].lower = -123.0
        again = engine.execute_batch([spec])
        assert again.results[0].records[0].lower == original

    def test_table_cache_probes_counted_once(self):
        """Regression: duplicate points in one batch used to probe the
        cache twice per query, double-counting misses."""
        objects = [
            UncertainObject.uniform(i, float(i), float(i) + 1.0)
            for i in range(6)
        ]
        engine = UncertainEngine(objects)
        specs = [CPNNQuery(2.0, threshold=0.3, tolerance=0.0)] * 5
        cold = engine.execute_batch(specs)
        assert cold.table_misses == 1  # one distinct point built once
        assert cold.table_hits == 4
        cache = engine._table_cache
        assert cache.misses == 5  # one probe per query, not two
        assert cache.hits == 0
        warm = engine.execute_batch(specs)
        assert warm.result_hits == 5
        assert cache.misses == 5
        assert cache.hits == 5  # one snapshot-replay probe per query

    def test_large_pending_queue_rebuilds(self, rng):
        objects = make_random_objects(rng, 10)
        engine = UncertainEngine(objects)
        for i in range(30):  # far beyond the incremental threshold
            engine.insert(UncertainObject.uniform(("bulk", i), 30.0 + i, 31.0 + i))
        assert engine.stats()["filter_stale"]
        pnn = engine.pnn(35.0)
        assert any(key == ("bulk", 4) for key in pnn)
        assert not engine.stats()["filter_stale"]
        assert "pending_tree_ops" not in engine.stats()
