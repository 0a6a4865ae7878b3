"""Unit tests for the continuous monitor.

The replay contract: after any monitored mutation stream, every
registered handle's snapshot equals a fresh execution — replayed
handles because their certificate proves nothing changed, re-executed
handles because they just ran.  These tests pin the API (register /
unregister / tick / mutation front), the invalidation triggers per
family, query motion, out-of-band ``moved_keys``, and the stats /
explain wiring on both engines.
"""

import dataclasses

import pytest

from repro.continuous import ContinuousMonitor
from repro.core.engine import ShardedEngine, UncertainEngine
from repro.core.types import AnswerRecords, CKNNQuery, CPNNQuery, CRangeQuery
from repro.uncertainty.objects import UncertainObject


def uniform(key, lo, hi):
    return UncertainObject.uniform(key, lo, hi)


def make_objects():
    # Clusters near 0-10 and 40-50 with a straggler at 90.
    return [
        uniform(0, 0.0, 2.0),
        uniform(1, 4.0, 6.0),
        uniform(2, 8.0, 10.0),
        uniform(3, 40.0, 42.0),
        uniform(4, 44.0, 46.0),
        uniform(5, 90.0, 92.0),
    ]


def make_specs():
    return [
        CPNNQuery(5.0, threshold=0.3, tolerance=0.0),
        CPNNQuery(43.0, threshold=0.3, tolerance=0.0),
        CKNNQuery(5.0, k=2, threshold=0.4),
        CRangeQuery(43.0, radius=4.0, threshold=0.4),
    ]


def assert_snapshot_fresh(handle, engine_objects):
    fresh = UncertainEngine(list(engine_objects))
    want = fresh.execute(handle.spec)
    got = handle.snapshot()
    assert got.answers == want.answers
    assert [(r.key, r.label, r.lower, r.upper, r.exact) for r in got.records] == [
        (r.key, r.label, r.lower, r.upper, r.exact) for r in want.records
    ]


class TestRegistration:
    def test_register_returns_live_handle(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handle = monitor.register(CPNNQuery(5.0, threshold=0.3))
        assert handle.answers == engine.execute(CPNNQuery(5.0, threshold=0.3)).answers
        assert handle.region is not None
        assert len(monitor) == 1
        assert monitor.handles == (handle,)

    def test_register_many_one_batch(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handles = monitor.register_many(make_specs())
        assert len(handles) == 4
        assert len({h.id for h in handles}) == 4
        for handle in handles:
            assert_snapshot_fresh(handle, engine.objects)

    def test_unregister_by_handle_and_id(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        a, b = monitor.register_many(make_specs()[:2])
        assert monitor.unregister(a) is True
        assert monitor.unregister(a) is False
        assert monitor.unregister(b.id) is True
        assert len(monitor) == 0
        report = monitor.tick()
        assert report.registered == 0

    def test_bare_point_registers_as_cpnn(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handle = monitor.register(5.0)
        assert isinstance(handle.spec, CPNNQuery)

    def test_monitor_attaches_to_engine(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        assert engine._continuous is monitor
        stats = engine.stats()["continuous"]
        assert stats["attached"] is True
        assert stats["registered"] == 0


class TestTicks:
    def test_noop_tick_replays_everything(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handles = monitor.register_many(make_specs())
        report = monitor.tick()
        assert report.reexecuted == ()
        assert report.replayed == len(handles)
        assert report.changed == {}
        assert report.escape_rate == 0.0

    def test_far_replace_replays_all_nonstructural_families(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handles = monitor.register_many(make_specs())
        monitor.replace(5, uniform(5, 120.0, 122.0))
        report = monitor.tick()
        # The straggler is far outside every certificate ball; only the
        # structural certificate could have fired, and an in-place
        # replace is non-structural.
        assert report.reexecuted == ()
        assert report.replayed == len(handles)
        for handle in handles:
            assert_snapshot_fresh(handle, engine.objects)

    def test_install_and_reexecution_leave_records_unbuilt(self, monkeypatch):
        """Certificates read the result's key column: registering and
        re-executing handles never builds a record."""

        def unbuilt(view):
            raise AssertionError("a result's records were built")

        monkeypatch.setattr(AnswerRecords, "_built", unbuilt)
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handles = monitor.register_many(make_specs())
        monitor.replace(4, uniform(4, 45.0, 47.0))
        assert monitor.tick().reexecuted
        for handle in handles:
            if handle.candidate_keys is not None:
                assert handle.candidate_keys == frozenset(handle.result.records.keys)

    def test_near_replace_invalidates_affected_only(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handles = monitor.register_many(make_specs())
        # Perturb inside the 40-50 cluster: the q=5 C-PNN certificate is
        # untouched, the q=43 C-PNN and the in-place-replace-tested
        # structural handles near 43 re-run.
        monitor.replace(4, uniform(4, 45.0, 47.0))
        report = monitor.tick()
        rerun = set(report.reexecuted)
        assert handles[0].id not in rerun  # q=5 C-PNN replayed
        assert handles[1].id in rerun  # q=43 C-PNN re-ran
        for handle in handles:
            assert_snapshot_fresh(handle, engine.objects)

    def test_insert_and_remove_invalidate_structural_handles(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handles = monitor.register_many(make_specs())
        monitor.insert(uniform("new", 200.0, 202.0))
        report = monitor.tick()
        rerun = set(report.reexecuted)
        # Census change: the structural (k-NN) handle re-runs no matter
        # how far the insert landed; the C-PNN and range certificates
        # are distance tested and survive.
        assert rerun == {handles[2].id}
        monitor.remove("new")
        report = monitor.tick()
        assert set(report.reexecuted) == {handles[2].id}
        for handle in handles:
            assert_snapshot_fresh(handle, engine.objects)

    def test_range_handle_follows_its_ball_not_the_census(self):
        """Range records are candidate-shaped: census changes and key
        swaps outside the ball replay, inside it re-execute, and the
        snapshot equals a fresh execution bit for bit either way."""
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        spec = CRangeQuery(43.0, radius=4.0, threshold=0.4)
        handle = monitor.register(spec)
        assert handle.candidate_keys == {3, 4}
        steps = [
            # (mutation, lands inside the ball [39, 47]?)
            (lambda: monitor.insert(uniform("far", 200.0, 202.0)), False),
            (lambda: monitor.remove("far"), False),
            (lambda: monitor.remove(0), False),  # shifts object positions
            (lambda: monitor.replace(5, uniform("five", 90.0, 92.0)), False),
            (lambda: monitor.insert(uniform("near", 46.0, 48.0)), True),
            (lambda: monitor.remove("near"), True),
            (lambda: monitor.replace(4, uniform("four", 44.0, 46.0)), True),
            (lambda: monitor.replace("five", uniform(5, 45.0, 49.0)), True),
        ]
        for mutate, inside in steps:
            mutate()
            report = monitor.tick()
            assert report.reexecuted == ((handle.id,) if inside else ())
            assert report.replayed == (0 if inside else 1)
            fresh = engine.execute(spec)
            got = handle.snapshot()
            assert got.answers == fresh.answers
            assert [dataclasses.astuple(r) for r in got.records] == [
                dataclasses.astuple(r) for r in fresh.records
            ]
        assert handle.candidate_keys == {3, "four", 5}
        # out of band: a key the handle lists invalidates it, one it
        # does not list (and whose MBR is far) replays
        engine.replace(1, uniform(1, 20.0, 22.0))
        assert monitor.tick(moved_keys=[1]).reexecuted == ()
        engine.replace(3, uniform(3, 40.5, 42.5))
        assert monitor.tick(moved_keys=[3]).reexecuted == (handle.id,)
        assert handle.snapshot().answers == engine.execute(spec).answers

    def test_remove_missing_key_is_not_a_mutation(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        monitor.register_many(make_specs())
        assert monitor.remove("no-such-key") is False
        report = monitor.tick()
        assert report.mutations == 0
        assert report.reexecuted == ()

    def test_changed_carries_only_real_changes(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handle = monitor.register(CPNNQuery(5.0, threshold=0.3, tolerance=0.0))
        before = handle.answers
        # Crowd the q=5 neighbourhood so the answer set actually moves.
        monitor.replace(3, uniform(3, 4.5, 6.5))
        report = monitor.tick()
        assert handle.id in report.reexecuted
        if handle.answers != before:
            assert report.changed.keys() == {handle.id}
            assert report.changed[handle.id].answers == handle.answers
        else:
            assert report.changed == {}

    def test_query_move_reexecutes_only_the_mover(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handles = monitor.register_many(make_specs())
        mover = handles[0]
        report = monitor.tick(query_moves={mover: 43.0})
        assert report.reexecuted == (mover.id,)
        assert report.escaped == (mover.id,)
        assert mover.spec.q == 43.0
        assert_snapshot_fresh(mover, engine.objects)

    def test_stationary_query_report_replays(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handle = monitor.register(CPNNQuery(5.0, threshold=0.3))
        report = monitor.tick(query_moves={handle: 5.0})
        assert report.reexecuted == ()
        assert report.escaped == ()

    def test_query_move_unknown_handle_raises(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        monitor.register(CPNNQuery(5.0, threshold=0.3))
        with pytest.raises(KeyError):
            monitor.tick(query_moves={999: 1.0})

    def test_out_of_band_moved_keys(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        handles = monitor.register_many(make_specs())
        # Mutate the engine directly (no monitor front), then declare.
        engine.replace(1, uniform(1, 4.0, 7.0))
        report = monitor.tick(moved_keys=[1])
        rerun = set(report.reexecuted)
        # Key 1 was a candidate of the q=5 C-PNN; the structural (k-NN)
        # handle degrades to full invalidation (old MBR unknown); the
        # q=43 range handle never listed key 1 and its new MBR is far.
        assert handles[0].id in rerun
        assert handles[2].id in rerun
        assert handles[3].id not in rerun
        for handle in handles:
            assert_snapshot_fresh(handle, engine.objects)

    def test_undeclared_mutations_are_callers_problem(self):
        # Document the contract's sharp edge: a mutation applied behind
        # the monitor's back silently invalidates nothing.
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        monitor.register(CPNNQuery(5.0, threshold=0.3))
        engine.replace(1, uniform(1, 60.0, 62.0))
        report = monitor.tick()
        assert report.reexecuted == ()  # the stale snapshot stands


class TestObservability:
    def test_stats_counters(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        monitor.register_many(make_specs())
        monitor.tick()
        monitor.replace(4, uniform(4, 45.0, 47.0))
        monitor.tick()
        stats = monitor.stats()
        assert stats["registered"] == 4
        assert stats["ticks"] == 2
        assert stats["reexecuted"] + stats["replayed"] == 8
        assert 0.0 <= stats["hit_rate"] <= 1.0
        assert stats["index"]["handles"] == 4

    def test_engine_stats_and_explain_report_the_tier(self):
        engine = UncertainEngine(make_objects())
        monitor = ContinuousMonitor(engine)
        monitor.register_many(make_specs())
        monitor.tick()
        stats = engine.stats()["continuous"]
        assert stats["attached"] is True
        assert stats["registered"] == 4
        plan = engine.explain(CPNNQuery(5.0, threshold=0.3))
        assert plan.continuous["attached"] is True
        assert "continuous" in plan.describe()

    def test_detached_engine_reports_unattached(self):
        engine = UncertainEngine(make_objects())
        assert engine.stats()["continuous"] == {"attached": False}
        plan = engine.explain(CPNNQuery(5.0, threshold=0.3))
        assert plan.continuous == {"attached": False}
        assert "continuous" not in plan.describe()


class TestShardedEngine:
    def test_monitor_over_sharded_engine_matches_single(self):
        objects = make_objects()
        sharded = ShardedEngine(list(objects), n_shards=2)
        try:
            monitor = ContinuousMonitor(sharded)
            handles = monitor.register_many(make_specs())
            monitor.replace(4, uniform(4, 45.0, 47.0))
            monitor.insert(uniform("new", 7.0, 9.0))
            report = monitor.tick()
            assert report.registered == 4
            for handle in handles:
                assert_snapshot_fresh(handle, sharded.objects)
            assert sharded.stats()["continuous"]["attached"] is True
        finally:
            sharded.close()
