"""Tests for the PNN filtering phase (Figure 3, first stage)."""

import numpy as np
import pytest

from repro.baselines.montecarlo import monte_carlo_pnn_probabilities
from repro.index.filtering import BatchMbrFilter, PnnFilter, filter_candidates
from repro.index.str_pack import str_bulk_load
from repro.uncertainty.objects import UncertainObject
from tests.conftest import make_random_objects


def build_tree(objects, max_entries=8):
    return str_bulk_load([(o.mbr, o) for o in objects], max_entries=max_entries)


class TestLinearFilter:
    def test_fmin_is_min_far_distance(self, rng):
        objects = make_random_objects(rng, 25)
        q = 30.0
        result = filter_candidates(objects, q)
        assert result.fmin == pytest.approx(min(o.maxdist(q) for o in objects))

    def test_survivors_have_near_within_fmin(self, rng):
        objects = make_random_objects(rng, 25)
        result = filter_candidates(objects, 30.0)
        for obj in result.candidates:
            assert obj.mindist(30.0) <= result.fmin + 1e-12

    def test_empty_collection_raises(self):
        with pytest.raises(ValueError):
            filter_candidates([], 0.0)

    def test_never_prunes_positive_probability_object(self, rng):
        # Soundness: any object the filter drops must have zero
        # qualification probability (checked by Monte Carlo).
        for trial in range(5):
            objects = make_random_objects(rng, 12, families=("uniform",))
            q = float(rng.uniform(0, 60))
            result = filter_candidates(objects, q)
            dropped = [o for o in objects if o not in result.candidates]
            if not dropped:
                continue
            mc = monte_carlo_pnn_probabilities(objects, q, trials=20_000, rng=rng)
            for obj in dropped:
                assert mc[obj.key] == 0.0


class TestRTreeFilter:
    def test_matches_linear_scan(self, rng):
        objects = make_random_objects(rng, 60)
        pnn_filter = PnnFilter(build_tree(objects))
        for q in rng.uniform(-5, 65, 12):
            via_tree = pnn_filter(float(q))
            via_scan = filter_candidates(objects, float(q))
            assert via_tree.fmin == pytest.approx(via_scan.fmin)
            assert {o.key for o in via_tree.candidates} == {
                o.key for o in via_scan.candidates
            }

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError, match="empty index"):
            PnnFilter(str_bulk_load([]))

    def test_single_object(self):
        obj = UncertainObject.uniform("only", 0.0, 1.0)
        result = PnnFilter(build_tree([obj]))(5.0)
        assert len(result) == 1
        assert result.fmin == pytest.approx(5.0)

    def test_packed_levels_match_tree_candidates(self, rng):
        """The engine's filter packs the same STR levels the tree holds;
        it reports the tree's candidates in object order."""
        objects = make_random_objects(rng, 200)
        packed = BatchMbrFilter(objects, max_entries=8)
        via_tree = PnnFilter(build_tree(objects, max_entries=8))
        for q in rng.uniform(-5, 65, 12):
            (a,), b = packed([float(q)]), via_tree(float(q))
            assert a.fmin == b.fmin
            assert a.candidates == tuple(o for o in objects if o in b.candidates)

    def test_batch_filter_snapshots_its_items(self, rng):
        """The packed rows keep answering with the objects they were
        packed from, whatever the caller does to its list afterwards."""
        objects = make_random_objects(rng, 60)
        held = list(objects)
        packed = BatchMbrFilter(held, max_entries=4)
        (before,) = packed([30.0])
        del held[::2]
        held.reverse()
        (after,) = packed([30.0])
        assert after.candidates == before.candidates
        assert after.fmin == before.fmin == filter_candidates(objects, 30.0).fmin

    def test_dimension_mismatch_rejected(self, rng):
        objects = make_random_objects(rng, 10)
        with pytest.raises(ValueError, match="dimensionality"):
            PnnFilter(build_tree(objects))((1.0, 2.0))
        with pytest.raises(ValueError, match="dimensionality"):
            BatchMbrFilter(objects)([(1.0, 2.0)])


class TestBatchFilterMaintenance:
    """Incremental append/mask-removal/replace on BatchMbrFilter must
    stay bit-identical to a freshly built filter (DESIGN.md §11)."""

    def _assert_same_as_fresh(self, incremental, objects, points):
        fresh = BatchMbrFilter(objects)
        inc_min, inc_max = incremental.matrices(points)
        ref_min, ref_max = fresh.matrices(points)
        assert np.array_equal(inc_min, ref_min)
        assert np.array_equal(inc_max, ref_max)
        assert incremental.objects == tuple(objects)
        for a, b in zip(incremental(points), fresh(points)):
            assert a.fmin == b.fmin
            assert a.candidates == b.candidates

    def test_append_matches_fresh(self, rng):
        objects = make_random_objects(rng, 12)
        batch = BatchMbrFilter(objects[:8])
        for obj in objects[8:]:
            batch.append(obj)
        self._assert_same_as_fresh(batch, objects, [5.0, 30.0, 55.0])

    def test_remove_matches_fresh(self, rng):
        objects = make_random_objects(rng, 12)
        batch = BatchMbrFilter(objects)
        survivors = list(objects)
        for index in (9, 3, 0):
            batch.remove_at(index)
            del survivors[index]
        self._assert_same_as_fresh(batch, survivors, [5.0, 30.0, 55.0])

    def test_replace_matches_fresh(self, rng):
        objects = make_random_objects(rng, 10)
        batch = BatchMbrFilter(objects)
        current = list(objects)
        for index in (2, 7):
            newcomer = UncertainObject.uniform(("r", index), 20.0, 24.0)
            batch.replace_at(index, newcomer)
            current[index] = newcomer
        self._assert_same_as_fresh(batch, current, [5.0, 22.0, 55.0])

    def test_interleaved_churn_matches_fresh(self, rng):
        objects = make_random_objects(rng, 15)
        batch = BatchMbrFilter(objects)
        current = list(objects)
        points = [float(q) for q in rng.uniform(0, 60, 6)]
        for step in range(12):
            op = step % 3
            if op == 0:
                obj = UncertainObject.uniform(("a", step), 5.0 + step, 9.0 + step)
                batch.append(obj)
                current.append(obj)
            elif op == 1:
                index = int(rng.integers(0, len(current)))
                batch.remove_at(index)
                del current[index]
            else:
                index = int(rng.integers(0, len(current)))
                obj = UncertainObject.uniform(("s", step), 30.0, 33.0)
                batch.replace_at(index, obj)
                current[index] = obj
            # Query mid-stream: flushes pending maintenance each time.
            self._assert_same_as_fresh(batch, current, points)

    def test_pending_ops_before_any_query(self, rng):
        """Maintenance queued before the first matrices() call."""
        objects = make_random_objects(rng, 6)
        batch = BatchMbrFilter(objects)
        extra = UncertainObject.uniform("x", 1.0, 2.0)
        batch.append(extra)
        batch.remove_at(0)
        batch.replace_at(0, UncertainObject.uniform("y", 3.0, 4.0))
        current = [UncertainObject.uniform("y", 3.0, 4.0)] + list(objects[2:]) + [extra]
        fresh = BatchMbrFilter(current)
        got_min, got_max = batch.matrices([10.0])
        ref_min, ref_max = fresh.matrices([10.0])
        assert np.array_equal(got_min, ref_min)
        assert np.array_equal(got_max, ref_max)

    def test_remove_out_of_range_raises(self, rng):
        batch = BatchMbrFilter(make_random_objects(rng, 3))
        with pytest.raises(IndexError):
            batch.remove_at(3)
        with pytest.raises(IndexError):
            batch.replace_at(-1, make_random_objects(rng, 1)[0])

    def test_dimension_mismatch_rejected(self, rng):
        from repro.uncertainty.twod import UncertainDisk

        batch = BatchMbrFilter(make_random_objects(rng, 3))
        with pytest.raises(ValueError):
            batch.append(UncertainDisk("d", (0, 0), 1.0))

    def test_kth_filter_error_names_bad_k(self, rng):
        batch = BatchMbrFilter(make_random_objects(rng, 4))
        with pytest.raises(ValueError, match=r"k=9 \(query 0\)"):
            batch.kth_filter([30.0], [9])


class TestAmortisedRepack:
    """``replace_at`` widens the packed levels in place; the levels are
    repacked only after as many replaces as there are leaf nodes, or
    after an ``append`` / ``remove_at`` — each time lazily, by the next
    query, exactly once."""

    @pytest.fixture
    def packs(self, monkeypatch):
        import repro.index.filtering as filtering

        calls = []
        real = filtering.str_pack_levels

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(filtering, "str_pack_levels", counting)
        return calls

    @staticmethod
    def assert_fresh(flt, objects, points):
        """Candidates and ``f_min`` equal the sweep of a fresh filter
        (``matrices`` never packs, so the count is untouched)."""
        mindist, maxdist = BatchMbrFilter(objects).matrices(points)
        for b, got in enumerate(flt(points)):
            fmin = maxdist[b].min()
            assert got.fmin == fmin
            assert got.candidates == tuple(
                objects[i] for i in np.flatnonzero(mindist[b] <= fmin)
            )

    def test_replace_stream_repacks_once_per_leaf_count(self, rng, packs):
        objects = [
            UncertainObject.uniform(i, float(i), float(i) + 0.5) for i in range(64)
        ]
        flt = BatchMbrFilter(objects, max_entries=4)
        points = [0.2, 17.0, 40.3, 63.9]
        self.assert_fresh(flt, objects, points)
        assert packs == [4]
        leaf_nodes = len(flt._levels[-2][0])  # 64 / 4
        assert leaf_nodes == 16
        for step in range(1, leaf_nodes + 1):
            index = int(rng.integers(0, len(objects)))
            lo = float(rng.uniform(-10.0, 75.0))
            objects[index] = UncertainObject.uniform(index, lo, lo + 0.5)
            flt.replace_at(index, objects[index])
            assert flt.packed == (step < leaf_nodes)
            self.assert_fresh(flt, objects, points + [lo + 0.25])
            assert len(packs) == (1 if step < leaf_nodes else 2)
        newcomer = UncertainObject.uniform("new", 30.1, 30.2)
        flt.append(newcomer)
        objects.append(newcomer)
        assert not flt.packed and len(packs) == 2
        self.assert_fresh(flt, objects, points + [30.15])
        self.assert_fresh(flt, objects, points)
        assert len(packs) == 3
        flt.remove_at(5)
        del objects[5]
        assert not flt.packed and len(packs) == 3
        self.assert_fresh(flt, objects, points + [5.2])
        self.assert_fresh(flt, objects, points)
        assert len(packs) == 4

    def test_worker_replica_repacks_lazily(self, rng, packs, monkeypatch):
        """The same accounting through a process worker's replica
        (:func:`_worker_apply_ops` over a filter attached to the
        exported coordinate store), packed at fan-out 4."""
        from repro.core.engine import EngineConfig
        from repro.core.engine.executors.process import (
            _worker_apply_ops,
            _worker_attach,
        )

        for method in (BatchMbrFilter.__init__, BatchMbrFilter.from_store.__func__):
            monkeypatch.setattr(method, "__defaults__", (4,))
        objects = make_random_objects(rng, 40)
        config = EngineConfig()
        with BatchMbrFilter(objects).to_store("shm") as store:
            state = _worker_attach(0, config, objects, 1, store.descriptor())
            points = [5.0, 30.0, 55.0]
            current = list(objects)
            self.assert_fresh(state.lane._local_filter, current, points)
            assert packs == [4]
            leaf_nodes = len(state.filter._levels[-2][0])
            for step in range(1, leaf_nodes + 1):
                index = step % len(current)
                obj = UncertainObject.uniform(current[index].key, 29.0 + step, 29.5 + step)
                _worker_apply_ops(state, [("replace", obj.key, obj)])
                current[index] = obj
                self.assert_fresh(state.lane._local_filter, current, points + [29.2 + step])
                assert len(packs) == (1 if step < leaf_nodes else 2)
            newcomer = UncertainObject.uniform("new", 30.1, 30.2)
            _worker_apply_ops(state, [("insert", newcomer)])
            current.append(newcomer)
            self.assert_fresh(state.lane._local_filter, current, points)
            assert len(packs) == 3
            _worker_apply_ops(state, [("remove", current[0].key)])
            del current[0]
            self.assert_fresh(state.lane._local_filter, current, points)
            self.assert_fresh(state.lane._local_filter, current, points)
            assert len(packs) == 4


class TestDegenerateGeometry:
    def test_identical_objects(self):
        objects = [UncertainObject.uniform(i, 0.0, 2.0) for i in range(4)]
        result = filter_candidates(objects, 1.0)
        assert len(result) == 4

    def test_query_far_from_everything(self, rng):
        objects = make_random_objects(rng, 15)
        result = filter_candidates(objects, 1e6)
        assert len(result) >= 1
