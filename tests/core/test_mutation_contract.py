"""The mutation contract, tested once against every engine.

The canonical statement lives in ``repro/core/engine/registry.py``
(module docstring, "The mutation contract"); this module is its single
enforcement point, parameterised over :class:`UncertainEngine` and
:class:`ShardedEngine` so the two can never drift apart:

* ``insert`` — ``ValueError`` on duplicate key / dimension mismatch;
* ``remove`` — ``True``/``False``, never raises on a missing key;
* ``replace`` — ``KeyError`` on a missing key, ``ValueError`` on a
  key collision or dimension mismatch, position preserved on success.
"""

import numpy as np
import pytest

from repro.core.engine import ShardedEngine, UncertainEngine
from repro.core.types import CPNNQuery
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.twod import UncertainDisk
from tests.conftest import make_random_objects

ENGINES = [
    pytest.param(lambda objs: UncertainEngine(objs), id="uncertain"),
    pytest.param(
        lambda objs: ShardedEngine(objs, n_shards=1),
        id="sharded",
    ),
]


@pytest.fixture
def objects(rng):
    return make_random_objects(rng, 8)


@pytest.mark.parametrize("factory", ENGINES)
class TestInsert:
    def test_duplicate_key_rejected(self, factory, objects):
        engine = factory(objects)
        with pytest.raises(ValueError, match="duplicate object key"):
            engine.insert(UncertainObject.uniform(objects[0].key, 0.0, 1.0))

    def test_dimension_mismatch_rejected(self, factory, objects):
        engine = factory(objects)
        with pytest.raises(ValueError, match="dimensionality"):
            engine.insert(UncertainDisk("d", (1.0, 2.0), 0.5, distance_bins=16))

    def test_visible_immediately(self, factory, objects):
        engine = factory(objects)
        engine.insert(UncertainObject.uniform("fresh", 100.0, 101.0))
        assert len(engine) == len(objects) + 1
        assert engine.execute(CPNNQuery(100.5)).answers == ("fresh",)


@pytest.mark.parametrize("factory", ENGINES)
class TestRemove:
    def test_missing_key_returns_false(self, factory, objects):
        engine = factory(objects)
        assert engine.remove("never-inserted") is False
        assert len(engine) == len(objects)

    def test_present_key_returns_true(self, factory, objects):
        engine = factory(objects)
        assert engine.remove(objects[3].key) is True
        assert len(engine) == len(objects) - 1
        # Idempotent: a second removal of the same key is False.
        assert engine.remove(objects[3].key) is False

    def test_may_drain_the_engine(self, factory, objects):
        engine = factory(objects)
        for obj in objects:
            assert engine.remove(obj.key) is True
        assert len(engine) == 0
        assert engine.execute(CPNNQuery(1.0)).answers == ()

    def test_removed_key_then_replace_raises(self, factory, objects):
        engine = factory(objects)
        assert engine.remove(objects[0].key)
        with pytest.raises(KeyError):
            engine.replace(
                objects[0].key, UncertainObject.uniform(objects[0].key, 0.0, 1.0)
            )


@pytest.mark.parametrize("factory", ENGINES)
class TestReplace:
    def test_missing_key_raises_keyerror(self, factory, objects):
        engine = factory(objects)
        with pytest.raises(KeyError):
            engine.replace("never-inserted", UncertainObject.uniform("x", 0.0, 1.0))
        # ...and the failed replace mutated nothing.
        assert len(engine) == len(objects)
        assert [o.key for o in engine.objects] == [o.key for o in objects]

    def test_key_collision_rejected(self, factory, objects):
        engine = factory(objects)
        with pytest.raises(ValueError, match="duplicate object key"):
            engine.replace(
                objects[0].key,
                UncertainObject.uniform(objects[1].key, 0.0, 1.0),
            )

    def test_dimension_mismatch_rejected(self, factory, objects):
        engine = factory(objects)
        with pytest.raises(ValueError, match="dimensionality"):
            engine.replace(
                objects[0].key, UncertainDisk("d", (1.0, 2.0), 0.5, distance_bins=16)
            )

    def test_position_preserved(self, factory, objects):
        engine = factory(objects)
        replacement = UncertainObject.uniform(objects[2].key, 40.0, 42.0)
        engine.replace(objects[2].key, replacement)
        assert engine.objects[2] is replacement

    def test_key_change_allowed(self, factory, objects):
        engine = factory(objects)
        replacement = UncertainObject.uniform("renamed", 40.0, 42.0)
        engine.replace(objects[2].key, replacement)
        assert engine.objects[2] is replacement
        assert engine.remove(objects[2].key) is False  # old key gone
        assert engine.remove("renamed") is True


@pytest.mark.parametrize("factory", ENGINES)
def test_drain_then_refill_with_different_dimensionality(factory, rng):
    """Draining resets every geometry-holding maintenance structure
    (DESIGN.md §11): a refill may legally change dimensionality, so no
    queued 1-D invalidation box or cached 1-D table may survive into
    the 2-D world (regression: ragged-array crash in the next batch)."""
    objects = make_random_objects(rng, 5)
    engine = factory(list(objects))
    # Cache a table and queue invalidations, then drain completely.
    engine.execute_batch([CPNNQuery(30.0, threshold=0.3, tolerance=0.0)])
    for obj in objects:
        assert engine.remove(obj.key)
    assert len(engine) == 0
    disks = [
        UncertainDisk(("d", i), (float(i * 7.0), float(i * 3.0)), 1.0,
                      distance_bins=16)
        for i in range(4)
    ]
    for disk in disks:
        engine.insert(disk)
    result = engine.execute(CPNNQuery((7.0, 3.0), threshold=0.2, tolerance=0.0))
    reference = UncertainEngine(list(disks)).execute(
        CPNNQuery((7.0, 3.0), threshold=0.2, tolerance=0.0)
    )
    assert frozenset(result.answers) == frozenset(reference.answers)


@pytest.mark.parametrize("factory", ENGINES)
def test_contract_interplay_stays_queryable(factory, rng):
    """A mixed churn stream obeying the contract keeps answers exact."""
    objects = make_random_objects(rng, 10)
    engine = factory(list(objects))
    mirror = list(objects)
    for i in range(12):
        roll = i % 3
        if roll == 0:
            obj = UncertainObject.uniform(("c", i), float(5 * i % 55), float(5 * i % 55) + 2.0)
            engine.insert(obj)
            mirror.append(obj)
        elif roll == 1 and mirror:
            victim = mirror.pop(int(rng.integers(0, len(mirror))))
            assert engine.remove(victim.key)
        elif mirror:
            index = int(rng.integers(0, len(mirror)))
            obj = UncertainObject.uniform(mirror[index].key, float(3 * i), float(3 * i) + 1.5)
            engine.replace(obj.key, obj)
            mirror[index] = obj
    fresh = UncertainEngine(list(mirror))
    got = engine.execute_batch([CPNNQuery(q, threshold=0.3, tolerance=0.0) for q in (5.0, 25.0, 45.0)])
    want = fresh.execute_batch([CPNNQuery(q, threshold=0.3, tolerance=0.0) for q in (5.0, 25.0, 45.0)])
    for a, b in zip(got.results, want.results):
        assert a.answers == b.answers
        assert (a.fmin == b.fmin) or (np.isnan(a.fmin) and np.isnan(b.fmin))
        for x, y in zip(a.records, b.records):
            assert (x.key, x.lower, x.upper, x.exact) == (y.key, y.lower, y.upper, y.exact)
