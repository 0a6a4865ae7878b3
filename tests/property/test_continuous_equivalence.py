"""Property: monitored streams ≡ fresh-engine re-execution, every tick.

The continuous tier's whole claim (DESIGN.md §17) is that replaying a
memoised snapshot is indistinguishable from re-executing: after *any*
interleaving of register / unregister / monitored mutations / query
moves / ticks, every live handle's snapshot must be bit-identical —
answers, labels, bounds, exact values — to a brand-new engine built
over the same final object sequence executing the same spec.  The
mid-stream ticks are the point: they are where a wrong certificate
would let a stale snapshot survive a mutation that should have killed
it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuous import ContinuousMonitor
from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.uncertainty.objects import UncertainObject

from tests.property.test_dynamic_equivalence import fresh_object


def spec_menu(index: int):
    """A deterministic spec from all three families (collision-free
    points, same geometry discipline as ``fresh_object``)."""
    q = (index * 11.7) % 60.0
    family = index % 3
    if family == 0:
        return CPNNQuery(q, threshold=0.3, tolerance=0.0)
    if family == 1:
        return CKNNQuery(q, k=1 + index % 3, threshold=0.4)
    return CRangeQuery(q, radius=4.0 + (index % 4), threshold=0.5)


def assert_handle_fresh(handle, objects, config):
    fresh = UncertainEngine(list(objects), config)
    want = fresh.execute(handle.spec)
    got = handle.snapshot()
    assert got.answers == want.answers
    assert (got.fmin == want.fmin) or (
        np.isnan(got.fmin) and np.isnan(want.fmin)
    )
    assert len(got.records) == len(want.records)
    for x, y in zip(got.records, want.records):
        assert (x.key, x.label, x.lower, x.upper, x.exact) == (
            y.key,
            y.label,
            y.lower,
            y.upper,
            y.exact,
        )


@st.composite
def monitored_streams(draw):
    n_initial = draw(st.integers(min_value=2, max_value=6))
    n_specs = draw(st.integers(min_value=1, max_value=5))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    [
                        "insert",
                        "remove",
                        "replace",
                        "register",
                        "unregister",
                        "tick",
                        "move_query",
                        "out_of_band",
                    ]
                ),
                st.integers(min_value=0, max_value=31),
            ),
            min_size=1,
            max_size=14,
        )
    )
    return n_initial, n_specs, ops


def run_stream(engine_factory, stream, config):
    n_initial, n_specs, ops = stream
    counter = n_initial
    spec_counter = n_specs
    mirror = [fresh_object(i, i) for i in range(n_initial)]
    engine = engine_factory(list(mirror), config)
    monitor = ContinuousMonitor(engine)
    handles = monitor.register_many([spec_menu(i) for i in range(n_specs)])
    live = list(handles)
    # Mutations accumulate between ticks: a snapshot is only promised
    # current as of the last tick, so freshness is asserted at tick
    # boundaries (and after registrations, which execute immediately).
    dirty = False

    for op, arg in ops:
        if op == "insert":
            obj = fresh_object(counter, counter)
            counter += 1
            monitor.insert(obj)
            mirror.append(obj)
            dirty = True
        elif op == "remove":
            if mirror:
                index = arg % len(mirror)
                assert monitor.remove(mirror[index].key)
                del mirror[index]
                dirty = True
        elif op == "replace":
            if mirror:
                index = arg % len(mirror)
                obj = fresh_object(counter, counter)
                counter += 1
                monitor.replace(mirror[index].key, obj)
                mirror[index] = obj
                dirty = True
        elif op == "register":
            handle = monitor.register(spec_menu(spec_counter))
            spec_counter += 1
            live.append(handle)
            # Registration executes against the current engine state,
            # so the new handle is fresh even mid-mutation-window.
            assert_handle_fresh(handle, mirror, config)
        elif op == "unregister":
            if live:
                index = arg % len(live)
                assert monitor.unregister(live[index])
                del live[index]
        elif op == "move_query":
            if live:
                index = arg % len(live)
                new_q = (arg * 5.3) % 60.0
                monitor.tick(query_moves={live[index]: new_q})
                dirty = False
        elif op == "out_of_band":
            if mirror:
                index = arg % len(mirror)
                obj = fresh_object(counter, counter)
                counter += 1
                key = mirror[index].key
                obj = UncertainObject.uniform(
                    key, obj.mbr.lows[0], obj.mbr.highs[0]
                )
                engine.replace(key, obj)
                mirror[index] = obj
                monitor.tick(moved_keys=[key])
                dirty = False
        else:
            monitor.tick()
            dirty = False

        # The invariant, checked at every tick boundary: live
        # snapshots equal fresh execution over the current objects.
        if not dirty:
            for handle in live:
                assert_handle_fresh(handle, mirror, config)

    # Flush any trailing mutation window and check one last time.
    monitor.tick()
    for handle in live:
        assert_handle_fresh(handle, mirror, config)

    assert len(monitor) == len(live)
    assert len(engine) == len(mirror)
    return engine


@given(stream=monitored_streams(), use_rtree=st.booleans())
@settings(max_examples=30, deadline=None)
def test_monitored_stream_matches_fresh_engine(stream, use_rtree):
    config = EngineConfig(use_rtree=use_rtree)
    run_stream(
        lambda objects, cfg: UncertainEngine(objects, cfg), stream, config
    )


@given(stream=monitored_streams(), n_shards=st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_monitored_sharded_stream_matches_fresh_engine(stream, n_shards):
    config = EngineConfig(executor="serial")
    engine = run_stream(
        lambda objects, cfg: ShardedEngine(objects, cfg, n_shards=n_shards),
        stream,
        config,
    )
    engine.close()
