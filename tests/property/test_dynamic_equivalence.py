"""Property: interleaved update/query streams ≡ a freshly built engine.

The incremental-maintenance contract (DESIGN.md §11): after *any*
sequence of ``insert`` / ``remove`` / ``replace`` / ``execute`` /
``execute_batch`` operations, the engine must answer every spec type
exactly as a brand-new engine constructed over the same final object
sequence — same answers, same per-object records, same pruning radii —
and repeating the batch against the (now fully warm) caches must not
change a bit.  The mid-stream queries are the point: they populate the
batch filter and its fold columns, the table cache, and the memoised
result snapshots that the subsequent mutations must keep exactly
consistent.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.index.filtering import bar_densities
from repro.uncertainty.objects import UncertainObject


def fresh_object(counter: int, slot: int) -> UncertainObject:
    """A deterministic interval with collision-free geometry.

    Centers come from a coprime stride over [0, 60) and widths vary by
    counter, so no two objects in a stream share a near/far point —
    ordering ties (the one way two equal object sets could diverge at
    the bit level) cannot arise.
    """
    center = (slot * 7.3) % 60.0
    width = 1.0 + (counter % 5) * 0.7
    return UncertainObject.uniform(
        ("obj", counter), center - width / 2.0, center + width / 2.0
    )


def probe_specs(n_objects: int) -> list:
    """A mixed batch covering all three spec families, including the
    trivial k >= N case."""
    specs = []
    for q in (5.0, 23.0, 41.0, 59.0):
        specs.append(CPNNQuery(q, threshold=0.3, tolerance=0.0))
        specs.append(CKNNQuery(q, threshold=0.4, k=2))
        specs.append(CRangeQuery(q, threshold=0.5, radius=6.0))
    specs.append(CKNNQuery(30.0, threshold=0.3, k=max(1, n_objects + 3)))
    return specs


def assert_results_identical(got, want) -> None:
    assert len(got.results) == len(want.results)
    for a, b in zip(got.results, want.results):
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


@st.composite
def operation_streams(draw):
    n_initial = draw(st.integers(min_value=2, max_value=6))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "remove", "replace", "execute", "batch"]
                ),
                st.integers(min_value=0, max_value=31),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return n_initial, ops


@given(stream=operation_streams(), use_rtree=st.booleans())
@settings(max_examples=40, deadline=None)
def test_interleaved_stream_matches_fresh_engine(stream, use_rtree):
    n_initial, ops = stream
    counter = n_initial
    mirror = [fresh_object(i, i) for i in range(n_initial)]
    engine = UncertainEngine(list(mirror), EngineConfig(use_rtree=use_rtree))

    for op, arg in ops:
        if op == "insert":
            obj = fresh_object(counter, counter)
            counter += 1
            engine.insert(obj)
            mirror.append(obj)
        elif op == "remove":
            if mirror:
                index = arg % len(mirror)
                assert engine.remove(mirror[index].key)
                del mirror[index]
        elif op == "replace":
            if mirror:
                index = arg % len(mirror)
                obj = fresh_object(counter, counter)
                counter += 1
                engine.replace(mirror[index].key, obj)
                mirror[index] = obj
        elif op == "execute":
            spec = probe_specs(len(mirror))[arg % 13]
            result = engine.execute(spec)
            if not mirror:
                assert result.answers == ()
        else:
            engine.execute_batch(probe_specs(len(mirror))[: 1 + arg % 13])

    # Final contract: the incrementally maintained engine must be
    # indistinguishable from a fresh build over the same sequence.
    specs = probe_specs(len(mirror))
    fresh = UncertainEngine(list(mirror), EngineConfig(use_rtree=use_rtree))
    warm = engine.execute_batch(specs)
    cold = fresh.execute_batch(specs)
    assert_results_identical(warm, cold)

    # Cache consistency: replaying the same batch against fully warm
    # caches must be exact too (result snapshots, tables, and filter
    # rows all hit now).
    assert_results_identical(engine.execute_batch(specs), cold)

    # Single-spec dispatch sees the same world (answer sets; single
    # C-PNN execution goes through the R-tree, whose traversal order
    # may differ from the fresh bulk-loaded tree only in record order).
    for spec in specs[:4]:
        assert frozenset(engine.execute(spec).answers) == frozenset(
            fresh.execute(spec).answers
        )

    # Internal alignment: the batch filter's rows mirror the object
    # sequence exactly after all maintenance flushed.
    if mirror and engine._batch_filter is not None:
        batch_filter = engine._batch_filter
        batch_filter._flush()
        assert batch_filter.objects == tuple(engine.objects)
        assert np.array_equal(
            batch_filter._lows,
            np.array([obj.mbr.lows for obj in engine.objects]),
        )
    assert len(engine) == len(mirror)
    assert [obj.key for obj in engine.objects] == [obj.key for obj in mirror]


def assert_same_records(a, b) -> None:
    assert a.answers == b.answers and a.fmin == b.fmin
    assert [(r.key, r.label, r.lower, r.upper) for r in a.records] == [
        (r.key, r.label, r.lower, r.upper) for r in b.records
    ]


@given(stream=operation_streams())
@settings(max_examples=30, deadline=None)
def test_single_execute_matches_batch_and_fresh_at_every_step(stream):
    """After *every* mutation single execution and the batch path over
    the incrementally maintained filter, and a fresh engine, agree on
    each C-PNN result, record for record (DESIGN.md §11)."""
    n_initial, ops = stream
    counter = n_initial
    mirror = [fresh_object(i, i) for i in range(n_initial)]
    engine = UncertainEngine(list(mirror))
    specs = [CPNNQuery(q, threshold=0.3, tolerance=0.0) for q in (5.0, 23.0, 41.0)]
    for op, arg in ops:
        replaced = op == "replace" and bool(mirror)
        if op == "remove" and mirror:
            assert engine.remove(mirror.pop(arg % len(mirror)).key)
        elif replaced:
            obj = fresh_object(counter, counter)
            engine.replace(mirror[arg % len(mirror)].key, obj)
            mirror[arg % len(mirror)] = obj
        else:
            obj = fresh_object(counter, counter)
            engine.insert(obj)
            mirror.append(obj)
        counter += 1
        if not mirror:
            continue
        # insert and remove drop the packed levels (the next filtering
        # repacks them), except the insert into an empty engine, which
        # has no filter yet; a replace widens them in place
        assert engine.stats()["filter_stale"] or replaced or len(mirror) == 1
        fresh = UncertainEngine(list(mirror))
        batched = engine.execute_batch(specs).results
        for spec, via_batch in zip(specs, batched):
            single = engine.execute(spec)
            assert_same_records(single, via_batch)
            assert_same_records(single, fresh.execute(spec))
        # execute is a batch of one, so a step whose specs all replay
        # their cached snapshots filters nothing; the next filtering
        # repacks the levels
        engine.explain(specs[0])
        assert not engine.stats()["filter_stale"]


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_churn_then_empty_then_refill(seed):
    """Draining the engine and refilling it keeps every path sane."""
    rng = np.random.default_rng(seed)
    objects = [fresh_object(i, i) for i in range(4)]
    engine = UncertainEngine(list(objects))
    engine.execute_batch(probe_specs(4)[:5])
    for obj in objects:
        assert engine.remove(obj.key)
    assert len(engine) == 0
    empty = engine.execute_batch(probe_specs(0)[:5])
    assert all(result.answers == () for result in empty.results)
    refill = [fresh_object(10 + i, int(rng.integers(0, 32))) for i in range(3)]
    seen = set()
    refill = [o for o in refill if o.key not in seen and not seen.add(o.key)]
    for obj in refill:
        engine.insert(obj)
    fresh = UncertainEngine(list(refill))
    assert_results_identical(
        engine.execute_batch(probe_specs(len(refill))),
        fresh.execute_batch(probe_specs(len(refill))),
    )


@given(
    stream=operation_streams(),
    use_rtree=st.booleans(),
    n_shards=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_sharded_stream_matches_fresh_single_engine(stream, use_rtree, n_shards):
    """The sharded engine honours the same incremental-maintenance
    contract as the single engine (DESIGN.md §12): after any interleaved
    insert/remove/replace/execute/execute_batch stream, answers,
    records, and bounds for all three spec families are bit-identical
    to a fresh :class:`UncertainEngine` over the same final sequence —
    and replaying against the warm lane caches changes nothing."""
    n_initial, ops = stream
    counter = n_initial
    mirror = [fresh_object(i, i) for i in range(n_initial)]
    config = EngineConfig(use_rtree=use_rtree)
    engine = ShardedEngine(list(mirror), config, n_shards=n_shards)

    for op, arg in ops:
        if op == "insert":
            obj = fresh_object(counter, counter)
            counter += 1
            engine.insert(obj)
            mirror.append(obj)
        elif op == "remove":
            if mirror:
                index = arg % len(mirror)
                assert engine.remove(mirror[index].key)
                del mirror[index]
        elif op == "replace":
            if mirror:
                index = arg % len(mirror)
                obj = fresh_object(counter, counter)
                counter += 1
                engine.replace(mirror[index].key, obj)
                mirror[index] = obj
        elif op == "execute":
            spec = probe_specs(len(mirror))[arg % 13]
            result = engine.execute(spec)
            if not mirror:
                assert result.answers == ()
        else:
            engine.execute_batch(probe_specs(len(mirror))[: 1 + arg % 13])

    specs = probe_specs(len(mirror))
    fresh = UncertainEngine(list(mirror), EngineConfig(use_rtree=use_rtree))
    cold = fresh.execute_batch(specs)
    assert_results_identical(engine.execute_batch(specs), cold)
    # Warm replay: lane table caches and result snapshots all hit now.
    assert_results_identical(engine.execute_batch(specs), cold)

    # Contract bookkeeping.
    assert len(engine) == len(mirror)
    assert [obj.key for obj in engine.objects] == [obj.key for obj in mirror]
    assert engine.remove("no-such-key") is False
    with pytest.raises(KeyError):
        engine.replace("no-such-key", fresh_object(counter, counter))
    engine.close()


def test_pnn_after_interleaved_updates():
    """The exact-PNN scalar path flushes deferred maintenance too."""
    objects = [fresh_object(i, i) for i in range(5)]
    engine = UncertainEngine(list(objects))
    engine.execute_batch([CPNNQuery(10.0, threshold=0.2, tolerance=0.0)])
    newcomer = fresh_object(99, 13)
    engine.insert(newcomer)
    assert engine.remove(objects[0].key)
    survivors = objects[1:] + [newcomer]
    fresh = UncertainEngine(survivors)
    for q in (3.0, 17.0, 42.0):
        assert engine.pnn(q) == pytest.approx(fresh.pnn(q))


def shaped_object(counter: int, slot: int, bars: int) -> UncertainObject:
    """An interval at :func:`fresh_object`'s centre with a one-bar
    (``bars == 1``) or a multi-bar pdf, so a replace can switch the
    row's fold kernel.  Every width is the same: a one-bar density
    misplaced onto a multi-bar row then still folds to mass 1, so the
    kernel's mass check cannot hide a misaligned density column."""
    lo = (slot * 7.3) % 60.0 - 1.3
    if bars == 1:
        return UncertainObject.uniform(("obj", counter), lo, lo + 2.6)
    return UncertainObject.gaussian(("obj", counter), lo, lo + 2.6, bars=bars)


#: (operation, index into the object sequence, bars of the new object).
#: Index 1 goes one-bar → multi-bar → one-bar → multi-bar by replace.
MUTATIONS = (
    ("replace", 1, 12),
    ("insert", None, 30),
    ("replace", 1, 1),
    ("remove", 0, None),
    ("insert", None, 1),
    ("replace", 0, 7),
    ("replace", 3, 1),
    ("remove", 2, None),
    ("replace", 0, 1),
    ("insert", None, 5),
)


#: k-NN (the census included) and range specs over the same stream:
#: their packs fold from ``BatchMbrFilter.columns`` at the survivors'
#: positions, so a misaligned column would show in their records.
FAMILY_SPECS = [
    spec
    for q in (4.0, 23.0, 36.5, 51.1)
    for spec in (
        CKNNQuery(q, threshold=0.3, k=1),
        CKNNQuery(q, threshold=0.2, k=3),
        CRangeQuery(q, threshold=0.3, radius=2.0),
        CRangeQuery(q, threshold=0.5, radius=6.0),
    )
] + [CKNNQuery(30.0, threshold=0.3, k=50)]


def assert_pnn_identical(got, want) -> None:
    """Answers, every record field, ``fmin`` and the refinement counters,
    bit for bit."""
    assert_results_identical(got, want)
    for a, b in zip(got.results, want.results):
        assert a.refined_objects == b.refined_objects
        assert a.unknown_after_verifier == b.unknown_after_verifier


def mutation_stream(engine):
    """Apply :data:`MUTATIONS` to ``engine``; yield the object sequence
    after every step."""
    mirror = list(engine.objects)
    for counter, (op, index, bars) in enumerate(MUTATIONS, start=100):
        if op == "insert":
            obj = shaped_object(counter, counter, bars)
            engine.insert(obj)
            mirror.append(obj)
        elif op == "remove":
            assert engine.remove(mirror.pop(index).key)
        else:
            obj = shaped_object(counter, index * 5 + counter, bars)
            engine.replace(mirror[index].key, obj)
            mirror[index] = obj
        yield mirror


def test_fold_columns_stay_aligned_across_kind_changing_mutations():
    """Insert / remove / replace, including a replace that turns a
    one-bar object into a multi-bar one and back: after every step
    ``execute`` and ``execute_batch`` of C-PNN, k-NN and range specs
    equal a fresh engine bit for bit, and the filter's density and key
    columns equal those read off the objects."""
    initial = [shaped_object(i, i, 1 if i % 3 else 9) for i in range(8)]
    engine = UncertainEngine(list(initial))
    specs = [
        CPNNQuery(q, threshold=0.3, tolerance=tolerance)
        for q in (4.0, 14.6, 23.0, 36.5, 51.1)
        for tolerance in (0.0, 0.01)
    ] + FAMILY_SPECS
    engine.execute_batch(specs)  # warm the table cache and snapshots
    for mirror in mutation_stream(engine):
        fresh = UncertainEngine(list(mirror))
        want = fresh.execute_batch(specs)
        assert_pnn_identical(engine.execute_batch(specs), want)
        assert_pnn_identical(engine.execute_batch(specs), want)  # replays
        for spec, cold in zip(specs, want.results):
            single = engine.execute(spec)
            assert_pnn_identical(type(want)([single]), type(want)([cold]))
        flt = engine._batch_filter
        flt._flush()
        assert flt._keys == [obj.key for obj in mirror]
        assert flt._density.tobytes() == bar_densities(mirror).tobytes()


def test_process_workers_keep_fold_columns_aligned():
    """The same stream on a 2-shard process engine, whose workers
    attach the filter's coordinate and density columns from shared
    memory and replay the mutations against them."""
    initial = [shaped_object(i, i, 1 if i % 3 else 9) for i in range(8)]
    config = EngineConfig(executor="process", process_min_batch=0)
    engine = ShardedEngine(list(initial), config, n_shards=2)
    specs = [
        CPNNQuery(q, threshold=0.3, tolerance=0.0)
        for q in (4.0, 14.6, 23.0, 36.5, 51.1, 8.2, 44.4, 29.9)
    ] + FAMILY_SPECS
    try:
        engine.execute_batch(specs)
        for mirror in mutation_stream(engine):
            fresh = UncertainEngine(list(mirror))
            want = fresh.execute_batch(specs)
            assert_pnn_identical(engine.execute_batch(specs), want)
            for spec, cold in zip(FAMILY_SPECS, want.results[-len(FAMILY_SPECS) :]):
                single = engine.execute(spec)
                assert_pnn_identical(type(want)([single]), type(want)([cold]))
        executor = engine.stats()["executor"]
        assert executor["backend"] == "process" and executor["dispatches"] > 0
        for counter in ("worker_failures", "worker_errors", "shm_fallbacks"):
            assert executor[counter] == 0, counter
        assert executor["in_process_retries"] == 0
    finally:
        engine.close()
