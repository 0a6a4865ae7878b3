"""Bench: dynamic updates — incremental maintenance vs full rebuild.

Location-based services replace uncertainty regions on every
dead-reckoning report (Section I).  Before the incremental-maintenance
layer, any interleaved update/query stream degenerated to
rebuild-from-scratch: every insert/remove discarded the whole-batch
MBR filter and the entire table cache.  This module gates the layer on
the :class:`~repro.experiments.workloads.StreamingWorkload` scenario —
2 000 moving objects, 10% dead-reckoning churn per tick, a fixed
monitoring batch — with two acceptance criteria:

* **bit-identity** — every tick's batch answers, records, and pruning
  radii are exactly equal to a *full-rebuild replica* that constructs
  a fresh engine — and the Python R-tree a full rebuild meant when
  this gate was set — over the same object set each tick;
* **≥ 3× steady-state throughput** over that replica
  (``DYNAMIC_UPDATES_SPEEDUP_FLOOR`` overrides the floor; CI uses a
  generous value because shared runners make wall-clock ratios noisy).
  The measured margin is ~4–6× locally: surviving table entries replay
  memoised results, the batch filter updates by row, and the packed
  single-query filter is only marked stale for batch-only streams.

The plain insert/remove churn benchmarks at the bottom measure the
update primitives themselves against the 10 000-object surrogate.
"""

import os
import time

import numpy as np

from repro.core.engine import UncertainEngine
from repro.core.types import CPNNQuery
from repro.datasets.longbeach import long_beach_surrogate
from repro.experiments.strategies import vr
from repro.experiments.workloads import StreamingTick, StreamingWorkload
from repro.index.str_pack import str_bulk_load
from repro.uncertainty.objects import UncertainObject

#: Streaming workload shape (acceptance: 2 000 objects, 10% churn).
STREAM_OBJECTS = 2_000
STREAM_CHURN = 0.10
STREAM_QUERIES = 24

#: Warm-up ticks before the measured window (cache steady state).
WARMUP_TICKS = 3
MEASURED_TICKS = 6

_STATE: dict = {}


class FullRebuildReplica:
    """The pre-incremental world: every update invalidates everything,
    so each tick answers its batch through a freshly built engine over
    the current object set.  Objects are replaced in place (the same
    order :meth:`UncertainEngine.replace` preserves), which is what
    makes the per-tick comparison a bit-identity check.

    The rebuild includes the Python STR R-tree that the engine built in
    its constructor until PR 22.  A fresh engine now packs its
    single-query filter from coordinate arrays (≈0.3 ms here against
    ≈7 ms for the tree), so it got cheaper while the incremental side
    did not change; the replica keeps paying for the tree so that the
    3× floor demands of the incremental side what it always did.
    Against a bare fresh engine the ratio reads ≈2.5–2.9× — whether to
    re-baseline the gate on that is ROADMAP item 1(c), not decided here.
    """

    def __init__(self, workload: StreamingWorkload) -> None:
        self._objects = workload.initial_objects()
        self._position = {obj.key: i for i, obj in enumerate(self._objects)}

    def apply(self, tick: StreamingTick) -> None:
        for key, obj in tick.replacements:
            self._objects[self._position[key]] = obj

    def run_tick(self, tick: StreamingTick):
        self.apply(tick)
        engine = UncertainEngine(list(self._objects))
        str_bulk_load(
            [(obj.mbr, obj) for obj in self._objects],
            max_entries=16,
        )
        return engine.execute_batch(list(tick.specs))


def streaming_state() -> dict:
    """Workload + pre-materialised ticks, shared across the gates."""
    if not _STATE:
        workload = StreamingWorkload(
            n_objects=STREAM_OBJECTS,
            churn=STREAM_CHURN,
            n_queries=STREAM_QUERIES,
        )
        ticks = list(workload.ticks(WARMUP_TICKS + MEASURED_TICKS))
        _STATE["workload"] = workload
        _STATE["warmup"] = ticks[:WARMUP_TICKS]
        _STATE["measured"] = ticks[WARMUP_TICKS:]
    return _STATE


def run_incremental(engine: UncertainEngine, ticks) -> list:
    """Apply each tick's reports and answer its batch, incrementally."""
    results = []
    for tick in ticks:
        StreamingWorkload.apply(engine, tick)
        results.append(engine.execute_batch(list(tick.specs)))
    return results


def run_replica(replica: FullRebuildReplica, ticks) -> list:
    return [replica.run_tick(tick) for tick in ticks]


def _assert_batches_identical(incremental, rebuilt) -> None:
    for inc_batch, rep_batch in zip(incremental, rebuilt):
        assert len(inc_batch.results) == len(rep_batch.results)
        for a, b in zip(inc_batch.results, rep_batch.results):
            assert a.answers == b.answers
            assert a.fmin == b.fmin
            assert len(a.records) == len(b.records)
            for x, y in zip(a.records, b.records):
                assert (x.key, x.label, x.lower, x.upper, x.exact) == (
                    y.key,
                    y.label,
                    y.lower,
                    y.upper,
                    y.exact,
                )


def test_streaming_identical_to_full_rebuild():
    """Acceptance (a): the interleaved stream is answer-identical —
    bit for bit, records included — to the full-rebuild replica."""
    state = streaming_state()
    workload = state["workload"]
    engine = workload.make_engine()
    replica = FullRebuildReplica(workload)
    ticks = state["warmup"] + state["measured"]
    _assert_batches_identical(
        run_incremental(engine, ticks), run_replica(replica, ticks)
    )


def test_streaming_speedup_over_full_rebuild():
    """Acceptance (b): ≥ 3× steady-state throughput over the replica.

    Both sides replay the *same* pre-materialised ticks; the
    incremental engine is warmed first so the measured window is the
    steady state the layer targets.  ``DYNAMIC_UPDATES_SPEEDUP_FLOOR``
    overrides the floor (generous in CI).
    """
    state = streaming_state()
    workload = state["workload"]
    engine = workload.make_engine()
    replica = FullRebuildReplica(workload)
    run_incremental(engine, state["warmup"])
    for tick in state["warmup"]:
        replica.apply(tick)

    tick0 = time.perf_counter()
    incremental = run_incremental(engine, state["measured"])
    incremental_s = time.perf_counter() - tick0
    tick0 = time.perf_counter()
    rebuilt = run_replica(replica, state["measured"])
    replica_s = time.perf_counter() - tick0

    _assert_batches_identical(incremental, rebuilt)
    replayed = sum(batch.result_hits for batch in incremental)
    assert replayed > 0, "steady state should replay some memoised results"

    floor = float(os.environ.get("DYNAMIC_UPDATES_SPEEDUP_FLOOR", "3.0"))
    speedup = replica_s / incremental_s
    assert speedup >= floor, (
        f"incremental maintenance must be ≥{floor:.1f}x a full-rebuild "
        f"replica at steady state, got {speedup:.2f}x (incremental "
        f"{incremental_s * 1e3:.1f} ms, replica {replica_s * 1e3:.1f} ms "
        f"over {MEASURED_TICKS} ticks)"
    )


def test_streaming_benchmark(benchmark):
    """pytest-benchmark view of one steady-state tick."""
    state = streaming_state()
    workload = state["workload"]
    engine = workload.make_engine()
    run_incremental(engine, state["warmup"] + state["measured"])
    ticks = state["measured"]
    index = [0]

    def one_tick():
        tick = ticks[index[0] % len(ticks)]
        index[0] += 1
        StreamingWorkload.apply(engine, tick)
        return engine.execute_batch(list(tick.specs))

    benchmark.group = "dynamic updates"
    benchmark.name = (
        f"streaming tick ({STREAM_OBJECTS} obj, "
        f"{int(STREAM_CHURN * 100)}% churn, {STREAM_QUERIES} specs)"
    )
    benchmark(one_tick)


# ----------------------------------------------------------------------
# Update-primitive churn benchmarks (10 000-object surrogate)
# ----------------------------------------------------------------------

_ENGINE: list[UncertainEngine] = []


def engine() -> UncertainEngine:
    if not _ENGINE:
        _ENGINE.append(UncertainEngine(long_beach_surrogate(n=10_000)))
    return _ENGINE[0]


def test_insert_remove_cycle(benchmark):
    eng = engine()
    rng = np.random.default_rng(5)

    def churn():
        keys = []
        for i in range(50):
            center = float(rng.uniform(0, 10_000))
            obj = UncertainObject.uniform(("churn", i), center - 5, center + 5)
            eng.insert(obj)
            keys.append(obj.key)
        for key in keys:
            assert eng.remove(key)

    benchmark.group = "dynamic updates"
    benchmark.name = "50 insert + 50 remove"
    benchmark(churn)


def test_replace_cycle(benchmark):
    """The dead-reckoning primitive: in-place replacement by key."""
    eng = engine()
    rng = np.random.default_rng(7)
    keys = [obj.key for obj in eng.objects[:50]]

    def churn():
        for key in keys:
            center = float(rng.uniform(0, 10_000))
            eng.replace(
                key, UncertainObject.uniform(key, center - 5, center + 5)
            )

    benchmark.group = "dynamic updates"
    benchmark.name = "50 in-place replace"
    benchmark(churn)


def test_query_after_churn(benchmark):
    eng = engine()
    rng = np.random.default_rng(6)
    # Steady-state churn, then measure query latency (should match the
    # static engine's — see fig10 bench).
    for i in range(200):
        center = float(rng.uniform(0, 10_000))
        eng.insert(UncertainObject.uniform(("steady", i), center - 5, center + 5))
    benchmark.group = "dynamic updates"
    benchmark.name = "query after churn"
    # Cold every round: a repeated spec would replay its cached result.
    benchmark(lambda: vr(eng, CPNNQuery(5_000.0, threshold=0.3, tolerance=0.01)))
    for i in range(200):
        eng.remove(("steady", i))
