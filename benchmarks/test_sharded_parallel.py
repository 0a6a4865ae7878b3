"""Bench: shard-parallel batch throughput vs the single engine.

The acceptance gate of DESIGN.md §12: on the 4,000-object / 200-point
dense C-PNN workload, ``ShardedEngine.execute_batch`` must deliver
**≥ 2× the single-engine batch throughput when ≥ 4 cores are
available** — answers, records, and bounds asserted bit-identical
first, so the speedup can never be bought with approximation.  Both
pipelines are timed *cold* (fresh engines per repetition, best-of-N):
warm repetitions replay memoised result snapshots in both engines and
would measure nothing but the cache.

A wall-clock ratio measured on fewer than 4 usable cores says more
about the scheduler than about the fan-out, so there the speedup gates
only *print* what they measured and the tests pass on identity alone.
``SHARDED_SPEEDUP_FLOOR`` turns the gate on at any core count (CI's
bench-smoke pins one generous value per step for its small shared
runners); cores are counted through the process's affinity mask where
the platform has one, so ``taskset`` and container cpusets count.

The streaming test extends the dynamic-equivalence harness to the
sharded engine: the same memoised dead-reckoning stream drives a
sharded and a single engine side by side, and every tick's monitoring
batch must match to the bit while the churn invalidates lane caches.
"""

import os
import time

import numpy as np

from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CPNNQuery
from repro.datasets.longbeach import long_beach_surrogate
from repro.experiments.workloads import StreamingWorkload

#: Workload shape fixed by the acceptance gate.
SHARDED_OBJECTS = 4_000
SHARDED_POINTS = 200

#: Dense candidate sets (~180 per query) keep the per-query work
#: numpy-bound, which is what the lane fan-out parallelises.
MEAN_LENGTH = 400.0

THRESHOLD = 0.35
TOLERANCE = 0.01

#: Lanes (and, under the process backend, workers): one per usable
#: core up to the gate's four.
N_SHARDS = min(4, os.cpu_count() or 1)

_STATE: dict = {}


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def _gate(
    capsys, name: str, speedup: float, local_floor: float, detail: str
) -> None:
    """Assert ``speedup`` against its floor, or print it when ungated.

    ``SHARDED_SPEEDUP_FLOOR`` always sets the floor; without it
    ``local_floor`` applies from 4 usable cores up and nothing below.
    The ungated report bypasses pytest's capture, so a plain
    ``pytest -q`` run still shows the measured ratio.
    """
    cores = _usable_cores()
    report = f"{name} execute_batch speedup {speedup:.2f}x ({detail})"
    env = os.environ.get("SHARDED_SPEEDUP_FLOOR")
    if env is None and cores < 4:
        with capsys.disabled():
            print(
                f"\n{report}; not gated on {cores} usable cores "
                f"(set SHARDED_SPEEDUP_FLOOR to gate)"
            )
        return
    floor = local_floor if env is None else float(env)
    assert speedup >= floor, (
        f"{report} below floor {floor}x on {cores} usable cores; "
        f"override with SHARDED_SPEEDUP_FLOOR"
    )


def objects_and_specs():
    if not _STATE:
        objects = long_beach_surrogate(n=SHARDED_OBJECTS, mean_length=MEAN_LENGTH)
        rng = np.random.default_rng(20080407)
        points = rng.uniform(0.0, 10_000.0, size=SHARDED_POINTS)
        specs = [
            CPNNQuery(float(q), threshold=THRESHOLD, tolerance=TOLERANCE)
            for q in points
        ]
        _STATE["objects"] = objects
        _STATE["specs"] = specs
    return _STATE["objects"], _STATE["specs"]


def _assert_identical(got, want):
    assert len(got.results) == len(want.results)
    for a, b in zip(got.results, want.results):
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


def _cold_single(objects, specs) -> tuple[float, object]:
    engine = UncertainEngine(list(objects))
    tick = time.perf_counter()
    batch = engine.execute_batch(specs)
    return time.perf_counter() - tick, batch


def _cold_sharded(objects, specs) -> tuple[float, object]:
    with ShardedEngine(list(objects), n_shards=N_SHARDS) as engine:
        tick = time.perf_counter()
        batch = engine.execute_batch(specs)
        elapsed = time.perf_counter() - tick
    return elapsed, batch


def _cold_sharded_process(objects, specs) -> tuple[float, object]:
    """Cold batch on the process backend with a pre-warmed pool: the
    engines (and worker replicas) are fresh, so every query runs the
    full pipeline, but spawn+attach happen before the clock starts —
    the steady-state serving regime the backend exists for."""
    with ShardedEngine(
        list(objects), EngineConfig(executor="process"), n_shards=N_SHARDS
    ) as engine:
        engine.warm_executor()
        tick = time.perf_counter()
        batch = engine.execute_batch(specs)
        elapsed = time.perf_counter() - tick
    return elapsed, batch


def test_sharded_parallel_speedup_and_identity(capsys):
    """The gate: bit-identity always; ≥ 2× throughput with ≥ 4 cores."""
    objects, specs = objects_and_specs()
    single_s, single_batch = _cold_single(objects, specs)
    sharded_s, sharded_batch = _cold_sharded(objects, specs)
    _assert_identical(sharded_batch, single_batch)
    for _ in range(2):
        single_s = min(single_s, _cold_single(objects, specs)[0])
        sharded_s = min(sharded_s, _cold_sharded(objects, specs)[0])
    _gate(
        capsys,
        "sharded",
        single_s / sharded_s,
        2.0,
        f"single {single_s * 1e3:.0f} ms, sharded {sharded_s * 1e3:.0f} ms",
    )


def test_process_executor_speedup_and_identity(capsys):
    """The process-backend gate: bit-identity always; ≥ 1.6× cold-batch
    throughput with ≥ 4 cores (pool pre-warmed, spawn excluded)."""
    objects, specs = objects_and_specs()
    single_s, single_batch = _cold_single(objects, specs)
    process_s, process_batch = _cold_sharded_process(objects, specs)
    _assert_identical(process_batch, single_batch)
    for _ in range(2):
        single_s = min(single_s, _cold_single(objects, specs)[0])
        process_s = min(process_s, _cold_sharded_process(objects, specs)[0])
    _gate(
        capsys,
        "process-executor",
        single_s / process_s,
        1.6,
        f"single {single_s * 1e3:.0f} ms, process {process_s * 1e3:.0f} ms",
    )


def test_sharded_warm_replay_identity():
    """Warm lane caches replay exactly like the single engine's."""
    objects, specs = objects_and_specs()
    single = UncertainEngine(list(objects))
    with ShardedEngine(list(objects), n_shards=N_SHARDS) as sharded:
        cold = single.execute_batch(specs)
        _assert_identical(sharded.execute_batch(specs), cold)
        warm = sharded.execute_batch(specs)
        _assert_identical(warm, single.execute_batch(specs))
        assert warm.result_hits == len(specs)


def test_sharded_streaming_equivalence():
    """The streaming harness, extended to the sharded engine: every tick
    of a dead-reckoning churn stream answers bit-identically on the
    sharded and the single engine."""
    workload = StreamingWorkload(
        n_objects=600, churn=0.10, n_queries=12, seed=20080407
    )
    single = workload.make_engine()
    with workload.make_sharded_engine(n_shards=N_SHARDS) as sharded:
        for tick in workload.ticks(6):
            workload.apply(single, tick)
            workload.apply(sharded, tick)
            _assert_identical(
                sharded.execute_batch(list(tick.specs)),
                single.execute_batch(list(tick.specs)),
            )
        assert len(sharded) == 600


def test_sharded_parallel_accounting_reported():
    """The stats()/explain() speedup observability is populated."""
    objects, specs = objects_and_specs()
    with ShardedEngine(list(objects), n_shards=N_SHARDS) as sharded:
        sharded.execute_batch(specs[:40])
        parallel = sharded.stats()["shards"]["parallel"]
        assert parallel["specs"] == 40
        assert parallel["wall_s"] > 0.0
        assert parallel["lane_s"] > 0.0
        assert parallel["lanes_used"] >= 1
