"""Record a performance-trajectory snapshot: ``BENCH_columnar.json``.

Runs the columnar phase-breakdown benchmark (scalar PR-1 replica vs
columnar pipeline, per-phase timings) and the batch-throughput
benchmarks (sequential ``execute`` loop vs ``execute_batch`` for
C-PNN specs, plus the routed k-NN and range batch paths against their
scalar reference loops), then writes one JSON document with the raw
seconds, the relative speedups, and the workload shape.  Future PRs re-run this script and diff the
committed snapshot to catch performance regressions without relying on
absolute wall-clock numbers from someone else's machine.

Usage::

    python benchmarks/record_bench.py [--output BENCH_columnar.json]
                                      [--repeats 3]

Wall-clock numbers are machine-dependent; the speedup ratios are the
comparable quantities.  CI uploads the JSON as a workflow artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import sysconfig

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    # Running outside pytest (which supplies pythonpath=src) against a
    # non-installed checkout: use the src layout directly.
    sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import test_batch_throughput as throughput_bench  # noqa: E402
import test_columnar_speedup as columnar_bench  # noqa: E402
import test_dynamic_updates as dynamic_bench  # noqa: E402
import test_moving_queries as moving_bench  # noqa: E402
import test_out_of_core as out_of_core_bench  # noqa: E402
import test_parametric_init as parametric_bench  # noqa: E402
import test_service_latency as service_bench  # noqa: E402
import test_sharded_parallel as sharded_bench  # noqa: E402

from repro.core.engine import EngineConfig  # noqa: E402
from repro.core.engine.executors.base import resolve_backend  # noqa: E402

#: Shared best-of-N timing loop — the same reduction the pytest
#: speedup gates use, so the snapshot and the gates measure alike.
_best_of = throughput_bench._best_of


def _environment(executor: str) -> dict:
    """The execution-substrate facts every BENCH entry carries, so a
    diff between snapshots from different machines (or executor
    backends) is interpretable: a 1-core container and a 16-core
    workstation legitimately disagree about parallel speedups."""
    return {
        "cpu_count": os.cpu_count(),
        "free_threaded": bool(sysconfig.get_config_var("Py_GIL_DISABLED")),
        "executor": executor,
    }


def measure_batch_throughput(repeats: int) -> dict:
    """Best-of-``repeats`` sequential execute() loop vs execute_batch."""
    engine, points = throughput_bench.engine_and_points()
    specs = throughput_bench.pnn_specs(points)
    sequential = _best_of(
        repeats, lambda: throughput_bench.run_sequential(engine, points)
    )
    batch = _best_of(repeats, lambda: engine.execute_batch(specs))
    return {
        "objects": throughput_bench.BATCH_OBJECTS,
        "points": throughput_bench.BATCH_POINTS,
        "threshold": throughput_bench.THRESHOLD,
        "tolerance": throughput_bench.TOLERANCE,
        "sequential_s": sequential,
        "execute_batch_s": batch,
        "speedup": sequential / batch,
        **_environment("serial"),
    }


def measure_knn_throughput(repeats: int) -> dict:
    """k-NN execute_batch vs the ``scalar_knn_query`` reference loop.

    The scalar baseline is orders of magnitude slower (it skips MBR
    filtering and integrates against all objects), so it is timed once
    on a small point sample and the speedup compares per-query times —
    the same protocol as the acceptance gate in
    ``test_batch_throughput.py``.
    """
    engine, points = throughput_bench.engine_and_points()
    specs = throughput_bench.knn_specs(points)
    legacy_per_query = _best_of(
        1, lambda: throughput_bench.run_knn_legacy(engine, points)
    ) / throughput_bench.KNN_LEGACY_POINTS
    batch_per_query = _best_of(
        repeats, lambda: engine.execute_batch(specs)
    ) / len(specs)
    return {
        "objects": throughput_bench.BATCH_OBJECTS,
        "points": len(specs),
        "k": throughput_bench.KNN_K,
        "threshold": throughput_bench.KNN_THRESHOLD,
        "scalar_loop_s_per_query": legacy_per_query,
        "execute_batch_s_per_query": batch_per_query,
        "speedup": legacy_per_query / batch_per_query,
        **_environment("serial"),
    }


def measure_range_throughput(repeats: int) -> dict:
    """Range execute_batch vs the ``scalar_range_query`` reference loop.

    ``records_per_query`` sits beside the timing so that a regression to
    N-shaped output (one record per object, not per candidate) shows as
    a count against ``objects``, not only as a ratio.
    """
    engine, points = throughput_bench.engine_and_points()
    specs = throughput_bench.range_specs(points)
    results = engine.execute_batch(specs).results
    legacy = _best_of(
        repeats, lambda: throughput_bench.run_range_legacy(engine, points)
    )
    batch = _best_of(repeats, lambda: engine.execute_batch(specs))
    return {
        "objects": throughput_bench.BATCH_OBJECTS,
        "points": len(specs),
        "radius": throughput_bench.RANGE_RADIUS,
        "threshold": throughput_bench.RANGE_THRESHOLD,
        "scalar_loop_s": legacy,
        "execute_batch_s": batch,
        "speedup": legacy / batch,
        "records_per_query": sum(len(r.records) for r in results) / len(specs),
        **_environment("serial"),
    }


def measure_dynamic_updates(repeats: int) -> dict:
    """Streaming update/query stream: incremental engine vs a
    full-rebuild replica (fresh engine per tick), best-of-``repeats``.

    Fresh engines/replicas per repetition replay the same
    pre-materialised ticks, so the two pipelines time identical work.
    """
    import time

    state = dynamic_bench.streaming_state()
    workload = state["workload"]

    def run_incremental():
        engine = workload.make_engine()
        dynamic_bench.run_incremental(engine, state["warmup"])
        tick = time.perf_counter()
        dynamic_bench.run_incremental(engine, state["measured"])
        return time.perf_counter() - tick

    def run_replica():
        replica = dynamic_bench.FullRebuildReplica(workload)
        for t in state["warmup"]:
            replica.apply(t)
        tick = time.perf_counter()
        dynamic_bench.run_replica(replica, state["measured"])
        return time.perf_counter() - tick

    incremental = min(run_incremental() for _ in range(repeats))
    replica = min(run_replica() for _ in range(repeats))
    ticks = dynamic_bench.MEASURED_TICKS
    return {
        "objects": dynamic_bench.STREAM_OBJECTS,
        "churn_per_tick": dynamic_bench.STREAM_CHURN,
        "specs_per_tick": dynamic_bench.STREAM_QUERIES,
        "measured_ticks": ticks,
        "incremental_s_per_tick": incremental / ticks,
        "full_rebuild_s_per_tick": replica / ticks,
        "speedup": replica / incremental,
        **_environment("serial"),
    }


def measure_moving_queries(repeats: int) -> dict:
    """Continuous monitoring fleet: safe-region ticks vs re-executing
    all registered queries per tick (DESIGN.md §17), best-of-``repeats``.

    Fresh engines/monitors per repetition replay the same
    pre-materialised ticks; the recorded escape rate is the worst
    measured tick's (the acceptance gate bounds it at 10%).
    """
    import time

    from repro.continuous import ContinuousMonitor

    state = moving_bench.moving_state()
    workload = state["workload"]

    def run_baseline():
        engine = workload.make_engine()
        moving_bench.run_baseline(engine, state["warmup"])
        tick = time.perf_counter()
        moving_bench.run_baseline(engine, state["measured"])
        return time.perf_counter() - tick

    def run_monitored():
        monitor = ContinuousMonitor(workload.make_engine())
        monitor.register_many(list(workload.specs))
        moving_bench.run_monitored(monitor, state["warmup"])
        tick = time.perf_counter()
        reports = moving_bench.run_monitored(monitor, state["measured"])
        return time.perf_counter() - tick, reports

    baseline = min(run_baseline() for _ in range(repeats))
    timed = [run_monitored() for _ in range(repeats)]
    monitored = min(seconds for seconds, _ in timed)
    reports = timed[0][1]
    ticks = moving_bench.MEASURED_TICKS
    return {
        "objects": moving_bench.MOVING_OBJECTS,
        "churn_per_tick": moving_bench.MOVING_CHURN,
        "registered_queries": moving_bench.MOVING_QUERIES,
        "measured_ticks": ticks,
        "reexecute_all_s_per_tick": baseline / ticks,
        "monitored_s_per_tick": monitored / ticks,
        "speedup": baseline / monitored,
        "max_escape_rate": max(r.escape_rate for r in reports),
        **_environment("serial"),
    }


def measure_sharded_parallel(repeats: int) -> dict:
    """Sharded vs single-engine cold batch throughput (DESIGN.md §12).

    Both pipelines rebuild their engines per repetition and time one
    cold ``execute_batch`` — warm repetitions would replay memoised
    result snapshots in both and measure only the cache.  The speedup
    is machine-shaped: ~1× (pure fan-out overhead) on one core, ≥ 2×
    expected from 4 cores (the ``test_sharded_parallel.py`` gate).
    """
    objects, specs = sharded_bench.objects_and_specs()
    single = min(
        sharded_bench._cold_single(objects, specs)[0] for _ in range(repeats)
    )
    sharded = min(
        sharded_bench._cold_sharded(objects, specs)[0] for _ in range(repeats)
    )
    return {
        "objects": sharded_bench.SHARDED_OBJECTS,
        "points": sharded_bench.SHARDED_POINTS,
        "mean_interval_length": sharded_bench.MEAN_LENGTH,
        "n_shards": sharded_bench.N_SHARDS,
        "single_cold_s": single,
        "sharded_cold_s": sharded,
        "speedup": single / sharded,
        # _cold_sharded leaves the executor at "auto": stamp what it
        # resolves to on this box (process on >= 2 GIL cores).
        **_environment(resolve_backend(EngineConfig())),
    }


def measure_process_executor(repeats: int) -> dict:
    """Process-backend sharded vs single-engine cold batch throughput
    (DESIGN.md §13): same workload and protocol as
    :func:`measure_sharded_parallel`, but the C-PNN fan-out ships to a
    pre-warmed spawn-based worker pool.  On a 1-core container the
    speedup records the pipe/pickle overhead; with ≥ 4 cores the
    ``test_sharded_parallel.py`` gate demands ≥ 1.6×.
    """
    objects, specs = sharded_bench.objects_and_specs()
    single = min(
        sharded_bench._cold_single(objects, specs)[0] for _ in range(repeats)
    )
    process = min(
        sharded_bench._cold_sharded_process(objects, specs)[0]
        for _ in range(repeats)
    )
    return {
        "objects": sharded_bench.SHARDED_OBJECTS,
        "points": sharded_bench.SHARDED_POINTS,
        "mean_interval_length": sharded_bench.MEAN_LENGTH,
        "n_shards": sharded_bench.N_SHARDS,
        "single_cold_s": single,
        "process_cold_s": process,
        "speedup": single / process,
        **_environment("process"),
    }


def measure_parametric_init(repeats: int) -> dict:
    """Parametric vs eager-histogram initialisation on the Gaussian
    workload (DESIGN.md §15): object-set build plus per-query
    initialisation for a fig14-style batch, best-of-``repeats``, with
    every repetition's answer sets cross-checked for contract
    compatibility.  The init speedup is the issue's gated quantity
    (≥ 3x locally)."""
    return {
        **parametric_bench.measure(repeats),
        **_environment("serial"),
    }


def measure_service_latency(repeats: int) -> dict:
    """``max_batch=32`` vs ``max_batch=1`` (one query per dispatch)
    under the same burst (DESIGN.md §14): client-observed p50/p99 and
    served QPS for both configurations, answers identity-checked
    first.  Neither side waits on a timer, so the p50 speedup isolates
    the micro-batch amortisation from the shared asyncio plumbing.
    The ``mixed_traffic`` sub-entry replays query waves separated by
    awaited inserts — correctness-gated in the bench suite, timing
    recorded here."""
    return {
        **service_bench.measure(repeats),
        "mixed_traffic": service_bench.measure_mixed(repeats),
        **_environment("serial"),
    }


def measure_out_of_core(repeats: int) -> dict:
    """Paged (mmap, cold pool) vs resident full-corpus cdf sweep
    (DESIGN.md §16): the slowdown of page-granular streaming is the
    recorded trajectory quantity — identity and deterministic fault
    accounting are gated in ``test_out_of_core.py``, not here."""
    return {
        **out_of_core_bench.measure(repeats),
        **_environment("serial"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        default="BENCH_columnar.json",
        help="where to write the snapshot (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="repetitions per pipeline; best run is recorded",
    )
    args = parser.parse_args(argv)

    _, _, distributions = columnar_bench.workload()
    sizes = [len(d) for d in distributions]
    snapshot = {
        "bench": "columnar-kernels",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": {
            "objects": columnar_bench.BENCH_OBJECTS,
            "points": columnar_bench.BENCH_POINTS,
            "mean_interval_length": columnar_bench.MEAN_LENGTH,
            "avg_candidates": float(np.mean(sizes)),
            "max_candidates": int(max(sizes)),
            "strategy": "vr",
        },
        "phase_breakdown": {
            "primary": columnar_bench.measure(
                columnar_bench.PRIMARY, repeats=args.repeats
            ),
            "refinement_stress": columnar_bench.measure(
                columnar_bench.REFINEMENT_STRESS, repeats=args.repeats
            ),
        },
        "batch_throughput": measure_batch_throughput(args.repeats),
        "knn_batch_throughput": measure_knn_throughput(args.repeats),
        "range_batch_throughput": measure_range_throughput(args.repeats),
        "dynamic_updates": measure_dynamic_updates(args.repeats),
        "moving_queries": measure_moving_queries(args.repeats),
        "sharded_parallel": measure_sharded_parallel(args.repeats),
        "process_executor": measure_process_executor(args.repeats),
        "service_latency": measure_service_latency(args.repeats),
        "parametric_init": measure_parametric_init(args.repeats),
        "out_of_core": measure_out_of_core(args.repeats),
    }
    with open(args.output, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=False)
        handle.write("\n")
    primary = snapshot["phase_breakdown"]["primary"]["speedup"]
    print(
        f"wrote {args.output}: primary combined speedup "
        f"{primary['combined']:.2f}x "
        f"(init {primary['initialization']:.2f}x), batch throughput "
        f"{snapshot['batch_throughput']['speedup']:.2f}x, "
        f"knn batch {snapshot['knn_batch_throughput']['speedup']:.0f}x, "
        f"range batch {snapshot['range_batch_throughput']['speedup']:.2f}x, "
        f"dynamic updates {snapshot['dynamic_updates']['speedup']:.2f}x, "
        f"moving queries {snapshot['moving_queries']['speedup']:.0f}x, "
        f"service p50 {snapshot['service_latency']['p50_speedup']:.2f}x, "
        f"parametric init {snapshot['parametric_init']['init_speedup']:.2f}x, "
        f"paged sweep {snapshot['out_of_core']['paged_slowdown']:.2f}x resident"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
