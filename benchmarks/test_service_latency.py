"""Bench: coalesced service latency vs a one-query-per-dispatch loop.

The service exists so ad-hoc single-query traffic rides the engine's
batch amortisation (shared endpoint sweeps, shared subregion tables).
This bench offers the same burst of single-query submissions to two
service configurations:

* **naive** — ``max_batch=1``: every request is its own engine
  dispatch, exactly a sequential ``execute`` loop with asyncio
  plumbing on top;
* **coalesced** — ``max_batch=32``: whatever queued behind the engine
  call in flight rides the next one as a micro-batch.

Both runs serve the identical burst on a cold engine, both report
client-observed p50/p99 latency (submit → reply, queueing included)
and served QPS, and the answers are asserted identical across runs
before any timing is compared — the speedup can never be bought with
approximation.

The speedup is gated only when ``SERVICE_COALESCE_SPEEDUP_FLOOR`` is
set (CI's bench-smoke sets it); otherwise the measured ratio is
printed and the test passes on identity and batch formation alone — a
wall-clock ratio on a small shared box says more about the scheduler
than about coalescing (same rule as ``_gate`` in
``test_sharded_parallel.py``).  Timings are best-of-3 on both sides:
one slow outlier run (GC pause, noisy neighbour) cannot fail the gate,
only a *consistent* regression can.

A second case offers **mixed traffic** — waves of concurrent queries
separated by awaited engine mutations, so every wave sees a different
object set.  Mutations serialise the dispatch loop, which makes the
speedup noisy, so the mixed gate is correctness-shaped: identical
answers between the two configurations (the mutation barriers make the
interleaving deterministic), answers that actually change across waves
(the updates are visible), and micro-batches that still form.  The
timings are recorded for the BENCH snapshot, not gated.
"""

import asyncio
import os
import time

import numpy as np

from repro.core.engine import UncertainEngine
from repro.core.types import CPNNQuery
from repro.datasets.longbeach import long_beach_surrogate
from repro.service import QueryService, ServiceConfig
from repro.uncertainty.objects import UncertainObject

SERVICE_OBJECTS = 2_000
SERVICE_POINTS = 96
THRESHOLD = 0.3
TOLERANCE = 0.0

COALESCE_MAX_BATCH = 32

#: Mixed-traffic shape: ``MIXED_WAVES`` bursts of ``MIXED_POINTS``
#: concurrent queries, separated by one awaited insert per wave.
MIXED_WAVES = 4
MIXED_POINTS = 24

#: Timing repetitions for both cases — the best run is kept, so a
#: single noisy repetition cannot fail a gate.
BEST_OF = 3

_STATE: dict = {}


def objects_and_specs():
    if not _STATE:
        objects = long_beach_surrogate(n=SERVICE_OBJECTS)
        rng = np.random.default_rng(20080407)
        points = rng.uniform(0.0, 10_000.0, size=SERVICE_POINTS)
        specs = [
            CPNNQuery(float(q), threshold=THRESHOLD, tolerance=TOLERANCE)
            for q in points
        ]
        _STATE["objects"] = objects
        _STATE["specs"] = specs
    return _STATE["objects"], _STATE["specs"]


def serve_burst(max_batch: int) -> dict:
    """Offer the whole burst at once to a fresh cold engine behind a
    service; return client-observed latencies and answers."""
    objects, specs = objects_and_specs()
    engine = UncertainEngine(list(objects))
    config = ServiceConfig(
        max_batch=max_batch,
        max_queue=max(len(specs) * 2, 256),
    )

    async def main():
        async with QueryService(engine, config) as service:
            latencies = [0.0] * len(specs)
            answers = [None] * len(specs)

            async def one(index, spec):
                tick = time.perf_counter()
                reply = await service.submit(spec)
                latencies[index] = time.perf_counter() - tick
                answers[index] = reply.result.answers

            tick = time.perf_counter()
            await asyncio.gather(
                *[one(i, s) for i, s in enumerate(specs)]
            )
            wall = time.perf_counter() - tick
            return latencies, answers, wall, service.stats()

    latencies, answers, wall, stats = asyncio.run(main())
    return {
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "qps": len(specs) / wall,
        "wall_s": wall,
        "mean_batch": stats["mean_batch"],
        "answers": answers,
    }


def mixed_specs():
    """Per-wave query specs for the mixed case — a deterministic slice
    of the main burst's point stream, re-thresholded per wave."""
    _, specs = objects_and_specs()
    return [
        [specs[(w * MIXED_POINTS + i) % len(specs)] for i in range(MIXED_POINTS)]
        for w in range(MIXED_WAVES)
    ]


def serve_mixed_burst(max_batch: int) -> dict:
    """Waves of concurrent queries separated by awaited inserts.

    Each wave's insert is a barrier: it is awaited before the wave's
    queries are offered, so every query in wave ``w`` sees exactly the
    base objects plus inserts ``0..w`` in *both* service
    configurations — the answers are comparable even though the two
    runs batch differently.
    """
    objects, _ = objects_and_specs()
    waves = mixed_specs()
    engine = UncertainEngine(list(objects))
    config = ServiceConfig(
        max_batch=max_batch,
        max_queue=max(MIXED_WAVES * MIXED_POINTS * 2, 256),
    )

    async def main():
        async with QueryService(engine, config) as service:
            latencies: list[float] = []
            answers: list[list] = []

            async def one(sink, spec):
                tick = time.perf_counter()
                reply = await service.submit(spec)
                sink.append(time.perf_counter() - tick)
                return reply.result.answers

            tick = time.perf_counter()
            for wave, specs in enumerate(waves):
                # The hot object lands mid-range so wave answers differ.
                low = 2_000.0 + 1_500.0 * wave
                await service.insert(
                    UncertainObject.uniform(f"hot-{wave}", low, low + 250.0)
                )
                answers.append(
                    list(
                        await asyncio.gather(
                            *[one(latencies, s) for s in specs]
                        )
                    )
                )
            wall = time.perf_counter() - tick
            return latencies, answers, wall, service.stats()

    latencies, answers, wall, stats = asyncio.run(main())
    return {
        "p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "qps": (MIXED_WAVES * MIXED_POINTS) / wall,
        "wall_s": wall,
        "mean_batch": stats["mean_batch"],
        "answers": answers,
    }


def _best_of(repeats: int, runner, reference: list) -> dict:
    """Best-of-``repeats`` (by p50) runs of ``runner``; every run's
    answers must equal ``reference`` before its timing may count."""
    best = None
    for _ in range(repeats):
        candidate = runner()
        assert candidate["answers"] == reference
        if best is None or candidate["p50_ms"] < best["p50_ms"]:
            best = candidate
    return best


def measure(repeats: int = BEST_OF) -> dict:
    """Best-of-``repeats`` for both configurations, identity-checked."""
    reference = serve_burst(1)
    naive = _best_of(
        repeats - 1, lambda: serve_burst(1), reference["answers"]
    ) if repeats > 1 else reference
    if reference["p50_ms"] < naive["p50_ms"]:
        naive = reference
    coalesced = _best_of(
        repeats,
        lambda: serve_burst(COALESCE_MAX_BATCH),
        reference["answers"],
    )
    return {
        "objects": SERVICE_OBJECTS,
        "points": SERVICE_POINTS,
        "threshold": THRESHOLD,
        "tolerance": TOLERANCE,
        "max_batch": COALESCE_MAX_BATCH,
        "naive_p50_ms": naive["p50_ms"],
        "naive_p99_ms": naive["p99_ms"],
        "naive_qps": naive["qps"],
        "coalesced_p50_ms": coalesced["p50_ms"],
        "coalesced_p99_ms": coalesced["p99_ms"],
        "coalesced_qps": coalesced["qps"],
        "coalesced_mean_batch": coalesced["mean_batch"],
        "p50_speedup": naive["p50_ms"] / coalesced["p50_ms"],
        "qps_speedup": coalesced["qps"] / naive["qps"],
    }


def measure_mixed(repeats: int = BEST_OF) -> dict:
    """Best-of-``repeats`` mixed query/update traffic, identity-checked
    per wave between the two configurations."""
    reference = serve_mixed_burst(1)
    naive = _best_of(
        repeats - 1, lambda: serve_mixed_burst(1), reference["answers"]
    ) if repeats > 1 else reference
    if reference["p50_ms"] < naive["p50_ms"]:
        naive = reference
    coalesced = _best_of(
        repeats,
        lambda: serve_mixed_burst(COALESCE_MAX_BATCH),
        reference["answers"],
    )
    # The per-wave inserts must be visible: at least one adjacent pair
    # of waves answers its (repeated) specs differently.
    waves = reference["answers"]
    assert any(a != b for a, b in zip(waves, waves[1:])), (
        "mixed-traffic inserts never changed any answer — the case "
        "degenerated into a pure query burst"
    )
    return {
        "waves": MIXED_WAVES,
        "points_per_wave": MIXED_POINTS,
        "updates": MIXED_WAVES,
        "naive_p50_ms": naive["p50_ms"],
        "naive_p99_ms": naive["p99_ms"],
        "naive_qps": naive["qps"],
        "coalesced_p50_ms": coalesced["p50_ms"],
        "coalesced_p99_ms": coalesced["p99_ms"],
        "coalesced_qps": coalesced["qps"],
        "coalesced_mean_batch": coalesced["mean_batch"],
        "p50_speedup": naive["p50_ms"] / coalesced["p50_ms"],
    }


def test_coalesced_service_beats_naive_loop(capsys):
    """The gate: identical answers and micro-batches always; best-of-3
    coalesced p50 under burst load beats the one-query-per-dispatch
    loop's best-of-3 by ``SERVICE_COALESCE_SPEEDUP_FLOOR`` when set."""
    snapshot = measure(repeats=BEST_OF)
    assert snapshot["coalesced_mean_batch"] > 1.5, (
        "coalescer never formed micro-batches "
        f"(mean batch {snapshot['coalesced_mean_batch']:.2f})"
    )
    report = (
        f"coalesced p50 {snapshot['coalesced_p50_ms']:.1f} ms is "
        f"{snapshot['p50_speedup']:.2f}x the naive loop's "
        f"{snapshot['naive_p50_ms']:.1f} ms"
    )
    env = os.environ.get("SERVICE_COALESCE_SPEEDUP_FLOOR")
    if env is None:
        with capsys.disabled():
            print(f"\n{report}; not gated (set SERVICE_COALESCE_SPEEDUP_FLOOR to gate)")
        return
    floor = float(env)
    assert snapshot["p50_speedup"] >= floor, f"{report}, below floor {floor}x"


def test_mixed_traffic_matches_and_batches():
    """Mixed query/update waves: identical answers between the two
    configurations (the inserts are awaited barriers), visibly changing
    answers across waves, and micro-batches that still form between the
    barriers.  Timing is recorded in the BENCH snapshot, not gated —
    mutations serialise the dispatch loop and make the ratio noisy."""
    snapshot = measure_mixed(repeats=BEST_OF)
    assert snapshot["coalesced_mean_batch"] > 1.2, (
        "coalescer formed no micro-batches under mixed traffic "
        f"(mean batch {snapshot['coalesced_mean_batch']:.2f})"
    )
