#!/usr/bin/env python3
"""Batch workload: many moving clients probing one uncertain dataset.

A fleet of clients moves along a corridor, each issuing a C-PNN probe
at every step ("which sensors could be nearest to me, with ≥ 30%
probability?").  The same points get probed again and again as clients
revisit locations, which is exactly the workload
``UncertainEngine.execute_batch`` amortises:

* filtering runs once per batch as one descent of the packed filter,
* the probes that miss the cache fold, tabulate and verify as one
  stacked pass; tables and whole results are LRU-cached across probes
  of the same point,
* ``execute`` is a batch of one, so batch and sequential answers agree.

The sequential loop runs on a second engine with its own cache, so
both sides see the same repeats.

Run:  python examples/batch_workload.py
"""

import time

import numpy as np

from repro import CPNNQuery, UncertainEngine, UncertainObject

N_SENSORS = 1_500
N_CLIENTS = 40
N_STEPS = 5
THRESHOLD = 0.3
DOMAIN = 10_000.0


def build_sensors(rng: np.random.Generator) -> list[UncertainObject]:
    """Sensors with uncertain 1-D positions (reading imprecision)."""
    centers = rng.uniform(0.0, DOMAIN, size=N_SENSORS)
    widths = rng.uniform(2.0, 18.0, size=N_SENSORS)
    return [
        UncertainObject.uniform(i, c - w / 2, c + w / 2)
        for i, (c, w) in enumerate(zip(centers, widths))
    ]


def client_trace(rng: np.random.Generator) -> list[list[float]]:
    """Per-step probe points; clients snap to a coarse waypoint grid,
    so different clients (and different steps) repeat points."""
    waypoints = np.linspace(0.0, DOMAIN, 200)
    steps = []
    position = rng.integers(0, waypoints.size, size=N_CLIENTS)
    for _ in range(N_STEPS):
        position = np.clip(
            position + rng.integers(-3, 4, size=N_CLIENTS), 0, waypoints.size - 1
        )
        steps.append([float(waypoints[p]) for p in position])
    return steps


def main() -> None:
    rng = np.random.default_rng(42)
    sensors = build_sensors(rng)
    engine, single = UncertainEngine(sensors), UncertainEngine(sensors)
    steps = client_trace(rng)

    print(f"{N_SENSORS} uncertain sensors, {N_CLIENTS} clients, {N_STEPS} steps")
    print()
    total_batch = total_seq = 0.0
    for step, points in enumerate(steps):
        specs = [CPNNQuery(q, threshold=THRESHOLD, tolerance=0.0) for q in points]

        tick = time.perf_counter()
        batch = engine.execute_batch(specs)
        batch_time = time.perf_counter() - tick

        tick = time.perf_counter()
        sequential = [single.execute(spec) for spec in specs]
        seq_time = time.perf_counter() - tick

        assert all(
            set(b.answers) == set(s.answers)
            for b, s in zip(batch, sequential)
        ), "batch and sequential answers must agree"

        total_batch += batch_time
        total_seq += seq_time
        answered = sum(1 for r in batch if r.answers)
        print(
            f"step {step}: {len(points)} probes, {answered} with answers | "
            f"batch {batch_time * 1e3:6.1f} ms vs loop {seq_time * 1e3:6.1f} ms | "
            f"table cache {batch.table_hits} hits / {batch.table_misses} misses"
        )

    print()
    print(
        f"total: batch {total_batch * 1e3:.1f} ms vs sequential loop "
        f"{total_seq * 1e3:.1f} ms  ({total_seq / total_batch:.1f}x)"
    )


if __name__ == "__main__":
    main()
