#!/usr/bin/env python3
"""Serving C-PNN queries under deadlines, overload, and faults.

A fleet of clients fires ad-hoc single-point probes at one uncertain
dataset.  Instead of handing each probe its own ``execute`` call, a
``QueryService`` (DESIGN.md §14) dispatches a probe at once when the
engine is idle and coalesces whatever arrives behind a call in flight
into one micro-batch — so the engine's batch amortisation serves
traffic that never held a batch, with no hold-open timer — and wraps
every request in the failure machinery a real service needs:

* deadlines that propagate into the executor substrate as cancellation,
* ε-early answers: a request that opts in gets a *bound-certified*
  approximate answer when its deadline lapses, never a silent guess,
* bounded admission with typed load-shedding,
* mutations as barriers: a probe after an insert always sees it.

The last act scripts a deterministic fault — the shared-memory segment
vanishing before a worker pool attaches — and shows the service
absorbing it without a wrong bit.

Run:  python examples/serve.py
"""

import asyncio
import time

import numpy as np

from repro import CPNNQuery, UncertainEngine, UncertainObject
from repro.service import (
    DeadlineExceeded,
    QueryService,
    QueueFull,
    ServiceConfig,
)

N_SENSORS = 2_000
N_PROBES = 64
THRESHOLD = 0.3
DOMAIN = 10_000.0


def build_sensors(rng: np.random.Generator) -> list[UncertainObject]:
    centers = rng.uniform(0.0, DOMAIN, size=N_SENSORS)
    widths = rng.uniform(2.0, 18.0, size=N_SENSORS)
    return [
        UncertainObject.uniform(i, c - w / 2, c + w / 2)
        for i, (c, w) in enumerate(zip(centers, widths))
    ]


async def serve_burst(service: QueryService, points) -> list:
    """One burst of concurrent single-query submissions."""
    return await asyncio.gather(
        *[
            service.submit(CPNNQuery(float(q), threshold=THRESHOLD))
            for q in points
        ]
    )


async def main() -> None:
    rng = np.random.default_rng(20080407)
    sensors = build_sensors(rng)
    probes = rng.uniform(0.0, DOMAIN, size=N_PROBES)

    with UncertainEngine(sensors) as engine:
        config = ServiceConfig(max_batch=32)
        async with QueryService(engine, config) as service:
            # -- coalescing: a burst rides micro-batches ---------------
            tick = time.perf_counter()
            replies = await serve_burst(service, probes)
            wall = time.perf_counter() - tick
            stats = service.stats()
            print(
                f"burst of {len(replies)} probes -> {stats['batches']} "
                f"engine batches (mean {stats['mean_batch']:.1f} "
                f"queries/batch), {wall * 1e3:.0f} ms, "
                f"{len(replies) / wall:.0f} qps"
            )

            # -- mutations are barriers --------------------------------
            roving = UncertainObject.uniform(N_SENSORS, 4_999.5, 5_000.5)
            before = await service.submit(
                CPNNQuery(5_000.0, threshold=THRESHOLD)
            )
            await service.insert(roving)
            after = await service.submit(
                CPNNQuery(5_000.0, threshold=THRESHOLD)
            )
            print(
                f"insert as barrier: sensor {roving.key} in the answer "
                f"before={roving.key in before.result.answers}, "
                f"after={roving.key in after.result.answers}"
            )

            # -- deadlines: exact-or-fail vs ε-early -------------------
            q = float(probes[0])
            try:
                await service.submit(
                    CPNNQuery(q, threshold=THRESHOLD), deadline_s=0.0
                )
                print("deadline_s=0.0 answered (engine was instant)")
            except DeadlineExceeded:
                print("deadline_s=0.0, epsilon=0 -> DeadlineExceeded (typed)")
            reply = await service.submit(
                CPNNQuery(q, threshold=THRESHOLD),
                deadline_s=0.0,
                epsilon=0.15,
            )
            print(
                f"deadline_s=0.0, epsilon=0.15 -> approximate="
                f"{reply.approximate}, certified against tolerance "
                f"{reply.result.diagnostics['approximate']['certified_tolerance']}"
                if reply.approximate
                else "epsilon request answered exactly in time"
            )

            # -- admission control: overload sheds typed ---------------
            tiny = ServiceConfig(max_batch=4, max_queue=8)
            async with QueryService(engine, tiny) as throttled:
                outcomes = await asyncio.gather(
                    *[
                        throttled.submit(
                            CPNNQuery(float(p), threshold=THRESHOLD)
                        )
                        for p in probes
                    ],
                    return_exceptions=True,
                )
                shed = sum(1 for o in outcomes if isinstance(o, QueueFull))
                print(
                    f"overload: {len(outcomes) - shed} served, "
                    f"{shed} shed with QueueFull"
                )

    # -- deterministic fault injection -----------------------------------
    # Script "the shared column segment vanishes before the pool
    # attaches": every worker falls back to building its filter
    # locally, and the answers do not move by a bit.
    from repro.core.engine import EngineConfig, ShardedEngine
    from repro.service.faults import FaultPlan, unlink_segment

    spec = CPNNQuery(float(probes[1]), threshold=THRESHOLD)
    want = UncertainEngine(list(sensors)).execute(spec).answers
    plan = FaultPlan().script("process.attach", unlink_segment, at=1)
    with ShardedEngine(
        sensors,
        EngineConfig(executor="process", process_min_batch=0),
        n_shards=2,
    ) as sharded:
        with plan:
            got = sharded.execute(spec).answers
        executor = sharded.stats()["executor"]
        print(
            f"injected attach failure: {executor['shm_fallbacks']} workers "
            f"fell back locally, answers identical: {got == want}"
        )
    assert got == want


if __name__ == "__main__":
    asyncio.run(main())
