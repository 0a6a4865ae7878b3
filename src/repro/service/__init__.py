"""repro.service — serve the engine under failure (DESIGN.md §14).

An asyncio front end over one engine: micro-batch coalescing, mutation
barriers, bounded admission, per-request deadlines with executor-level
cancellation, retry-with-backoff, and opt-in ε-early answers — plus a
deterministic fault-injection harness (:mod:`repro.service.faults`)
that scripts worker kills, delays, and shared-memory failures at exact
hook occurrences.

Quickstart::

    import asyncio
    from repro import EngineConfig, ShardedEngine
    from repro.service import QueryService, ServiceConfig

    async def main():
        engine = ShardedEngine(objects, EngineConfig(executor="process"))
        async with QueryService(engine, ServiceConfig()) as service:
            reply = await service.submit(CPNNQuery(2.0), deadline_s=0.05)
            print(reply.result.answers, reply.coalesced)

    asyncio.run(main())
"""

from repro.service.config import ServiceConfig
from repro.service.coalescer import Coalescer, Request
from repro.service.errors import (
    DeadlineExceeded,
    QueueFull,
    RequestFailed,
    ServiceClosed,
    ServiceError,
)
from repro.service.faults import FaultPlan
from repro.service.service import QueryService, ServiceReply, Subscription

__all__ = [
    "Coalescer",
    "DeadlineExceeded",
    "FaultPlan",
    "QueryService",
    "QueueFull",
    "Request",
    "RequestFailed",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceError",
    "ServiceReply",
    "Subscription",
]
