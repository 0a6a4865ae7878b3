"""Micro-batch coalescing over a bounded admission queue.

The coalescer is the service's only queue: one deque in arrival order,
bounded by the admission limit.  ``take()`` draws the next unit of
work the moment there is one — one mutation (a barrier: never shares a
batch, never reorders around queries) or the head run of up to
``max_batch`` queries.  It never holds a query back for company: the
dispatcher draws between engine calls, so arrivals behind one ride the next.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass

from repro.service.errors import QueueFull

__all__ = ["Coalescer", "Request"]


@dataclass
class Request:
    """One queued submission (query or mutation) and its bookkeeping."""

    kind: str  # "query" | "mutate"
    future: asyncio.Future
    spec: object = None
    op: tuple | None = None
    deadline: float | None = None  # absolute loop time, None = unbounded
    epsilon: float = 0.0
    attempts: int = 0

    def remaining(self, now: float) -> float:
        return float("inf") if self.deadline is None else self.deadline - now


class Coalescer:
    """Bounded arrival-order queue with immediate micro-batch draws."""

    def __init__(self, *, max_batch: int, max_queue: int) -> None:
        self._max_batch = int(max_batch)
        self._max_queue = int(max_queue)
        self._queue: deque[Request] = deque()
        self._arrival = asyncio.Event()

    def __len__(self) -> int:
        return len(self._queue)

    def offer(self, request: Request) -> None:
        """Admit one request, or shed it with :class:`QueueFull`."""
        if len(self._queue) >= self._max_queue:
            raise QueueFull(len(self._queue), self._max_queue)
        self._queue.append(request)
        self._arrival.set()

    def wake(self) -> None:
        """Nudge a ``take()`` waiting for arrivals (service shutdown)."""
        self._arrival.set()

    async def take(self, *, closing=lambda: False) -> list[Request] | None:
        """The next unit of work, in arrival order.

        A single-element list for a mutation, up to ``max_batch``
        query requests for a micro-batch, or ``None`` when ``closing()``
        is true and the queue has drained.  Queries whose caller gave up
        (cancelled future) are dropped here, before they cost an engine
        call; mutations always run.
        """
        queue, cap = self._queue, self._max_batch
        while True:
            while not queue:
                if closing():
                    return None
                self._arrival.clear()
                await self._arrival.wait()
            if queue[0].kind != "query":
                return [queue.popleft()]
            batch: list[Request] = []
            while queue and queue[0].kind == "query" and len(batch) < cap:
                request = queue.popleft()
                if not request.future.cancelled():
                    batch.append(request)
            if batch:
                return batch
