"""The async query service: coalescing, deadlines, retries, ε-early.

:class:`QueryService` wraps one engine (single or sharded) behind an
asyncio front end (DESIGN.md §14):

* **Coalescing** — a query that finds the engine idle is dispatched at
  once; queries that arrive behind an engine call in flight gather
  into one micro-batch for the next call, so the engine's batch
  amortisation (vectorised sweeps, shared subregion tables, parallel
  lanes) serves ad-hoc traffic exactly when there is load to amortise.
* **Mutation barriers** — inserts/removes/replaces run alone, in
  arrival order, through the engine's incremental-maintenance path;
  a query submitted after a mutation always sees its effect.
* **Admission control** — a bounded queue sheds load with typed
  :class:`~repro.service.errors.QueueFull` instead of letting the
  backlog (and every deadline behind it) grow without bound.
* **Deadlines** — each request carries a budget; engine work runs
  inside ``engine.deadline(...)`` so expiry propagates into the
  executor substrate as true cancellation (the process backend
  terminates in-flight workers).
* **Retries** — a failed engine dispatch is retried with exponential
  backoff; persistent failure surfaces as
  :class:`~repro.service.errors.RequestFailed`, never a wrong answer.
* **Subscriptions** — :meth:`QueryService.subscribe` installs a spec
  on a service-owned :class:`~repro.continuous.ContinuousMonitor`;
  every mutation barrier then ticks the monitor and pushes fresh
  snapshots *only* to subscriptions whose answer actually changed
  (DESIGN.md §17).
* **ε-early answers** — a request that opts in (``epsilon > 0``) and
  misses its deadline is re-answered with the tolerance widened to ε:
  still bound-certified by the C-PNN contract
  ``{p ≥ P} ⊆ answer ⊆ {p ≥ P − max(Δ, ε)}``, and explicitly marked
  ``approximate``.  With ``epsilon == 0`` (the default) answers are
  exact or the request fails — never silently loosened.

The service is single-flight: one dispatcher task owns the engine, so
engine internals need no locking and the sequential-equivalence
property (any interleaving of submissions answers bit-identically to a
sequential ``execute`` loop) holds by construction.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from dataclasses import dataclass

from repro import hooks
from repro.core.engine.executors.base import ExecutionTimeout
from repro.core.types import QueryResult
from repro.service.coalescer import Coalescer, Request
from repro.service.config import ServiceConfig
from repro.service.errors import (
    DeadlineExceeded,
    QueueFull,
    RequestFailed,
    ServiceClosed,
)

__all__ = ["QueryService", "ServiceReply", "Subscription"]


@dataclass
class ServiceReply:
    """What :meth:`QueryService.submit` resolves to.

    ``result`` is the engine's :class:`~repro.core.types.QueryResult`.
    ``approximate`` marks an ε-early answer (``epsilon`` is the widened
    tolerance it was certified against; 0 for exact answers).
    ``coalesced`` is the micro-batch size this query rode in,
    ``attempts`` how many engine dispatches it took, and ``latency_s``
    the engine call that produced the answer (client latency minus it
    is queue wait).
    """

    result: QueryResult
    approximate: bool = False
    epsilon: float = 0.0
    attempts: int = 1
    coalesced: int = 1
    latency_s: float = 0.0


@dataclass(eq=False)  # identity semantics, like the handle it fronts
class Subscription:
    """A streaming continuous query (:meth:`QueryService.subscribe`).

    ``initial`` is the registration-time answer; every subsequent
    mutation barrier whose monitor tick *changes* this query's answer
    tuple pushes a fresh :class:`~repro.core.types.QueryResult`
    snapshot onto ``updates`` (unbounded; unchanged ticks push
    nothing).  Consume with ``await sub.updates.get()`` and stop with
    :meth:`QueryService.unsubscribe`.
    """

    spec: object
    handle_id: int
    initial: QueryResult
    updates: "asyncio.Queue[QueryResult]"


@dataclass
class _Counters:
    submitted: int = 0
    mutations: int = 0
    batches: int = 0
    coalesced_queries: int = 0
    shed: int = 0
    retries: int = 0
    failed: int = 0
    deadline_misses: int = 0
    approximate: int = 0
    subscriptions: int = 0
    notifications: int = 0


class QueryService:
    """Async façade over one engine; see the module docstring.

    Use as an async context manager::

        async with QueryService(engine, ServiceConfig()) as service:
            reply = await service.submit(CPNNQuery(2.0))
            await service.insert(obj)

    Not thread-safe: all submissions must come from the event loop the
    service was started on (the engine work itself runs on a worker
    thread so the loop never blocks).
    """

    def __init__(self, engine, config: ServiceConfig | None = None) -> None:
        self._engine = engine
        self._config = config or ServiceConfig()
        self._coalescer = Coalescer(
            max_batch=self._config.max_batch,
            max_queue=self._config.max_queue,
        )
        self._counters = _Counters()
        self._task: asyncio.Task | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._closing = False
        #: Lazy continuous tier (created on first subscribe).  All
        #: monitor traffic rides the mutation-barrier path, so the
        #: single-flight invariant covers it without extra locking.
        self._monitor = None
        self._subscriptions: dict[int, Subscription] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def __aenter__(self) -> "QueryService":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("service already started")
        self._loop = asyncio.get_running_loop()
        self._task = self._loop.create_task(
            self._dispatch_loop(), name="repro-query-service"
        )

    async def close(self) -> None:
        """Stop accepting work, drain what was admitted, then return.

        Every request admitted before ``close`` resolves (answer or
        typed error); anything submitted after raises
        :class:`~repro.service.errors.ServiceClosed`.
        """
        if self._task is None:
            return
        self._closing = True
        self._coalescer.wake()
        await self._task
        self._task = None

    @property
    def closed(self) -> bool:
        return self._closing

    # ------------------------------------------------------------------
    # Submission surface
    # ------------------------------------------------------------------

    def _admit(self, request: Request) -> None:
        if self._closing or self._task is None:
            raise ServiceClosed("service is not accepting requests")
        try:
            self._coalescer.offer(request)
        except QueueFull:
            self._counters.shed += 1
            raise

    async def submit(
        self,
        spec,
        *,
        deadline_s: float | None = None,
        epsilon: float | None = None,
    ) -> ServiceReply:
        """Answer one query spec (or bare point) through the service.

        ``deadline_s`` bounds this request (falling back to the
        config's default); ``epsilon`` opts into ε-early answers on
        deadline expiry (falling back to the config's default, 0 =
        exact-or-fail).
        """
        assert self._loop is not None, "service not started"
        spec = self._engine._as_spec(spec)
        now = self._loop.time()
        budget = (
            deadline_s if deadline_s is not None else self._config.default_deadline_s
        )
        request = Request(
            kind="query",
            future=self._loop.create_future(),
            spec=spec,
            deadline=None if budget is None else now + budget,
            epsilon=(
                epsilon if epsilon is not None else self._config.default_epsilon
            ),
        )
        self._admit(request)
        self._counters.submitted += 1
        return await request.future

    async def _mutate(self, op: tuple):
        assert self._loop is not None, "service not started"
        request = Request(
            kind="mutate", future=self._loop.create_future(), op=op
        )
        self._admit(request)
        self._counters.mutations += 1
        return await request.future

    async def insert(self, obj) -> None:
        """Insert ``obj`` (a barrier: later queries see it)."""
        await self._mutate(("insert", obj))

    async def remove(self, key) -> bool:
        """Remove the object with ``key``; resolves to whether it
        existed (the engine contract)."""
        return await self._mutate(("remove", key))

    async def replace(self, key, obj) -> None:
        """Replace the object with ``key`` by ``obj``."""
        await self._mutate(("replace", key, obj))

    async def subscribe(self, spec) -> Subscription:
        """Register ``spec`` as a continuous query and stream changes.

        The spec is installed on a service-owned
        :class:`~repro.continuous.ContinuousMonitor` (created lazily on
        first subscribe) and executed once; the registration answer is
        the subscription's ``initial`` result.  After every mutation
        barrier the monitor ticks, and only subscriptions whose answer
        tuple actually changed receive a fresh snapshot on their
        ``updates`` queue — the safe-region certificates make unchanged
        answers free.  Registration rides the barrier path, so a
        subscription observes every mutation submitted before it.
        """
        assert self._loop is not None, "service not started"
        spec = self._engine._as_spec(spec)
        handle = await self._mutate(("subscribe", spec))
        subscription = Subscription(
            spec=spec,
            handle_id=handle.id,
            initial=handle.snapshot(),
            updates=asyncio.Queue(),
        )
        self._subscriptions[handle.id] = subscription
        self._counters.subscriptions += 1
        return subscription

    async def unsubscribe(self, subscription: Subscription) -> bool:
        """Tear down a subscription; ``True`` when it was live."""
        self._subscriptions.pop(subscription.handle_id, None)
        return await self._mutate(("unsubscribe", subscription.handle_id))

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            batch = await self._coalescer.take(closing=lambda: self._closing)
            if batch is None:
                return
            if batch[0].kind == "mutate":
                await self._serve_mutation(batch[0])
            else:
                await self._serve_queries(batch)

    async def _engine_call(self, fn):
        assert self._loop is not None
        return await self._loop.run_in_executor(None, fn)

    def _ensure_monitor(self):
        if self._monitor is None:
            from repro.continuous import ContinuousMonitor

            self._monitor = ContinuousMonitor(self._engine)
        return self._monitor

    async def _serve_mutation(self, request: Request) -> None:
        """One barrier op: a mutation, or continuous-tier maintenance.

        When subscriptions are live, mutations flow through the monitor
        (so their MBRs certify the safe regions) and the barrier ends
        with a monitor tick; changed answers fan out to subscriber
        queues before the barrier's future resolves.
        """
        op = request.op
        engine = self._engine
        assert op is not None

        def run():
            if op[0] == "subscribe":
                return self._ensure_monitor().register(op[1]), None
            if op[0] == "unsubscribe":
                monitor = self._monitor
                return (
                    monitor.unregister(op[1]) if monitor is not None else False
                ), None
            monitor = self._monitor if self._subscriptions else None
            front = monitor if monitor is not None else engine
            if op[0] == "insert":
                value = front.insert(op[1])
            elif op[0] == "remove":
                value = front.remove(op[1])
            else:
                value = front.replace(op[1], op[2])
            report = monitor.tick() if monitor is not None else None
            return value, report

        try:
            value, report = await self._engine_call(run)
        except Exception as exc:
            self._counters.failed += 1
            if not request.future.cancelled():
                request.future.set_exception(
                    RequestFailed(exc, attempts=1)
                )
            return
        if report is not None:
            for handle_id, snapshot in report.changed.items():
                subscription = self._subscriptions.get(handle_id)
                if subscription is not None:
                    subscription.updates.put_nowait(snapshot)
                    self._counters.notifications += 1
        if not request.future.cancelled():
            request.future.set_result(value)

    async def _serve_queries(self, requests: list[Request]) -> None:
        """Answer one coalesced micro-batch, chunking when deadlines
        are present and retrying engine failures with backoff."""
        assert self._loop is not None
        self._counters.batches += 1
        self._counters.coalesced_queries += len(requests)
        batch_size = len(requests)
        hooks.fire("service.batch", size=batch_size)
        pending = list(requests)
        while pending:
            bounded = any(r.deadline is not None for r in pending)
            if bounded and len(pending) > self._config.deadline_chunk:
                group = pending[: self._config.deadline_chunk]
                rest = pending[self._config.deadline_chunk:]
            else:
                group, rest = pending, []
            now = self._loop.time()
            expired = [r for r in group if r.remaining(now) <= 0.0]
            group = [r for r in group if r.remaining(now) > 0.0]
            for request in expired:
                await self._deadline_path(request, batch_size)
            if not group:
                pending = rest
                continue
            budget = min(r.remaining(now) for r in group)
            engine = self._engine
            specs = [r.spec for r in group]

            def run():
                if budget == float("inf"):
                    return engine.execute_batch(specs)
                with engine.deadline(budget):
                    return engine.execute_batch(specs)

            for request in group:
                request.attempts += 1
            tick = time.perf_counter()
            try:
                batch = await self._engine_call(run)
            except ExecutionTimeout:
                now = self._loop.time()
                missed = [r for r in group if r.remaining(now) <= 0.0]
                alive = [r for r in group if r.remaining(now) > 0.0]
                if not missed:
                    # The scope was cut short without any deadline
                    # actually lapsing (clock skew between chunk
                    # budget and re-check); treat as a failed attempt.
                    await self._retry_or_fail(
                        group, ExecutionTimeout("deadline scope expired")
                    )
                    pending = [r for r in group if not r.future.done()] + rest
                    continue
                for request in missed:
                    await self._deadline_path(request, batch_size)
                pending = alive + rest
                continue
            except Exception as exc:
                await self._retry_or_fail(group, exc)
                pending = [r for r in group if not r.future.done()] + rest
                continue
            latency = time.perf_counter() - tick
            for request, result in zip(group, batch.results):
                if request.future.cancelled():
                    continue
                request.future.set_result(
                    ServiceReply(
                        result=result,
                        attempts=request.attempts,
                        coalesced=batch_size,
                        latency_s=latency,
                    )
                )
            pending = rest

    async def _retry_or_fail(
        self, group: list[Request], exc: BaseException
    ) -> None:
        """Apply the retry policy after a failed dispatch: requests
        with budget left go back to the front of the batch after a
        backoff; exhausted ones fail with the typed wrapper."""
        survivors = []
        for request in group:
            if request.attempts > self._config.retry_limit:
                self._counters.failed += 1
                if not request.future.cancelled():
                    request.future.set_exception(
                        RequestFailed(exc, attempts=request.attempts)
                    )
            else:
                survivors.append(request)
        if survivors:
            self._counters.retries += 1
            attempt = max(r.attempts for r in survivors)
            backoff = self._config.retry_backoff_s * (
                self._config.retry_backoff_factor ** max(0, attempt - 1)
            )
            if backoff > 0:
                await asyncio.sleep(backoff)

    async def _deadline_path(self, request: Request, batch_size: int) -> None:
        """A request's deadline lapsed: ε-early answer if it opted in,
        typed rejection otherwise."""
        self._counters.deadline_misses += 1
        if request.future.cancelled():
            return
        epsilon = request.epsilon
        if epsilon <= 0.0:
            request.future.set_exception(
                DeadlineExceeded(
                    f"deadline expired after {request.attempts} attempt(s)"
                )
            )
            return
        engine = self._engine
        spec = dataclasses.replace(
            request.spec,
            tolerance=max(request.spec.tolerance, epsilon),
        )

        def run():
            return engine.execute(spec)

        tick = time.perf_counter()
        try:
            result = await self._engine_call(run)
        except Exception as exc:
            self._counters.failed += 1
            request.future.set_exception(
                RequestFailed(exc, attempts=request.attempts + 1)
            )
            return
        latency = time.perf_counter() - tick
        self._counters.approximate += 1
        result.diagnostics["approximate"] = {
            "reason": "deadline",
            "epsilon": epsilon,
            "certified_tolerance": spec.tolerance,
        }
        request.future.set_result(
            ServiceReply(
                result=result,
                approximate=True,
                epsilon=epsilon,
                attempts=request.attempts + 1,
                coalesced=batch_size,
                latency_s=latency,
            )
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Service counters plus the engine's executor failure story."""
        counters = self._counters
        return {
            "queue_depth": len(self._coalescer),
            "submitted": counters.submitted,
            "mutations": counters.mutations,
            "batches": counters.batches,
            "coalesced_queries": counters.coalesced_queries,
            "mean_batch": (
                counters.coalesced_queries / counters.batches
                if counters.batches
                else 0.0
            ),
            "shed": counters.shed,
            "retries": counters.retries,
            "failed": counters.failed,
            "deadline_misses": counters.deadline_misses,
            "approximate": counters.approximate,
            "subscriptions": len(self._subscriptions),
            "notifications": counters.notifications,
            "executor": self._engine.stats()["executor"],
        }
