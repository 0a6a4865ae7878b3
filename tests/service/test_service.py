"""Behavioural tests for the async query service (DESIGN.md §14).

Coalescing, mutation barriers, admission control, deadlines, and the
ε-early-answer policy — all against the bit-identity yardstick: a
sequential ``execute`` loop on a replica engine.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import hooks
from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.service import (
    DeadlineExceeded,
    QueryService,
    QueueFull,
    RequestFailed,
    ServiceClosed,
    ServiceConfig,
)
from repro.service.faults import FaultPlan, delay
from tests.conftest import make_random_objects
from tests.core.test_sharded import assert_results_identical


def run(coro):
    return asyncio.run(coro)


def specs_for(points):
    return [CPNNQuery(float(q), threshold=0.3, tolerance=0.01) for q in points]


@pytest.fixture
def engines(rng):
    objects = make_random_objects(rng, 20)
    sharded = ShardedEngine(objects, EngineConfig(executor="serial"), n_shards=2)
    yield sharded, UncertainEngine(list(objects))
    sharded.close()


class TestCoalescing:
    def test_concurrent_submissions_ride_one_batch(self, engines):
        engine, single = engines
        specs = specs_for(np.linspace(2.0, 58.0, 12))
        want = [single.execute(spec) for spec in specs]

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                replies = await asyncio.gather(
                    *[service.submit(spec) for spec in specs]
                )
                return replies, service.stats()

        replies, stats = run(main())
        for reply, expected in zip(replies, want):
            assert_results_identical(reply.result, expected)
        # All 12 submissions coalesced far below one-batch-per-query.
        assert stats["batches"] < len(specs)
        assert any(reply.coalesced > 1 for reply in replies)

    def test_sequentially_awaited_submits_ship_alone(self, engines):
        engine, single = engines
        specs = specs_for((7.0, 31.0, 48.0))

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                for spec in specs:
                    reply = await service.submit(spec)
                    assert_results_identical(reply.result, single.execute(spec))
                return service.stats()

        stats = run(main())
        assert stats["batches"] == len(specs)

    def test_mixed_families(self, engines):
        engine, single = engines
        specs = [
            CPNNQuery(12.0, threshold=0.3),
            CKNNQuery(25.0, threshold=0.4, k=2),
            CRangeQuery(40.0, threshold=0.5, radius=6.0),
        ]

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                return await asyncio.gather(
                    *[service.submit(spec) for spec in specs]
                )

        for reply, spec in zip(run(main()), specs):
            assert_results_identical(reply.result, single.execute(spec))


class HeldEngine:
    """The real engine with its first ``execute_batch`` held on an event
    (not a sleep), so a test decides exactly what queues behind the
    call in flight.  ``calls`` records every batch's specs in order."""

    def __init__(self, engine):
        self._engine = engine
        self.entered = threading.Event()
        self.release = threading.Event()
        self.calls: list[list] = []

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def execute_batch(self, specs):
        self.calls.append(list(specs))
        if len(self.calls) == 1:
            self.entered.set()
            assert self.release.wait(30.0), "held call never released"
        return self._engine.execute_batch(specs)


async def hold_first_call(service, held, spec):
    """Submit ``spec`` and return once its engine call is in flight."""
    first = asyncio.ensure_future(service.submit(spec))
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, held.entered.wait, 30.0)
    return first


async def queue_behind(service, coros):
    """Offer ``coros`` (submits / mutations) in order while the held
    call is in flight; returns their tasks, all queued."""
    before = service.stats()["queue_depth"]
    tasks = [asyncio.ensure_future(coro) for coro in coros]
    await asyncio.sleep(0)  # every task runs up to its queued future
    assert service.stats()["queue_depth"] == before + len(tasks)
    return tasks


class TestEmergentDispatch:
    """Batching comes from load alone: idle → dispatch, busy →
    accumulate, barrier → cut.  No timer anywhere."""

    def test_idle_service_dispatches_at_once(self, engines):
        """...and ``coalesce_window_s`` is inert: 5 s of it delay nothing."""
        engine, single = engines
        spec = specs_for((31.0,))[0]

        async def main():
            config = ServiceConfig(coalesce_window_s=5.0)
            async with QueryService(engine, config) as service:
                tick = time.perf_counter()
                reply = await service.submit(spec)
                return reply, time.perf_counter() - tick, service.stats()

        reply, wall, stats = run(main())
        assert wall < 1.0  # far under the 5 s "window"
        assert stats["batches"] == 1
        assert reply.coalesced == 1
        assert_results_identical(reply.result, single.execute(spec))

    @pytest.mark.parametrize(
        "max_batch, sizes", [(64, [1, 9]), (4, [1, 4, 4, 1])]
    )
    def test_followers_behind_a_call_in_flight_ride_together(
        self, engines, max_batch, sizes
    ):
        """Nine followers queued behind the held call ride one batch,
        or ``max_batch``-sized ones in arrival order."""
        engine, single = engines
        held = HeldEngine(engine)
        specs = specs_for(np.linspace(3.0, 57.0, 10))

        async def main():
            config = ServiceConfig(max_batch=max_batch)
            async with QueryService(held, config) as service:
                first = await hold_first_call(service, held, specs[0])
                followers = await queue_behind(
                    service, [service.submit(s) for s in specs[1:]]
                )
                held.release.set()
                return await asyncio.gather(first, *followers), service.stats()

        replies, stats = run(main())
        cuts = np.cumsum([0] + sizes)
        assert held.calls == [specs[a:b] for a, b in zip(cuts, cuts[1:])]
        assert [r.coalesced for r in replies] == [
            size for size in sizes for _ in range(size)
        ]
        assert stats["batches"] == len(sizes)
        for reply, spec in zip(replies, specs):
            assert_results_identical(reply.result, single.execute(spec))

    def test_a_queued_mutation_cuts_the_followers_in_two(self, rng, engines):
        engine, single = engines
        held = HeldEngine(engine)
        fresh = make_random_objects(rng, 25)[-1]  # key 24: no collision
        specs = specs_for(np.linspace(3.0, 57.0, 7))

        async def main():
            async with QueryService(held, ServiceConfig()) as service:
                first = await hold_first_call(service, held, specs[0])
                queued = await queue_behind(
                    service,
                    [service.submit(s) for s in specs[1:4]]
                    + [service.insert(fresh)]
                    + [service.submit(s) for s in specs[4:]],
                )
                held.release.set()
                outcomes = await asyncio.gather(first, *queued)
                return outcomes, service.stats()

        outcomes, stats = run(main())
        replies = [o for o in outcomes if o is not None]
        assert [r.coalesced for r in replies] == [1, 3, 3, 3, 3, 3, 3]
        assert stats["batches"] == 3
        assert held.calls == [specs[:1], specs[1:4], specs[4:]]
        for reply, spec in zip(replies[:4], specs[:4]):
            assert_results_identical(reply.result, single.execute(spec))
        single.insert(fresh)
        for reply, spec in zip(replies[4:], specs[4:]):
            assert_results_identical(reply.result, single.execute(spec))

    def test_abandoned_submits_never_reach_the_engine(self, engines):
        """A submit whose caller gave up while it was queued is dropped
        when the batch is drawn: the next batch is the survivors only."""
        engine, single = engines
        held = HeldEngine(engine)
        specs = specs_for(np.linspace(3.0, 57.0, 9))
        abandoned = (2, 5, 6)  # k = 3 of the n = 8 followers
        sizes = []

        def on_batch(point, context):
            if point == "service.batch":
                sizes.append(context["size"])

        async def main():
            async with QueryService(held, ServiceConfig()) as service:
                first = await hold_first_call(service, held, specs[0])
                followers = await queue_behind(
                    service, [service.submit(s) for s in specs[1:]]
                )
                for i in abandoned:
                    followers[i].cancel()
                held.release.set()
                outcomes = await asyncio.gather(
                    first, *followers, return_exceptions=True
                )
                return outcomes, service.stats()

        with hooks.handlers(on_batch):
            outcomes, stats = run(main())
        survivors = [
            s for i, s in enumerate(specs[1:]) if i not in abandoned
        ]
        assert sizes == [1, len(specs) - 1 - len(abandoned)]
        assert held.calls == [specs[:1], survivors]
        assert stats["coalesced_queries"] == 1 + len(survivors)
        for i, outcome in enumerate(outcomes[1:]):
            if i in abandoned:
                assert isinstance(outcome, asyncio.CancelledError)
        replies = [o for o in outcomes if not isinstance(o, BaseException)]
        for reply, spec in zip(replies, [specs[0]] + survivors):
            assert_results_identical(reply.result, single.execute(spec))


class TestMutationBarriers:
    def test_queries_after_a_mutation_see_its_effect(self, rng, engines):
        engine, single = engines
        fresh = make_random_objects(rng, 25)[-1]  # key 24: no collision
        spec = CPNNQuery(15.0, threshold=0.3)

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                before = await service.submit(spec)
                await service.insert(fresh)
                after = await service.submit(spec)
                removed = await service.remove(fresh.key)
                final = await service.submit(spec)
                return before, after, removed, final

        before, after, removed, final = run(main())
        assert_results_identical(before.result, single.execute(spec))
        single.insert(fresh)
        assert_results_identical(after.result, single.execute(spec))
        assert removed is True
        single.remove(fresh.key)
        assert_results_identical(final.result, single.execute(spec))

    def test_interleaved_submissions_and_mutations_stay_exact(
        self, rng, engines
    ):
        engine, single = engines
        extras = make_random_objects(rng, 30)[20:]  # keys 20-29
        spec_points = (5.0, 18.0, 33.0, 47.0)

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                replies = []
                for i, obj in enumerate(extras):
                    batch = await asyncio.gather(
                        *[
                            service.submit(CPNNQuery(q, threshold=0.3))
                            for q in spec_points
                        ]
                    )
                    replies.append(batch)
                    await service.insert(obj)
                tail = await asyncio.gather(
                    *[
                        service.submit(CPNNQuery(q, threshold=0.3))
                        for q in spec_points
                    ]
                )
                replies.append(tail)
                return replies

        replies = run(main())
        for i, batch in enumerate(replies):
            for reply, q in zip(batch, spec_points):
                assert_results_identical(
                    reply.result, single.execute(CPNNQuery(q, threshold=0.3))
                )
            if i < len(extras):
                single.insert(extras[i])


class TestAdmissionControl:
    def test_overload_sheds_with_queue_full(self, engines):
        engine, single = engines
        config = ServiceConfig(max_batch=4, max_queue=6)
        total = 24

        async def main():
            async with QueryService(engine, config) as service:
                # All submit coroutines take their first step (spec →
                # offer) before the dispatcher's wakeup callback runs,
                # so the burst hits the admission queue as one wave:
                # max_queue admitted, the rest shed deterministically.
                tasks = [
                    asyncio.ensure_future(
                        service.submit(CPNNQuery(float(3 + i), threshold=0.3))
                    )
                    for i in range(total)
                ]
                results = await asyncio.gather(*tasks, return_exceptions=True)
                return results, service.stats()

        results, stats = run(main())
        shed = [r for r in results if isinstance(r, QueueFull)]
        served = [r for r in results if not isinstance(r, BaseException)]
        assert shed, "overload never shed anything"
        assert stats["shed"] == len(shed)
        assert len(served) + len(shed) == total
        # Everything admitted was answered exactly.
        for reply in served:
            assert_results_identical(
                reply.result, single.execute(reply.result.spec)
            )
        rejection = shed[0]
        assert rejection.limit == 6
        assert rejection.depth >= rejection.limit

    def test_closed_service_rejects_submissions(self, engines):
        engine, _ = engines

        async def main():
            service = QueryService(engine, ServiceConfig())
            async with service:
                await service.submit(CPNNQuery(10.0, threshold=0.3))
            with pytest.raises(ServiceClosed):
                await service.submit(CPNNQuery(10.0, threshold=0.3))

        run(main())


class TestDeadlines:
    def test_generous_deadline_answers_exactly(self, engines):
        engine, single = engines
        spec = CPNNQuery(22.0, threshold=0.3)

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                return await service.submit(spec, deadline_s=30.0)

        reply = run(main())
        assert reply.approximate is False
        assert_results_identical(reply.result, single.execute(spec))

    def test_expired_deadline_without_epsilon_is_typed(self, engines):
        engine, _ = engines
        plan = FaultPlan().script("service.batch", delay(0.05), at=1)

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                with pytest.raises(DeadlineExceeded):
                    await service.submit(
                        CPNNQuery(22.0, threshold=0.3), deadline_s=0.01
                    )
                return service.stats()

        with plan:
            stats = run(main())
        assert plan.fired
        assert stats["deadline_misses"] == 1
        assert stats["approximate"] == 0


class TestEpsilonEarlyAnswers:
    def test_epsilon_answer_is_bound_certified(self, engines):
        engine, single = engines
        spec = CPNNQuery(22.0, threshold=0.3, tolerance=0.01)
        epsilon = 0.2
        plan = FaultPlan().script("service.batch", delay(0.05), at=1)

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                reply = await service.submit(
                    spec, deadline_s=0.01, epsilon=epsilon
                )
                return reply, service.stats()

        with plan:
            reply, stats = run(main())
        assert reply.approximate is True
        assert reply.epsilon == epsilon
        assert stats["approximate"] == 1
        note = reply.result.diagnostics["approximate"]
        assert note["reason"] == "deadline"
        assert note["certified_tolerance"] == max(spec.tolerance, epsilon)
        # The C-PNN contract with the widened tolerance:
        # {p >= P} ⊆ answers ⊆ {p >= P - max(Δ, ε)}.
        exact = single.pnn(spec.q)
        answers = set(reply.result.answers)
        must_have = {k for k, p in exact.items() if p >= spec.threshold}
        may_have = {
            k
            for k, p in exact.items()
            if p >= spec.threshold - max(spec.tolerance, epsilon)
        }
        assert must_have <= answers <= may_have

    def test_epsilon_reply_reports_its_engine_call(self, engines):
        """``latency_s`` of an ε-early reply is the widened re-execution
        that produced it, so client latency − latency_s stays a queue
        wait and not the whole round trip."""
        engine, _ = engines
        spec = CPNNQuery(22.0, threshold=0.3, tolerance=0.01)
        plan = FaultPlan().script("service.batch", delay(0.05), at=1)

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                tick = time.perf_counter()
                reply = await service.submit(
                    spec, deadline_s=0.01, epsilon=0.2
                )
                return reply, time.perf_counter() - tick

        with plan:
            reply, client_s = run(main())
        assert reply.approximate is True
        assert 0.0 < reply.latency_s < client_s

    def test_epsilon_zero_preserves_exactness(self, engines):
        """With ε=0 a lapsed deadline is always a typed error — the
        service never silently loosens an answer."""
        engine, single = engines
        spec = CPNNQuery(22.0, threshold=0.3)
        plan = FaultPlan().script("service.batch", delay(0.05), at=1)

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                with pytest.raises(DeadlineExceeded):
                    await service.submit(spec, deadline_s=0.01, epsilon=0.0)
                # The service keeps answering exactly afterwards.
                reply = await service.submit(spec)
                return reply

        with plan:
            reply = run(main())
        assert reply.approximate is False
        assert_results_identical(reply.result, single.execute(spec))


class TestStats:
    def test_stats_expose_service_and_executor_counters(self, engines):
        engine, _ = engines

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                await service.submit(CPNNQuery(12.0, threshold=0.3))
                await service.insert(
                    make_random_objects(np.random.default_rng(7), 30)[-1]
                )
                return service.stats()

        stats = run(main())
        assert stats["submitted"] == 1
        assert stats["mutations"] == 1
        assert stats["batches"] == 1
        assert stats["executor"]["backend"] == "serial"
        assert "breaker" in stats["executor"]

    def test_a_failed_mutation_counts_as_failed(self, rng, engines):
        engine, single = engines
        duplicate = make_random_objects(rng, 20)[0]  # key 0 already lives
        spec = CPNNQuery(12.0, threshold=0.3)

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                with pytest.raises(RequestFailed):
                    await service.insert(duplicate)
                return await service.submit(spec), service.stats()

        reply, stats = run(main())
        assert stats["failed"] == 1
        assert stats["mutations"] == 1
        # The refused insert changed nothing.
        assert_results_identical(reply.result, single.execute(spec))
