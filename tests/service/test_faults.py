"""Scripted failure modes for the service + executor substrate.

Each test drives a real process-backed engine through a
:class:`~repro.service.faults.FaultPlan` that injects one specific
fault at one specific point — worker SIGKILL mid-batch, a reply delay
that lapses a deadline, admission-queue saturation, a poison spec that
kills two workers, a shared-memory attach failure — and asserts the
C-PNN robustness contract (DESIGN.md §14): every delivered answer is
bit-identical to the sequential reference or explicitly bound-certified
approximate, and the pool heals afterwards.
"""

import asyncio

import pytest

from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.engine.executors.base import ExecutionTimeout
from repro.core.types import CPNNQuery
from repro.service import (
    DeadlineExceeded,
    QueryService,
    QueueFull,
    ServiceConfig,
)
from repro.service.faults import FaultPlan, delay, kill_worker, unlink_segment
from tests.conftest import make_random_objects
from tests.core.test_sharded import assert_results_identical

PROCESS_CONFIG = EngineConfig(executor="process", process_min_batch=0)


def run(coro):
    return asyncio.run(coro)


def make_pair(rng, n=20):
    """A process-backed sharded engine plus its sequential reference."""
    objects = make_random_objects(rng, n)
    sharded = ShardedEngine(objects, PROCESS_CONFIG, n_shards=2)
    return sharded, UncertainEngine(list(objects))


def assert_pool_healed(executor_stats: dict) -> None:
    assert executor_stats["alive"] == executor_stats["workers"]


class TestWorkerKillMidBatch:
    def test_sigkill_between_send_and_reply_is_absorbed(self, rng):
        """Fault: SIGKILL the worker a C-PNN item is being sent to.
        Contract: the batch still answers bit-identically (inline
        retry) and the pool respawns for the next batch."""
        engine, single = make_pair(rng)
        specs = [CPNNQuery(q, threshold=0.3) for q in (6.0, 26.0, 46.0)]
        want = [single.execute(s) for s in specs]
        plan = FaultPlan().script(
            "process.send", kill_worker, at=1, match={"kind": "pnn"}
        )

        async def main():
            config = ServiceConfig()
            async with QueryService(engine, config) as service:
                first = await asyncio.gather(
                    *[service.submit(s) for s in specs]
                )
                second = await asyncio.gather(
                    *[service.submit(s) for s in specs]
                )
                return first, second, service.stats()

        try:
            with plan:
                first, second, stats = run(main())
        finally:
            engine.close()
        assert plan.fired == [("process.send", 1, "kill_worker")]
        for reply, expected in zip(first, want):
            assert_results_identical(reply.result, expected)
        for reply, expected in zip(second, want):
            assert_results_identical(reply.result, expected)
        executor = stats["executor"]
        assert executor["worker_failures"] >= 1
        assert executor["in_process_retries"] >= 1
        assert executor["respawns"] >= 1
        assert_pool_healed(executor)


class TestReplyTimeout:
    def test_delayed_reply_lapses_deadline_into_typed_error(self, rng):
        """Fault: hold the first pool reply past the request deadline.
        With ε=0 the request fails typed; the service keeps answering
        exactly afterwards on a healed pool."""
        engine, single = make_pair(rng)
        spec = CPNNQuery(26.0, threshold=0.3)
        engine.execute(spec)  # warm the pool: replies now route via shm
        plan = FaultPlan().script("process.recv", delay(0.4), at=1)

        async def main():
            config = ServiceConfig()
            async with QueryService(engine, config) as service:
                with pytest.raises(DeadlineExceeded):
                    await service.submit(spec, deadline_s=0.1)
                late = await service.submit(spec)
                return late, service.stats()

        try:
            with plan:
                late, stats = run(main())
        finally:
            engine.close()
        assert plan.fired
        assert stats["deadline_misses"] == 1
        assert stats["approximate"] == 0
        assert_results_identical(late.result, single.execute(spec))
        assert_pool_healed(stats["executor"])

    def test_delayed_reply_with_epsilon_returns_certified_answer(self, rng):
        """Same fault, but the request opted into ε-early answers: the
        reply is approximate, explicitly marked, and bound-certified
        against the widened tolerance."""
        engine, single = make_pair(rng)
        spec = CPNNQuery(26.0, threshold=0.3, tolerance=0.01)
        epsilon = 0.25
        engine.execute(spec)
        plan = FaultPlan().script("process.recv", delay(0.4), at=1)

        async def main():
            config = ServiceConfig()
            async with QueryService(engine, config) as service:
                reply = await service.submit(
                    spec, deadline_s=0.1, epsilon=epsilon
                )
                exact = await service.submit(spec)
                return reply, exact, service.stats()

        try:
            with plan:
                reply, exact, stats = run(main())
        finally:
            engine.close()
        assert plan.fired
        assert reply.approximate is True
        assert stats["approximate"] == 1
        note = reply.result.diagnostics["approximate"]
        assert note["certified_tolerance"] == epsilon
        # Bound certification against the reference probabilities:
        # {p >= P} ⊆ answers ⊆ {p >= P - ε}.
        probabilities = single.pnn(spec.q)
        answers = set(reply.result.answers)
        must = {k for k, p in probabilities.items() if p >= spec.threshold}
        may = {
            k
            for k, p in probabilities.items()
            if p >= spec.threshold - epsilon
        }
        assert must <= answers <= may
        # Once the fault passes, the service is exact again.
        assert exact.approximate is False
        assert_results_identical(exact.result, single.execute(spec))
        assert_pool_healed(stats["executor"])


class TestQueueSaturation:
    def test_burst_beyond_queue_sheds_typed_and_serves_the_rest(self, rng):
        """Fault: a burst far beyond the admission limit while the
        backend is held slow.  Excess load sheds with QueueFull; every
        admitted request still answers bit-identically."""
        engine, single = make_pair(rng)
        config = ServiceConfig(max_batch=4, max_queue=6)
        total = 24
        plan = FaultPlan().script(
            "executor.dispatch", delay(0.05), at=(1, 2)
        )

        async def main():
            async with QueryService(engine, config) as service:
                tasks = [
                    asyncio.ensure_future(
                        service.submit(
                            CPNNQuery(float(3 + 2 * i), threshold=0.3)
                        )
                    )
                    for i in range(total)
                ]
                outcomes = await asyncio.gather(
                    *tasks, return_exceptions=True
                )
                # The queue has drained: admission works again.
                extra = await service.submit(CPNNQuery(30.0, threshold=0.3))
                return outcomes, extra, service.stats()

        try:
            with plan:
                outcomes, extra, stats = run(main())
        finally:
            engine.close()
        assert plan.fired
        shed = [o for o in outcomes if isinstance(o, QueueFull)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert len(shed) == total - config.max_queue
        assert stats["shed"] == len(shed)
        for reply in served:
            assert_results_identical(
                reply.result, single.execute(reply.result.spec)
            )
        assert_results_identical(
            extra.result, single.execute(CPNNQuery(30.0, threshold=0.3))
        )
        assert_pool_healed(stats["executor"])


class TestPoisonQuarantine:
    def test_double_killer_spec_runs_inline_forever_after(self, rng):
        """Fault: the same spec SIGKILLs a worker on its first two
        dispatches.  The quarantine ledger must route its third run
        in-process — no third kill — and every run answers
        bit-identically."""
        engine, single = make_pair(rng)
        spec = CPNNQuery(33.0, threshold=0.3)
        want = single.execute(spec)
        plan = FaultPlan().script(
            "process.send", kill_worker, at=(1, 2), match={"kind": "pnn"}
        )

        async def main():
            config = ServiceConfig()
            async with QueryService(engine, config) as service:
                replies = []
                for _ in range(4):
                    replies.append(await service.submit(spec))
                return replies, service.stats()

        try:
            with plan:
                replies, stats = run(main())
        finally:
            engine.close()
        assert len(plan.fired) == 2
        for reply in replies:
            assert_results_identical(reply.result, want)
        executor = stats["executor"]
        assert executor["worker_failures"] == 2
        assert executor["quarantined"] == 1
        assert executor["quarantine_hits"] >= 1
        assert_pool_healed(executor)


class TestShmAttachFailure:
    def test_worker_attach_failure_falls_back_to_local_build(self, rng):
        """Fault: the shared column segment vanishes before the workers
        attach at spawn.  Every worker must fall back to building its
        filter locally — same floats, bit-identical answers."""
        engine, single = make_pair(rng)
        specs = [CPNNQuery(q, threshold=0.3) for q in (8.0, 30.0, 52.0)]
        want = [single.execute(s) for s in specs]
        plan = FaultPlan().script("process.attach", unlink_segment, at=1)

        async def main():
            async with QueryService(engine, ServiceConfig()) as service:
                replies = await asyncio.gather(
                    *[service.submit(s) for s in specs]
                )
                return replies, service.stats()

        try:
            with plan:
                replies, stats = run(main())
        finally:
            engine.close()
        assert plan.fired == [("process.attach", 1, "unlink_segment")]
        for reply, expected in zip(replies, want):
            assert_results_identical(reply.result, expected)
        executor = stats["executor"]
        assert executor["shm_fallbacks"] == executor["workers"]
        assert_pool_healed(executor)


class TestDeadlineCancellation:
    def test_expired_deadline_terminates_inflight_workers(self, rng):
        """Engine-level: a worker that will never reply (killed before
        its message landed) plus a lapsed deadline must surface as
        ExecutionTimeout with the straggler *terminated*, not awaited —
        and the pool respawns on the next dispatch."""
        engine, single = make_pair(rng)
        spec = CPNNQuery(26.0, threshold=0.3)
        engine.execute(spec)  # warm pool
        plan = (
            FaultPlan()
            .script(
                "process.send", kill_worker, at=1, match={"kind": "pnn"}
            )
            .script(
                "process.send", delay(0.3), at=1, match={"kind": "pnn"}
            )
        )
        try:
            with plan:
                with pytest.raises(ExecutionTimeout):
                    with engine.deadline(0.1):
                        engine.execute(spec)
            executor = engine.stats()["executor"]
            assert executor["timeouts"] + executor["worker_failures"] >= 1
            # Next dispatch heals the pool and answers exactly.
            result = engine.execute(spec)
            assert_results_identical(result, single.execute(spec))
            assert_pool_healed(engine.stats()["executor"])
        finally:
            engine.close()
        assert len(plan.fired) == 2
