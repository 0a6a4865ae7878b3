"""Behavioural tests for service subscriptions (DESIGN.md §17).

``QueryService.subscribe`` installs a spec on a service-owned
continuous monitor; every mutation barrier then ticks the monitor and
pushes fresh snapshots only to subscriptions whose answer actually
changed.  The yardstick is the usual one: the pushed snapshot must be
bit-identical to submitting the same spec through the service after
the mutation.
"""

import asyncio

import pytest

from repro.core.engine import EngineConfig, ShardedEngine, UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.service import QueryService, Subscription
from repro.uncertainty.objects import UncertainObject


def run(coro):
    return asyncio.run(coro)


def uniform(key, lo, hi):
    return UncertainObject.uniform(key, lo, hi)


def make_objects():
    return [uniform(i, 10.0 * i, 10.0 * i + 4.0) for i in range(12)]


def test_subscribe_initial_answer_matches_submit():
    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            spec = CPNNQuery(21.0, threshold=0.3)
            subscription = await service.subscribe(spec)
            assert isinstance(subscription, Subscription)
            reply = await service.submit(spec)
            assert subscription.initial.answers == reply.result.answers
            assert subscription.updates.empty()

    run(scenario())


def test_far_mutation_pushes_nothing():
    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            subscription = await service.subscribe(CPNNQuery(21.0, threshold=0.3))
            await service.replace(11, uniform(11, 300.0, 304.0))
            assert subscription.updates.empty()
            stats = service.stats()
            assert stats["subscriptions"] == 1
            assert stats["notifications"] == 0

    run(scenario())


def test_answer_change_pushes_exact_snapshot():
    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            spec = CPNNQuery(21.0, threshold=0.3)
            subscription = await service.subscribe(spec)
            # Yank the nearest object far away: the answer must change.
            await service.replace(2, uniform(2, 300.0, 304.0))
            pushed = await asyncio.wait_for(subscription.updates.get(), 2)
            assert pushed.answers != subscription.initial.answers
            reply = await service.submit(spec)
            assert pushed.answers == reply.result.answers
            assert [
                (r.key, r.label, r.lower, r.upper, r.exact) for r in pushed.records
            ] == [
                (r.key, r.label, r.lower, r.upper, r.exact)
                for r in reply.result.records
            ]

    run(scenario())


def test_structural_mutation_recheck_for_knn_and_range():
    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            knn = await service.subscribe(CKNNQuery(50.0, k=2, threshold=0.4))
            rng = await service.subscribe(
                CRangeQuery(50.0, radius=8.0, threshold=0.5)
            )
            await service.insert(uniform("new", 49.0, 53.0))
            changed = await asyncio.wait_for(rng.updates.get(), 2)
            assert "new" in changed.answers
            # The k-NN answer may or may not change; if it did, the
            # pushed snapshot must match a fresh submit.
            if not knn.updates.empty():
                pushed = knn.updates.get_nowait()
                reply = await service.submit(CKNNQuery(50.0, k=2, threshold=0.4))
                assert pushed.answers == reply.result.answers

    run(scenario())


def test_unsubscribe_stops_the_stream():
    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            subscription = await service.subscribe(CPNNQuery(21.0, threshold=0.3))
            assert await service.unsubscribe(subscription) is True
            assert await service.unsubscribe(subscription) is False
            await service.replace(2, uniform(2, 300.0, 304.0))
            assert subscription.updates.empty()
            assert service.stats()["subscriptions"] == 0

    run(scenario())


def test_subscription_observes_prior_mutations():
    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            # The barrier contract: a subscribe submitted after a
            # mutation sees its effect in the initial answer.
            await service.replace(2, uniform(2, 300.0, 304.0))
            subscription = await service.subscribe(CPNNQuery(21.0, threshold=0.3))
            reply = await service.submit(CPNNQuery(21.0, threshold=0.3))
            assert subscription.initial.answers == reply.result.answers

    run(scenario())


def test_multiple_subscriptions_fan_out_independently():
    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            near = await service.subscribe(CPNNQuery(21.0, threshold=0.3))
            far = await service.subscribe(CPNNQuery(101.0, threshold=0.3))
            await service.replace(2, uniform(2, 300.0, 304.0))
            await asyncio.wait_for(near.updates.get(), 2)
            assert far.updates.empty()

    run(scenario())


def test_subscribe_over_sharded_engine():
    async def scenario(engine):
        async with QueryService(engine) as service:
            spec = CPNNQuery(21.0, threshold=0.3)
            subscription = await service.subscribe(spec)
            await service.replace(2, uniform(2, 300.0, 304.0))
            pushed = await asyncio.wait_for(subscription.updates.get(), 2)
            reply = await service.submit(spec)
            assert pushed.answers == reply.result.answers

    engine = ShardedEngine(
        make_objects(), EngineConfig(executor="serial"), n_shards=2
    )
    try:
        run(scenario(engine))
    finally:
        engine.close()


def test_queries_do_not_tick_the_monitor():
    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            await service.subscribe(CPNNQuery(21.0, threshold=0.3))
            for q in (5.0, 45.0, 85.0):
                await service.submit(CPNNQuery(q, threshold=0.3))
            stats = engine.stats()["continuous"]
            assert stats["ticks"] == 0  # only mutation barriers tick

    run(scenario())


def test_mutations_without_subscriptions_bypass_monitor():
    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            sub = await service.subscribe(CPNNQuery(21.0, threshold=0.3))
            await service.unsubscribe(sub)
            await service.replace(2, uniform(2, 300.0, 304.0))
            # No live subscriptions: the mutation goes straight to the
            # engine, no tick is paid.
            assert engine.stats()["continuous"]["ticks"] == 0
            reply = await service.submit(CPNNQuery(21.0, threshold=0.3))
            fresh = UncertainEngine(list(engine.objects))
            assert reply.result.answers == fresh.execute(
                CPNNQuery(21.0, threshold=0.3)
            ).answers

    run(scenario())


def test_remove_resolves_engine_contract_value():
    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            await service.subscribe(CPNNQuery(21.0, threshold=0.3))
            assert await service.remove(11) is True
            assert await service.remove("no-such-key") is False

    run(scenario())


@pytest.mark.parametrize("family", ["pnn", "knn", "range"])
def test_pushed_snapshots_match_replica_engine(family):
    """Drive a mutation stream; every pushed snapshot must equal a
    fresh engine over the same object state at push time."""

    specs = {
        "pnn": CPNNQuery(25.0, threshold=0.25, tolerance=0.0),
        "knn": CKNNQuery(25.0, k=2, threshold=0.3),
        "range": CRangeQuery(25.0, radius=7.0, threshold=0.4),
    }

    async def scenario():
        engine = UncertainEngine(make_objects())
        async with QueryService(engine) as service:
            subscription = await service.subscribe(specs[family])
            moves = [
                (2, uniform(2, 23.0, 27.0)),
                (3, uniform(3, 200.0, 204.0)),
                (2, uniform(2, 400.0, 404.0)),
                (4, uniform(4, 24.0, 28.0)),
            ]
            for key, obj in moves:
                await service.replace(key, obj)
                if not subscription.updates.empty():
                    pushed = subscription.updates.get_nowait()
                    replica = UncertainEngine(list(engine.objects))
                    want = replica.execute(specs[family])
                    assert pushed.answers == want.answers

    run(scenario())
