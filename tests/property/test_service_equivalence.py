"""Property: the service is observationally a sequential engine.

Any interleaving of single-query submissions and mutations through
:class:`~repro.service.service.QueryService` — whatever micro-batches
the coalescer forms, whatever order ``gather`` resolves futures — must
answer every query bit-identically to a plain sequential ``execute``
loop over a replica engine that applies the same operations in the
same arrival order.  All three spec families, cold caches and warm
(the whole sequence replays against the same service).
"""

import asyncio

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ShardedEngine, UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.service import QueryService, ServiceConfig
from tests.conftest import make_random_objects
from tests.core.test_sharded import assert_results_identical

BASE_N = 10


def spec_from(kind: str, q: float, threshold: float):
    if kind == "pnn":
        return CPNNQuery(q, threshold=threshold, tolerance=0.01)
    if kind == "knn":
        return CKNNQuery(q, threshold=threshold, k=2)
    return CRangeQuery(q, threshold=threshold, radius=5.0)


query_ops = st.tuples(
    st.just("query"),
    st.sampled_from(["pnn", "knn", "range"]),
    st.floats(0.0, 60.0, allow_nan=False),
    st.sampled_from([0.2, 0.35, 0.5]),
)
mutation_ops = st.one_of(
    st.just(("insert",)),
    st.tuples(st.just("remove"), st.integers(0, 10_000)),
    st.tuples(st.just("replace"), st.integers(0, 10_000)),
)
op_lists = st.lists(
    st.one_of(query_ops, mutation_ops), min_size=1, max_size=12
)


def resolve_ops(seed: int, ops: list) -> list:
    """Turn raw drawn ops into concrete (kind, payload) steps against a
    deterministic object population."""
    rng = np.random.default_rng(seed)
    population = make_random_objects(rng, BASE_N + 30)
    base = population[:BASE_N]
    spares = iter(population[BASE_N:])  # fresh keys 10..39
    keys = [obj.key for obj in base]
    steps = []
    for op in ops:
        if op[0] == "query":
            _, kind, q, threshold = op
            steps.append(("query", spec_from(kind, q, threshold)))
        elif op[0] == "insert":
            obj = next(spares, None)
            if obj is None:
                continue
            keys.append(obj.key)
            steps.append(("insert", obj))
        elif op[0] == "remove":
            if len(keys) <= 2:  # keep the population non-trivial
                continue
            key = keys.pop(op[1] % len(keys))
            steps.append(("remove", key))
        else:  # replace: swap an existing region for a fresh one
            obj = next(spares, None)
            if obj is None or not keys:
                continue
            index = op[1] % len(keys)
            old = keys[index]
            keys[index] = obj.key
            steps.append(("replace", (old, obj)))
    return base, steps


def replay_sequential(single: UncertainEngine, steps: list) -> list:
    """The reference: one engine, one operation at a time."""
    results = []
    for kind, payload in steps:
        if kind == "query":
            results.append(single.execute(payload))
        elif kind == "insert":
            single.insert(payload)
        elif kind == "remove":
            single.remove(payload)
        else:
            single.replace(*payload)
    return results


async def replay_service(service: QueryService, steps: list) -> list:
    """The same steps through the service: consecutive queries go up
    concurrently (so the coalescer actually batches them); mutations
    are awaited in order, as the barrier contract requires."""
    results: list = []
    burst: list = []

    async def flush():
        if burst:
            replies = await asyncio.gather(
                *[service.submit(spec) for spec in burst]
            )
            results.extend(reply.result for reply in replies)
            burst.clear()

    for kind, payload in steps:
        if kind == "query":
            burst.append(payload)
            continue
        await flush()
        if kind == "insert":
            await service.insert(payload)
        elif kind == "remove":
            await service.remove(payload)
        else:
            await service.replace(*payload)
    await flush()
    return results


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), ops=op_lists)
def test_any_interleaving_matches_sequential_execution(seed, ops):
    base, steps = resolve_ops(seed, ops)
    single = UncertainEngine(list(base))
    want_cold = replay_sequential(single, steps)
    # Warm pass: same queries again, caches now populated, mutations
    # already applied — only the query steps repeat.
    query_steps = [s for s in steps if s[0] == "query"]
    want_warm = replay_sequential(single, query_steps)

    async def main(engine):
        config = ServiceConfig(max_batch=8)
        async with QueryService(engine, config) as service:
            cold = await replay_service(service, steps)
            warm = await replay_service(service, query_steps)
            return cold, warm

    with ShardedEngine(list(base), n_shards=2) as engine:
        got_cold, got_warm = asyncio.run(main(engine))
    assert len(got_cold) == len(want_cold)
    for got, want in zip(got_cold, want_cold):
        assert_results_identical(got, want)
    assert len(got_warm) == len(want_warm)
    for got, want in zip(got_warm, want_warm):
        assert_results_identical(got, want)
