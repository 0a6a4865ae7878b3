"""``service_mixed``: the online use — writes beside reads, open loop.

A :class:`~repro.service.QueryService` over one ``UncertainEngine`` (the
deployment ``examples/serve.py`` uses) with 64 continuous subscriptions,
driven by one generator task on a seeded Poisson schedule:

* **read** — queries only, 100 req/s: admission, the coalescing window,
  the engine call.  Nothing to flush, so barrier changes must not move it.
* **rw** — the same schedule with every 8th request a ``replace``: a
  barrier through incremental maintenance that ends in a monitor tick
  over the 64 handles.
* **burst** — the rw mix, everything due at t=0: the capacity the fixed
  rate is a fraction of, with batch composition fixed by the barriers
  (7 queries, 1 mutation, …) and not by timing.

Open loop because independent users do not wait for each other: every
request is timed from the instant it was *due*, so a stall charges the
requests queued behind it.  Half the query points come from a 256-point
hot set, so the table cache and result replay see repeats.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from bench import adapters, reference
from bench.catalogue import LATE_LIMIT_MS
from bench.harness import Measurements, percentile_ms
from bench.spans import span_if
from repro import CPNNQuery, UncertainEngine, UncertainObject, hooks
from repro.continuous import ContinuousMonitor
from repro.datasets.longbeach import LONG_BEACH_DOMAIN, long_beach_surrogate
from repro.service import QueryService, ServiceConfig, ServiceError

__all__ = ["ServiceMixed"]

RATE = 100.0  # requests per second in the open-loop phases
READ_S, RW_S = 10.0, 16.0  # phase lengths at --scale 1.0
BURSTS, BURST_SIZE = 3, 1024
MUTATE_EVERY = 8
HOT_POINTS, SUBSCRIPTIONS, WARMUP = 256, 64, 64
REPLACED_LENGTH = 30.0

#: Every this-many-th query is re-answered on the sequential twin.
VERIFY_EVERY = 10
DIGEST_PREFIX = 128


def _spec(q) -> CPNNQuery:
    return CPNNQuery(float(q), 0.3, 0.01)


class ServiceMixed:
    name = "service_mixed"

    def __init__(self, seed: int, scale: float, out_dir: str) -> None:
        self.seed = seed
        self.scale = scale
        self.setup_parts: dict[str, float] = {}
        self.loop = None
        self.engine = None
        self.service = None
        #: Every request in submission order, for the sequential twin:
        #: ``("query", spec, reply | None)`` / ``("replace", key, obj, ok)``.
        self.log: list[tuple] = []

    # ------------------------------------------------------------------
    # Seeded traffic
    # ------------------------------------------------------------------

    def _plan(self, phase: int, count: int, mutate: bool) -> list[tuple]:
        """``count`` requests of one phase; the stream of a phase is the
        same whatever the scale."""
        rng = np.random.default_rng([self.seed, phase])
        lo, hi = LONG_BEACH_DOMAIN
        plan = []
        for i in range(count):
            if mutate and i % MUTATE_EVERY == MUTATE_EVERY - 1:
                key = int(rng.integers(len(self.objects)))
                left = float(rng.uniform(lo, hi - REPLACED_LENGTH))
                obj = UncertainObject.uniform(key, left, left + REPLACED_LENGTH)
                plan.append(("replace", key, obj))
            else:
                hot = self.hot[int(rng.integers(HOT_POINTS))]
                cold = rng.uniform(lo, hi)
                plan.append(("query", _spec(hot if rng.random() < 0.5 else cold)))
        return plan

    def _arrivals(self, phase: int, count: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, phase, 1])
        return np.cumsum(rng.exponential(1.0 / RATE, count))

    def _scaled(self, full: float, factor: float) -> int:
        return max(int(round(full * self.scale * factor)), MUTATE_EVERY)

    # ------------------------------------------------------------------

    def setup(self) -> None:
        tick = time.perf_counter()
        self.objects = long_beach_surrogate(
            n=20_000, mean_length=42.0, seed=self.seed
        )
        generated = time.perf_counter()
        self.engine = UncertainEngine(self.objects)
        built = time.perf_counter()
        self.hot = np.random.default_rng([self.seed, 0]).uniform(
            *LONG_BEACH_DOMAIN, HOT_POINTS
        )
        self.log = []
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())
        self.setup_parts = {
            "datasets.generate_s": generated - tick,
            "core.engine.build_s": built - generated,
        }

    async def _start(self) -> None:
        self.service = QueryService(
            self.engine,
            ServiceConfig(coalesce_window_s=0.002, max_batch=32, max_queue=4096),
        )
        await self.service.start()
        for q in self.hot[:SUBSCRIPTIONS]:
            await self.service.subscribe(_spec(q))
        warm = [request[1] for request in self._plan(1, WARMUP, mutate=False)]
        replies = await asyncio.gather(*[self.service.submit(s) for s in warm])
        self.log.extend(("query", s, r) for s, r in zip(warm, replies))

    def teardown(self) -> None:
        if self.loop is not None:
            if self.service is not None:
                self.loop.run_until_complete(self.service.close())
            self.loop.run_until_complete(self.loop.shutdown_default_executor())
            self.loop.close()
        if self.engine is not None:
            self.engine.close()
        self.loop = self.service = self.engine = None

    # ------------------------------------------------------------------
    # Driving the service
    # ------------------------------------------------------------------

    async def _send(self, request: tuple, due: float, out: dict, i: int) -> None:
        """One request, timed from ``due``.  A failure is recorded, not
        raised, so one refusal cannot abort the phase; its latency stays
        infinite: a failed request misses every limit."""
        is_query = request[0] == "query"
        try:
            if is_query:
                outcome = await self.service.submit(request[1])
            else:
                await self.service.replace(request[1], request[2])
                outcome = True
        except ServiceError as exc:
            out["errors"].append(f"{request[0]}: {type(exc).__name__}: {exc}")
            outcome = None if is_query else False
        else:
            out["latency"][i] = time.perf_counter() - due
        out["entries"][i] = (*request, outcome)

    async def _phase(self, plan: list[tuple], arrivals) -> dict:
        """Send ``plan`` on the ``arrivals`` schedule (all zeros: a
        burst) from one generator task; returns per-request records."""
        n = len(plan)
        out = {
            "plan": plan,
            "latency": np.full(n, np.inf),
            "lag": np.zeros(n),
            "entries": [None] * n,
            "errors": [],
        }
        tasks = []
        start = time.perf_counter()
        for i, (request, offset) in enumerate(zip(plan, arrivals)):
            due = start + offset
            if offset > 0.0:
                await asyncio.sleep(max(due - time.perf_counter(), 0.0))
                out["lag"][i] = time.perf_counter() - due
            tasks.append(asyncio.ensure_future(self._send(request, due, out, i)))
        await asyncio.gather(*tasks)
        out["wall"] = time.perf_counter() - start
        self.log.extend(out["entries"])
        return out

    async def _traffic(self, factor: float) -> dict:
        """The three phases at ``factor`` of their length; service
        counters are snapshotted around each."""
        phases = {}
        stats = [self.service.stats()]
        n_read = self._scaled(RATE * READ_S, factor)
        phases["read"] = await self._phase(
            self._plan(2, n_read, mutate=False), self._arrivals(2, n_read)
        )
        stats.append(self.service.stats())
        n_rw = self._scaled(RATE * RW_S, factor)
        phases["rw"] = await self._phase(
            self._plan(3, n_rw, mutate=True), self._arrivals(3, n_rw)
        )
        stats.append(self.service.stats())
        # A shorter pass runs fewer bursts, not smaller ones: the batches
        # a burst forms (size / 8, exactly) are a count others may cite.
        size = self._scaled(BURST_SIZE, 1.0) // MUTATE_EVERY * MUTATE_EVERY
        phases["bursts"] = []
        for b in range(max(int(round(BURSTS * factor)), 1)):
            phases["bursts"].append(
                await self._phase(self._plan(4 + b, size, mutate=True), np.zeros(size))
            )
            stats.append(self.service.stats())
        phases["stats"] = stats
        return phases

    @staticmethod
    def _queries(phase: dict) -> np.ndarray:
        """Latencies (s) of the phase's queries; failed ones are inf."""
        picks = [i for i, r in enumerate(phase["plan"]) if r[0] == "query"]
        return phase["latency"][picks]

    def _summarise(self, m: Measurements, phases: dict, prefix: str) -> None:
        read, rw, bursts = phases["read"], phases["rw"], phases["bursts"]
        for phase in (read, rw, *bursts):
            m.ops(len(phase["plan"]))
            for error in phase["errors"]:
                m.fail(error)
        m.set(f"{prefix}read_latency_p50_ms", percentile_ms(self._queries(read), 50))
        m.set(f"{prefix}rw_latency_p50_ms", percentile_ms(self._queries(rw), 50))
        m.set(
            f"{prefix}burst_ops_s",
            float(np.median([len(b["plan"]) / b["wall"] for b in bursts])),
        )
        sent = np.concatenate([read["latency"], rw["latency"]])
        m.set(f"{prefix}late_share", float(np.mean(sent * 1e3 > LATE_LIMIT_MS)))
        lag = np.concatenate([read["lag"], rw["lag"]])
        m.notes["generator_lag_p50_ms"] = percentile_ms(lag, 50)
        m.notes["noisy"] = (
            m.notes["generator_lag_p50_ms"]
            > 0.25 * m.metrics[f"{prefix}read_latency_p50_ms"]
        )

    def run(self, m: Measurements) -> None:
        phases = self.loop.run_until_complete(self._traffic(1.0))
        self._summarise(m, phases, "")
        pooled = np.concatenate(
            [self._queries(phases["read"]), self._queries(phases["rw"])]
        )
        m.set("latency_p50_ms", percentile_ms(pooled, 50))
        m.set("throughput_ops_s", m.metrics["burst_ops_s"])
        m.notes["samples"] = len(pooled)
        self._verify(m, phases)

    def _verify(self, m: Measurements, phases: dict, tracer=None) -> None:
        """Replay the whole submission log on a plain engine: every
        mutation, every ``VERIFY_EVERY``-th query, in submission order."""
        twin = UncertainEngine(self.objects)
        seen = checked = 0
        for entry in self.log:
            if entry[0] == "replace":
                if entry[3]:
                    with span_if(tracer, "core.engine.replace"):
                        twin.replace(entry[1], entry[2])
                continue
            seen += 1
            if entry[2] is None or seen % VERIFY_EVERY:
                continue
            checked += 1
            if not reference.same_result(entry[2].result, twin.execute(entry[1])):
                m.fail(f"service reply for q={entry[1].q} differs from sequential replay")
        twin.close()
        m.notes["verified"] = checked
        read = phases["read"]["entries"]
        if len(read) >= DIGEST_PREFIX and all(e[2] is not None for e in read[:DIGEST_PREFIX]):
            answers = (e[2].result.answers for e in read[:DIGEST_PREFIX])
            m.digests(self.name, self.seed, {"read": reference.digest(answers)})

    # ------------------------------------------------------------------

    def run_traced(self, m: Measurements, tracer) -> None:
        """A quarter of each phase with hook handlers counting the
        service's micro-batches, the service's own counters read around
        every phase, then the rw phase's mutations replayed on a twin
        monitor and a twin engine with spans around each call."""
        batch_sizes: list[int] = []
        handler_s = [0.0]

        def on_batch(point, context):
            tick = time.perf_counter()
            if point == "service.batch":
                batch_sizes.append(context["size"])
            handler_s[0] += time.perf_counter() - tick

        engine_before = self.engine.stats()
        hooks.install(on_batch)
        try:
            phases = self.loop.run_until_complete(self._traffic(0.25))
        finally:
            hooks.uninstall(on_batch)
        engine_after = self.engine.stats()
        self._summarise(m, phases, "client.")
        read, rw, bursts, stats = (phases[k] for k in ("read", "rw", "bursts", "stats"))

        def mean_batch(before, after):
            batches = adapters.delta(before, after, "batches")
            queries = adapters.delta(before, after, "coalesced_queries")
            return queries / batches if batches else None

        m.set("service.mean_batch_read", mean_batch(stats[0], stats[1]))
        m.set("service.mean_batch_rw", mean_batch(stats[1], stats[2]))
        per_burst = [
            adapters.delta(stats[2 + b], stats[3 + b], "batches")
            for b in range(len(bursts))
        ]
        if None not in per_burst:
            m.set("service.batches_per_burst", float(np.median(per_burst)))
        for counter in ("shed", "retries", "deadline_misses", "notifications"):
            m.set(f"service.{counter}", adapters.delta(stats[0], stats[-1], counter))
        m.notes["hooked_batches"] = len(batch_sizes)

        replies = [
            (latency, entry[2])
            for phase in (read, rw)
            for latency, entry in zip(phase["latency"], phase["entries"])
            if entry[0] == "query" and entry[2] is not None
        ]
        engine_call = np.array([reply.latency_s for _, reply in replies])
        waits = np.array([latency for latency, _ in replies]) - engine_call
        m.set("service.queue_wait_p50_ms", percentile_ms(waits, 50))
        m.set("service.engine_call_p50_ms", percentile_ms(engine_call, 50))
        mutations = rw["latency"][
            [i for i, r in enumerate(rw["plan"]) if r[0] == "replace"]
        ]
        m.set("service.mutation_p50_ms", percentile_ms(mutations, 50))
        m.set("service.mutation_p90_ms", percentile_ms(mutations, 90))

        caches = "caches.{}_cache.{}".format
        for cache, metric in (
            ("distribution", "distribution_hit_rate"),
            ("table", "table_hit_rate"),
        ):
            hits = adapters.delta(engine_before, engine_after, caches(cache, "hits"))
            misses = adapters.delta(engine_before, engine_after, caches(cache, "misses"))
            if hits is not None and misses is not None:
                m.set(f"core.batch.{metric}", hits / max(hits + misses, 1))
        # Constraints never vary here, so every table hit replays the
        # memoised result: the replay share is table hits per query.
        table_hits = adapters.delta(engine_before, engine_after, caches("table", "hits"))
        served = adapters.delta(stats[0], stats[-1], "coalesced_queries")
        if table_hits is not None and served:
            m.set("core.batch.result_replay_share", table_hits / served)

        lag = np.concatenate([read["lag"], rw["lag"]])
        m.set("client.generator_lag_p50_ms", percentile_ms(lag, 50))
        m.set("client.generator_lag_p99_ms", percentile_ms(lag, 99))
        m.set("client.read_latency_p90_ms", percentile_ms(self._queries(read), 90))
        m.set("client.rw_latency_p90_ms", percentile_ms(self._queries(rw), 90))
        m.set("client.rw_latency_p99_ms", percentile_ms(self._queries(rw), 99))
        m.set("client.samples", len(replies))
        m.set("trace.overhead_ratio", 1.0 + handler_s[0] / float(engine_call.sum()))

        self._replay_monitor(m, tracer, rw["plan"])
        self._verify(m, phases, tracer)
        replaced = tracer.totals().get("core.engine.replace")
        if replaced:
            m.set("core.engine.replace_ms", replaced[1] / replaced[0] * 1e3)

    def _replay_monitor(self, m: Measurements, tracer, plan: list[tuple]) -> None:
        """The continuous tier alone: the rw phase's mutations through a
        twin monitor holding the same 64 registrations."""
        twin = UncertainEngine(self.objects)
        monitor = ContinuousMonitor(twin)
        monitor.register_many([_spec(q) for q in self.hot[:SUBSCRIPTIONS]])
        reexecuted = replayed = registered = ticks = 0
        for i, request in enumerate(plan):
            if request[0] != "replace":
                continue
            with tracer.span("continuous.route", op_id=f"mutation/{i}"):
                monitor.replace(request[1], request[2])
            with tracer.span("continuous.tick", op_id=f"mutation/{i}"):
                report = monitor.tick()
            ticks += 1
            reexecuted += len(report.reexecuted)
            replayed += report.replayed
            registered += report.registered
        index = monitor.stats()
        twin.close()
        if not ticks:
            return
        m.set("continuous.tick_ms", tracer.seconds("continuous.tick") / ticks * 1e3)
        m.set(
            "continuous.route_ms_per_mutation",
            tracer.seconds("continuous.route") / ticks * 1e3,
        )
        m.set("continuous.reexecuted_per_tick", reexecuted / ticks)
        m.set("continuous.replayed_share", replayed / registered)
        pruned = adapters.stat(index, "index.groups_pruned")
        tested = adapters.stat(index, "index.group_tests")
        if pruned is not None and tested:
            m.set("continuous.groups_pruned_share", pruned / tested)
