"""Lane-parallel execution: one engine's filter, C-PNN fanned out by query.

:class:`ShardedEngine` *is* an :class:`~repro.core.engine.UncertainEngine`
— the same object registry, the same incrementally maintained filter
stage, the same k-NN / range executors, ``pnn()`` and ``explain()`` —
plus ``n_shards`` C-PNN execution *lanes* and an executor backend that
decides where the lanes run.  Answers, records, and bounds are
**bit-identical** to a single engine over the same object sequence; the
property suite asserts it for all three families, across interleaved
update streams, and across every executor backend.

Why the work splits by query and never by object (DESIGN.md §12): the
paper's filter prunes against one global ``f_min``, and its verifiers
couple every candidate of a query through one subregion table.  So the
parent filters a C-PNN batch with its own batch MBR filter, stages the
candidate sets, and sends each query to its affinity lane
(:func:`~repro.core.engine.lanes.lane_for`'s content hash, so repeated
probes stay warm).  A lane is a private C-PNN executor with its own
table cache running the unmodified single-engine pipeline
on its slice of the batch.  Batch ≡ per-query loop is a bit-level
property of that pipeline, so any partition of the batch is too — and
the filter *is* the single engine's.

*Where* the lanes run is the executor's business (DESIGN.md §13): the
engine plans each batch as serialized
:class:`~repro.core.engine.executors.base.PnnItem` work items — plain
data, never closures — and hands them to the backend
``config.executor`` selected: inline (``"serial"``) or a persistent
spawn-based worker pool whose workers hold a replica of the objects and
the filter coordinates (``"process"``).  ``"auto"`` picks per host (see
:func:`~repro.core.engine.executors.base.resolve_backend`).
:meth:`ShardedEngine.close` releases whatever the backend holds (also
used as a context manager).
"""

from __future__ import annotations

import os
import time
from typing import Sequence

from repro.core.batch import BatchResult, point_key
from repro.core.engine.config import EngineConfig
from repro.core.engine.executors import make_executor, resolve_backend
from repro.core.engine.executors.base import ExecutionTimeout, PnnItem
from repro.core.engine.executors.breaker import CircuitBreaker
from repro.core.engine.facade import UncertainEngine
from repro.core.engine.lanes import Lane, lane_for
from repro.core.engine.pnn import _result_sig
from repro.core.types import CPNNQuery, QueryPlan, QueryResult

__all__ = ["ShardedEngine"]


class ShardedEngine(UncertainEngine):
    """A single engine whose C-PNN batches fan out across lanes.

    Same façade, same results to the bit, C-PNN verification spread
    over ``n_shards`` execution lanes (see the module docstring).  Use
    it when batches are large enough for the per-query work to dominate
    the fan-out overhead — the ``benchmarks/test_sharded_parallel.py``
    gate demands ≥2× batch throughput on a 4-core machine.

    Parameters
    ----------
    objects:
        As for :class:`~repro.core.engine.UncertainEngine`; may be
        empty.
    config:
        Shared by the parent and every execution lane, so a single
        engine built from the same config answers identically.
    n_shards:
        Execution-lane count, and under the process backend the
        worker-pool size — one resident worker per lane (default: one
        per core, capped at 8).
    """

    def __init__(
        self,
        objects: Sequence,
        config: EngineConfig | None = None,
        *,
        n_shards: int | None = None,
    ) -> None:
        if n_shards is None:
            n_shards = max(1, min(8, os.cpu_count() or 1))
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        super().__init__(objects, config)
        #: C-PNN tables live in the lanes (query-point affinity); the
        #: parent keeps none, and mutations queue invalidation boxes to
        #: every lane instead.
        self._table_cache = None
        self._n_shards = int(n_shards)
        self._backend = resolve_backend(self._config, parallel=True)
        self._executor = make_executor(self._backend, self)
        #: Lazily built cache of every backend the breaker may route to
        #: (the configured one is pre-seeded so tests and callers can
        #: keep reaching ``self._executor`` directly).
        self._executors = {self._backend: self._executor}
        self._breaker = CircuitBreaker(self._backend)
        self._fallback_items = 0
        self._lanes = [
            Lane(self._config, self._n_shards) for _ in range(self._n_shards)
        ]
        self._last_parallel: dict = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def executor(self) -> str:
        """The resolved backend name (``"auto"`` never survives here)."""
        return self._backend

    def warm_executor(self) -> str:
        """Start whatever the backend keeps resident (the process
        backend's worker pool) before the first batch, so cold-batch
        measurements don't pay spawn+attach.  No-op for backends with
        nothing to pre-start; returns the backend name."""
        starter = getattr(self._executor, "ensure_started", None)
        if starter is not None:
            starter()
        return self._backend

    def _executor_for(self, name: str):
        """The executor instance for backend ``name``, built on first
        use (the circuit breaker may route a dispatch to a healthier
        backend than the configured one)."""
        executor = self._executors.get(name)
        if executor is None:
            executor = make_executor(name, self)
            self._executors[name] = executor
        return executor

    @staticmethod
    def _failure_fingerprint(executor) -> tuple:
        """Counters whose movement marks a dispatch unhealthy for the
        circuit breaker (absorbed worker deaths included: the answer
        was right, the pool wasn't)."""
        return (
            getattr(executor, "_failures", 0),
            getattr(executor, "_errors", 0),
            getattr(executor, "_shm_fallbacks", 0),
        )

    def close(self) -> None:
        """Release every backend's resources — worker processes and
        shared-memory segments (idempotent; engine stays
        usable — they are recreated on the next call that needs them)."""
        for executor in self._executors.values():
            executor.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(objects={len(self._objects)}, "
            f"n_shards={self._n_shards}, executor={self._backend!r})"
        )

    # ------------------------------------------------------------------
    # Maintenance: the filter stage's hooks, plus the lanes and the op log
    # ------------------------------------------------------------------

    def _record_mutation(self, op) -> None:
        """Log one mutation to every live backend — a degraded engine
        may heal back onto a pool whose replicas must not have missed
        anything in between."""
        for executor in self._executors.values():
            executor.record_mutation(op)

    def _maintain_insert(self, obj, was_empty: bool) -> None:
        super()._maintain_insert(obj, was_empty)
        for lane in self._lanes:
            lane._queue_invalidation(obj)
        self._record_mutation(("insert", obj))

    def _maintain_remove(self, victim, index: int) -> None:
        super()._maintain_remove(victim, index)
        for lane in self._lanes:
            lane._queue_invalidation(victim)
            if not self._objects:
                # Drained: reset the lanes' geometry-holding structures
                # too (the registry resets the parent's) — a refill may
                # change dimensionality (DESIGN.md §11).
                lane._pending_invalidation.clear()
                lane._table_cache.clear()
        self._record_mutation(("remove", victim.key))

    def _maintain_replace(self, victim, obj, index: int) -> None:
        super()._maintain_replace(victim, obj, index)
        for lane in self._lanes:
            lane._queue_invalidation(victim)
            lane._queue_invalidation(obj)
        self._record_mutation(("replace", victim.key, obj))

    # ------------------------------------------------------------------
    # Lane-parallel C-PNN execution
    # ------------------------------------------------------------------

    def _lane_for(self, q) -> int:
        return lane_for(q, len(self._lanes))

    def _pnn_batch(self, queries: list[CPNNQuery]) -> BatchResult:
        """Plan the batch as per-lane work items, then let the executor
        run them.

        Under the serial backend the parent filters the batch
        with its own filter stage and stages the candidate sets on the
        lanes; each query then runs on its affinity lane, every lane
        running the unmodified single-engine C-PNN batch executor over
        its slice.  Under the process backend the items instead ship to
        resident workers that filter against their own replicas — same
        arithmetic, same answers — and batches smaller than
        ``config.process_min_batch`` run inline on the parent lanes (a
        pipe round-trip isn't worth it).  Results scatter back into
        input order; counters and phase timings sum over lanes, plus
        the parent's staging filter in ``timings.filtering``
        (wall-clock vs. summed lane time is reported through
        :meth:`stats` as the parallel speedup).
        """
        batch = BatchResult()
        if not queries:
            return batch
        wall_tick = time.perf_counter()
        assignments: dict[int, list[int]] = {}
        for i, query in enumerate(queries):
            assignments.setdefault(self._lane_for(query.q), []).append(i)
        items = [
            PnnItem(
                lane=lane_id,
                indices=tuple(indices),
                specs=tuple(queries[i] for i in indices),
            )
            for lane_id, indices in assignments.items()
        ]

        active = self._breaker.begin()
        executor = self._executor_for(active)
        before = self._failure_fingerprint(executor)
        remote = active == "process" and len(queries) >= max(
            1, self._config.process_min_batch
        )
        fell_back = False
        try:
            if remote:
                # Workers filter against their resident replicas; the
                # parent stages nothing.
                outcomes = executor.run_pnn(items, None)
            else:
                # The serial backend's path — also where process batches
                # below the dispatch floor run, so unit-scale workloads
                # never pay a spawn.
                tick = time.perf_counter()
                staged = self._stage_filter_results(queries)
                batch.timings.filtering += time.perf_counter() - tick
                outcomes = self._executor_for("serial").run_pnn(items, staged)
        except ExecutionTimeout:
            # The caller's deadline, not the pool's health.
            self._breaker.abort()
            raise
        except Exception:
            # The backend itself blew up past its own recovery: answer
            # the batch wholly in-process (bit-identical path), and let
            # the breaker judge.
            fell_back = True
            self._fallback_items += len(items)
            outcomes = [self._run_pnn_item_local(item) for item in items]
        healthy = not fell_back and before == self._failure_fingerprint(executor)
        transition = self._breaker.record(healthy)
        if transition == "degraded" and active == "process":
            # Walking away from a sick pool: release its workers now
            # rather than keeping zombies resident while degraded.
            executor.close()

        slots: list[QueryResult | None] = [None] * len(queries)
        lane_seconds = 0.0
        for item, (sub, seconds) in zip(items, outcomes):
            lane_seconds += seconds
            for i, result in zip(item.indices, sub.results):
                slots[i] = result
            for phase in ("filtering", "initialization", "verification", "refinement"):
                setattr(
                    batch.timings,
                    phase,
                    getattr(batch.timings, phase) + getattr(sub.timings, phase),
                )
            batch.table_hits += sub.table_hits
            batch.table_misses += sub.table_misses
            batch.result_hits += sub.result_hits
            batch.replayed.extend(item.indices[j] for j in sub.replayed)
        batch.replayed.sort()
        batch.results = slots
        wall = time.perf_counter() - wall_tick
        inline = fell_back or (active == "process" and not remote)
        ran_on = "serial" if inline else active
        self._last_parallel = {
            "specs": len(queries),
            "lanes_used": len(items),
            "backend": ran_on,
            "wall_s": wall,
            "lane_s": lane_seconds,
            "parallel_speedup": (lane_seconds / wall) if wall > 0 else 1.0,
        }
        if fell_back or not healthy:
            # Something failed under this batch (even though every
            # answer is exact): stamp the story on each result so a
            # caller holding only the QueryResult can see it.
            note = {
                "backend": ran_on,
                "configured": self._backend,
                "recovered_inline": fell_back,
                "breaker": self._breaker.snapshot()["state"],
            }
            for result in batch.results:
                result.diagnostics["executor"] = dict(note)
        return batch

    def _stage_filter_results(self, queries: list[CPNNQuery]) -> dict:
        """The parent's filter results for the lanes, keyed by point.

        Filters only the points the lanes cannot answer from their
        result-snapshot tier — a warm steady-state batch (the streaming
        scenario) replays wholesale and must not pay a filter pass it
        then discards.  Peeking (no counter, no recency) keeps the
        lanes' own cache accounting identical to the single engine's;
        queued invalidations flush first so a stale snapshot can never
        suppress a needed filter.
        """
        points = []
        seen: set = set()
        for query in queries:
            lane = self._lanes[self._lane_for(query.q)]
            lane._flush_table_invalidations()
            key = point_key(query.q)
            if key in seen:
                continue
            entry = lane._table_cache.peek(key)
            if entry is None or entry.results.get(_result_sig(query)) is None:
                seen.add(key)
                points.append(query.q)
        if not points:
            return {}
        return dict(zip(map(point_key, points), self._filter_batch(points)))

    def _run_pnn_item(
        self, item: PnnItem, staged: dict
    ) -> tuple[BatchResult, float]:
        """In-process execution of one C-PNN item on its parent lane
        (the serial backend and the process backend's small-batch
        path)."""
        lane = self._lanes[item.lane]
        lane._staged = staged
        # Lanes run the single-engine pipeline, whose C-PNN loops poll
        # their own host's scope — hand them the parent's.
        lane._cancel_scope = self._cancel_scope
        tick = time.perf_counter()
        try:
            sub = lane._pnn_batch(list(item.specs))
        finally:
            lane._staged = None
            lane._cancel_scope = None
        return sub, time.perf_counter() - tick

    def _run_pnn_item_local(self, item: PnnItem) -> tuple[BatchResult, float]:
        """Crash-recovery path: re-execute a dead worker's item wholly
        in-process, filtering its points on the parent (never back
        through the executor — the pool is the thing that just
        failed).  The parent's filter pass is booked as the item's
        filtering time."""
        tick = time.perf_counter()
        points = [spec.q for spec in item.specs]
        staged = dict(zip(map(point_key, points), self._filter_batch(points)))
        filtering = time.perf_counter() - tick
        sub, seconds = self._run_pnn_item(item, staged)
        sub.timings.filtering += filtering
        return sub, seconds

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _executor_diagnostics(self) -> dict:
        """The breaker-active backend's counters, normalised to one
        schema (missing counters read 0 — the serial backend cannot
        lose a worker), plus the engine-level failure story."""
        stats = dict(self._executor_for(self._breaker.backend).stats())
        for counter in self._EXECUTOR_COUNTERS:
            stats.setdefault(counter, 0)
        stats["configured"] = self._backend
        stats["inline_fallbacks"] = self._fallback_items
        stats["breaker"] = self._breaker.snapshot()
        return stats

    def _shard_stats(self) -> dict:
        return {"n_shards": self._n_shards, "parallel": dict(self._last_parallel)}

    def _cache_stats(self) -> dict:
        return {
            "lanes": [
                {"table_cache": self._cache_summary(lane._table_cache)}
                for lane in self._lanes
            ],
        }

    def stats(self) -> dict:
        """The single engine's counters, with the lanes' caches and
        invalidation queues in place of the parent's, plus the lane
        count and the last batch's parallel accounting (summed lane
        seconds / wall seconds) under ``"shards"``."""
        stats = super().stats()
        stats["pending_invalidations"] = sum(
            len(lane._pending_invalidation) for lane in self._lanes
        )
        stats["shards"] = self._shard_stats()
        return stats

    def _explain(self, spec) -> QueryPlan:
        """The single engine's plan, plus where its stages run and the
        lane snapshot in :attr:`~repro.core.types.QueryPlan.shards`."""
        for lane in self._lanes:
            lane._flush_table_invalidations()  # report live entry counts
        plan = super()._explain(spec)
        plan.shards = self._shard_stats()
        plan.shards["executor"] = self._executor_diagnostics()
        if not self._objects:
            return plan
        if plan.family == "cpnn":
            lane = self._lane_for(plan.spec.q)
            plan.stages.insert(
                1,
                f"lane {lane}/{self._n_shards} runs the stages below "
                f"({self._backend} executor)",
            )
        else:
            plan.stages.append(
                "every stage runs on the parent; the lanes "
                f"({self._backend} executor) serve C-PNN only"
            )
        return plan
