"""Shard-parallel execution: STR spatial shards + pluggable executors.

:class:`ShardedEngine` serves the same typed façade as
:class:`~repro.core.engine.UncertainEngine` — ``execute`` /
``execute_batch`` / ``explain`` over C-PNN, k-NN, and range specs, and
the full :ref:`mutation contract <mutation-contract>` — while spreading
the work over ``n_shards`` spatial partitions, each **a full per-shard
engine** (its own ``BatchMbrFilter``, caches, and deferred R-tree
queue).  Answers, records, and bounds are **bit-identical** to a single
engine over the same object sequence; the property suite asserts it for
all three families, across interleaved update streams, and across every
executor backend.

How the fan-out stays exact (DESIGN.md §12):

1. **Partition rule.**  Objects are Sort-Tile-Recursive partitioned by
   MBR center (x-slabs, then y-tiles — the same tiling
   :mod:`repro.index.str_pack` uses to pack R-tree leaves), so each
   shard covers a compact tile of space and a query's candidates
   cluster on few shards.  Inserts route through the recorded tile
   cuts; when churn skews any shard past
   ``rebalance_threshold × (N / n_shards)`` the engine re-splits.

2. **Global ``f_min`` reconciliation.**  Per-shard MBR sweeps run
   concurrently, producing each shard's ``mindist``/``maxdist``
   columns.  Scattered into the global matrix, the pruning radii are
   *selections* over the same floats the single engine reduces —
   ``min`` for C-PNN, the k-th smallest ``maxdist`` for k-NN — so they
   are bit-identical under any column order, and the merged candidate
   sets (ascending global object order) equal the single engine's
   exactly.

3. **Lane-parallel verification.**  C-PNN probabilities couple every
   candidate of a query through one subregion table, so *per-shard*
   verification cannot reproduce the single-engine numbers.  Instead
   the reconciled queries fan out across execution *lanes* — each a
   private C-PNN executor (own distribution/table caches, deterministic
   query-point affinity via :func:`~repro.core.engine.lanes.lane_for`'s
   content hash, so repeated probes stay warm) running the exact
   single-engine pipeline on its slice of the batch.  Batch ≡ per-query
   loop is already a bit-level property of that pipeline, so any
   partition of the batch is too.

*Where* the work items run is the executor's business (DESIGN.md §13):
the engine plans each batch as serialized
:class:`~repro.core.engine.executors.base.SweepItem` /
:class:`~repro.core.engine.executors.base.PnnItem` work items — plain
data, never closures — and hands them to the backend the ``executor=``
knob selected: inline (``"serial"``), the shared thread pool
(``"thread"``), or a persistent spawn-based worker pool attached to a
shared-memory coordinate segment (``"process"``).  ``"auto"`` picks
per host (see
:func:`~repro.core.engine.executors.base.resolve_backend`).
:meth:`ShardedEngine.close` releases whatever the backend holds (also
used as a context manager).
"""

from __future__ import annotations

import os
import time
from typing import Hashable, Sequence

import numpy as np

from repro.core.batch import (
    BatchResult,
    DistributionCache,
    TableCache,
    point_key,
)
from repro.core.engine.config import EngineConfig
from repro.core.engine.executors import make_executor, resolve_backend
from repro.core.engine.executors.base import (
    ExecutionTimeout,
    PnnItem,
    SweepItem,
)
from repro.core.engine.executors.breaker import CircuitBreaker
from repro.core.engine.facade import QueryFacadeMixin, UncertainEngine
from repro.core.engine.knn import KnnExecutorMixin
from repro.core.engine.lanes import FanoutMbrFilter, Lane, lane_for
from repro.core.engine.partition import str_shard_split
from repro.core.engine.pnn import _result_sig
from repro.core.engine.ranges import RangeExecutorMixin
from repro.core.engine.registry import ObjectRegistryMixin
from repro.core.refinement import Refiner
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery, QueryPlan, QueryResult
from repro.index.filtering import filter_candidates, pnn_results_from_matrices

__all__ = ["ShardedEngine"]


class ShardedEngine(
    QueryFacadeMixin,
    ObjectRegistryMixin,
    KnnExecutorMixin,
    RangeExecutorMixin,
):
    """Shard-parallel :class:`~repro.core.engine.UncertainEngine` peer.

    Same façade, same results to the bit, work fanned out across
    ``n_shards`` STR spatial shards and ``max_workers`` execution lanes
    (see the module docstring for the three-stage argument).  Use it
    when batches are large enough for the per-query work to dominate
    the fan-out overhead — the ``benchmarks/test_sharded_parallel.py``
    gate demands ≥2× batch throughput on a 4-core machine.

    Parameters
    ----------
    objects:
        As for :class:`~repro.core.engine.UncertainEngine`; may be
        empty.
    config:
        Shared by every shard engine and every execution lane, so a
        single engine built from the same config answers identically.
    n_shards:
        Spatial partitions (default: one per core, capped at 8, at
        least 2).
    max_workers:
        Parallel width *and* execution-lane count (default:
        ``min(n_shards, cpu_count)``).  Under the process backend this
        is also the worker-pool size — one resident worker per lane.
    rebalance_threshold:
        Re-split when the fullest shard exceeds this multiple of the
        ideal ``N / n_shards`` occupancy (must be > 1).
    executor:
        Backend override (``"auto" | "serial" | "thread" | "process"``);
        beats ``config.executor`` when given.
    """

    def __init__(
        self,
        objects: Sequence,
        config: EngineConfig | None = None,
        *,
        n_shards: int | None = None,
        max_workers: int | None = None,
        rebalance_threshold: float = 4.0,
        executor: str | None = None,
    ) -> None:
        cpu = os.cpu_count() or 1
        if n_shards is None:
            n_shards = max(2, min(8, cpu))
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if max_workers is None:
            max_workers = max(1, min(n_shards, cpu))
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if not rebalance_threshold > 1.0:
            raise ValueError("rebalance_threshold must exceed 1")
        self._config = config or EngineConfig()
        self._n_shards = int(n_shards)
        self._max_workers = int(max_workers)
        self._rebalance_threshold = float(rebalance_threshold)
        self._backend = resolve_backend(
            self._config, parallel=True, override=executor
        )
        self._executor = make_executor(self._backend, self)
        #: Lazily built cache of every backend the breaker may route to
        #: (the configured one is pre-seeded so tests and callers can
        #: keep reaching ``self._executor`` directly).
        self._executors = {self._backend: self._executor}
        self._breaker = CircuitBreaker(
            self._backend,
            threshold=self._config.breaker_threshold,
            probe_after=self._config.breaker_probe_after,
        )
        self._fallback_items = 0
        self._cancel_scope = None
        self._init_registry(objects)
        self._init_chains()
        self._dim = self._objects[0].mbr.dim if self._objects else None
        #: Parent-level distribution cache serving the k-NN/range
        #: executors (the C-PNN lanes own theirs); the registry's
        #: mutation hooks evict from it like the single engine's.
        self._distribution_cache = (
            DistributionCache(self._config.distribution_cache_size)
            if self._config.distribution_cache_size
            else None
        )
        #: The parent keeps no table cache — C-PNN tables live in the
        #: lanes (query-point affinity); mutations queue invalidation
        #: boxes to every lane instead.
        self._table_cache: TableCache | None = None
        self._lanes = [
            Lane(self._config, self._max_workers) for _ in range(self._max_workers)
        ]
        self._fanout = FanoutMbrFilter(self)
        self._rebalances = 0
        self._last_parallel: dict = {}
        self._shards: list[UncertainEngine] = []
        self._owner: dict[Hashable, int] = {}
        self._router = None
        self._columns: list[np.ndarray] | None = None
        self._build_shards()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        return self._config

    @property
    def n_shards(self) -> int:
        return self._n_shards

    @property
    def executor(self) -> str:
        """The resolved backend name (``"auto"`` never survives here)."""
        return self._backend

    @property
    def shards(self) -> tuple:
        """The per-shard engines (full engines; read-only snapshot)."""
        return tuple(self._shards)

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
        """Release every backend's resources — thread pools, worker
        processes, shared-memory segments, and the shard engines' column
        stores (idempotent; engine stays usable — they are recreated on
        the next parallel call)."""
        for executor in self._executors.values():
            executor.close()
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        occupancy = [len(shard) for shard in self._shards]
        return (
            f"{type(self).__name__}(objects={len(self._objects)}, "
            f"n_shards={self._n_shards}, occupancy={occupancy}, "
            f"max_workers={self._max_workers}, executor={self._backend!r})"
        )

    # ------------------------------------------------------------------
    # Sharding: build, route, rebalance
    # ------------------------------------------------------------------

    def _build_shards(self) -> None:
        for shard in self._shards:
            shard.close()  # unlink any shard-owned column stores
        groups, router = str_shard_split(self._objects, self._n_shards)
        self._shards = [UncertainEngine(group, self._config) for group in groups]
        self._owner = {
            obj.key: sid for sid, group in enumerate(groups) for obj in group
        }
        self._router = router
        self._columns = None

    def _shard_columns(self) -> list[np.ndarray]:
        """Per shard, the global object-order positions of its rows.

        Rebuilt lazily after any mutation; shard-local row order always
        matches the shard engine's object list, so scattering a shard's
        matrix columns through this map reconstructs the global
        insertion-order matrix exactly.
        """
        if self._columns is None:
            position = {key: i for i, key in enumerate(self._key_list)}
            self._columns = [
                np.fromiter(
                    (position[obj.key] for obj in shard._objects),
                    dtype=np.intp,
                    count=len(shard._objects),
                )
                for shard in self._shards
            ]
        return self._columns

    def _maybe_rebalance(self) -> None:
        n = len(self._objects)
        if n < 2 * self._n_shards:
            return
        ideal = n / self._n_shards
        if max(len(shard) for shard in self._shards) > self._rebalance_threshold * ideal:
            self._rebalances += 1
            self._build_shards()

    # Maintenance hooks called by the registry's mutation primitives —
    # the global key bookkeeping and the mutation contract live there;
    # these route the index work to the owning shard, keep every lane's
    # caches exact, and log the op for backends with remote replicas.

    def _record_mutation(self, op) -> None:
        """Log one mutation to every live backend — a degraded engine
        may heal back onto a pool whose replicas must not have missed
        anything in between."""
        for executor in self._executors.values():
            executor.record_mutation(op)

    def _maintain_insert(self, obj, was_empty: bool) -> None:
        self._columns = None
        if was_empty or self._router is None:
            self._dim = obj.mbr.dim
            self._build_shards()
        else:
            sid = self._router(obj)
            self._shards[sid].insert(obj)
            self._owner[obj.key] = sid
            self._maybe_rebalance()
        for lane in self._lanes:
            lane._queue_invalidation(obj)
        self._record_mutation(("insert", obj))

    def _maintain_remove(self, victim, index: int) -> None:
        self._columns = None
        sid = self._owner.pop(victim.key)
        if not self._shards[sid].remove(victim.key):  # pragma: no cover - guard
            raise RuntimeError(
                "shard map out of sync with object list: "
                f"object {victim.key!r} was tracked but lives on no shard"
            )
        for lane in self._lanes:
            lane._queue_invalidation(victim)
            if lane._distribution_cache is not None:
                lane._distribution_cache.evict_object(victim)
        if not self._objects:
            self._router = None
            self._dim = None
            # Drained: reset the lanes' geometry-holding structures too
            # (the registry resets the parent's) — a refill may change
            # dimensionality (DESIGN.md §11).
            for lane in self._lanes:
                lane._pending_invalidation.clear()
                if lane._table_cache is not None:
                    lane._table_cache.clear()
        else:
            # Removals skew too: draining other tiles shrinks the
            # ideal occupancy under a shard that kept its objects.
            self._maybe_rebalance()
        self._record_mutation(("remove", victim.key))

    def _maintain_replace(self, victim, obj, index: int) -> None:
        self._columns = None
        old_sid = self._owner.pop(victim.key)
        new_sid = self._router(obj)
        if new_sid == old_sid:
            self._shards[old_sid].replace(victim.key, obj)
        else:
            # The report moved the object into another shard's tile.
            self._shards[old_sid].remove(victim.key)
            self._shards[new_sid].insert(obj)
        self._owner[obj.key] = new_sid
        for lane in self._lanes:
            lane._queue_invalidation(victim)
            lane._queue_invalidation(obj)
            if lane._distribution_cache is not None:
                lane._distribution_cache.evict_object(victim)
        self._maybe_rebalance()
        self._record_mutation(("replace", victim.key, obj))

    # ------------------------------------------------------------------
    # Stage 1: concurrent per-shard sweeps, global reconciliation
    # ------------------------------------------------------------------

    def _as_matrix(self, points: Sequence) -> np.ndarray:
        matrix = np.asarray(points, dtype=float)
        if matrix.ndim == 1:
            if self._dim != 1:
                raise ValueError("query point dimensionality mismatch")
            matrix = matrix.reshape(-1, 1)
        if matrix.ndim != 2 or matrix.shape[1] != self._dim:
            raise ValueError("query point dimensionality mismatch")
        return matrix

    def _global_matrices(self, points: Sequence) -> tuple[np.ndarray, np.ndarray]:
        """MBR ``mindist``/``maxdist`` of every (query, object) pair,
        computed shard-concurrently and scattered into global order.

        Every cell is one shard filter's element-wise arithmetic —
        identical to a single whole-set filter's — so downstream
        reductions (row minima, k-th selections, comparisons) are
        bit-identical to the single-engine path.
        """
        queries = self._as_matrix(points)
        columns = self._shard_columns()
        b, n = queries.shape[0], len(self._objects)
        mindist = np.empty((b, n))
        maxdist = np.empty((b, n))
        items = [
            SweepItem(shard=sid, cols=cols)
            for sid, cols in enumerate(columns)
            if cols.size
        ]
        # Sweeps follow the breaker's current level passively (no
        # begin/record — health is judged on the C-PNN dispatches,
        # which exercise the pool far harder).
        self._executor_for(self._breaker.backend).run_sweeps(
            items, queries, mindist, maxdist
        )
        return mindist, maxdist

    def _run_sweep_item(self, item: SweepItem, queries: np.ndarray):
        """In-process execution of one sweep item (serial/thread
        backends, and the process backend's fallback path)."""
        return self._shards[item.shard]._ensure_batch_filter().matrices(queries)

    def _ensure_batch_filter(self) -> FanoutMbrFilter:
        """The k-NN/range executors' filter: the shard fan-out façade."""
        return self._fanout

    # ------------------------------------------------------------------
    # Stage 2: lane-parallel C-PNN execution
    # ------------------------------------------------------------------

    def _lane_for(self, q) -> int:
        return lane_for(q, len(self._lanes))

    def _execute_pnn(self, query: CPNNQuery, strategy: str) -> QueryResult:
        # Single C-PNN specs route through the batch path: the sharded
        # engine keeps no per-shard packed filter, only the reconciled
        # sweep, and the lane caches stay warm this way.
        return self._pnn_batch([query], strategy).results[0]

    def _pnn_batch(
        self, queries: list[CPNNQuery], strategy: str | None
    ) -> BatchResult:
        """Plan the batch as per-lane work items, then let the executor
        run them.

        Under the serial/thread backends, stage 1 runs the per-shard
        MBR sweeps concurrently and reduces them to global ``f_min``
        candidate sets (insertion order) staged on the parent lanes;
        stage 2 dispatches each query to its affinity lane, every lane
        running the unmodified single-engine C-PNN batch executor over
        its slice.  Under the process backend, the items instead ship
        to resident workers that filter against their own replicas —
        same arithmetic, same answers — and batches smaller than
        ``config.process_min_batch`` run inline on the parent lanes
        (a pipe round-trip isn't worth it).  Results scatter back into
        input order; counters and phase timings sum over lanes
        (wall-clock vs. summed lane time is reported through
        :meth:`stats` as the parallel speedup).
        """
        strategy = self._as_strategy(strategy)
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
                strategy=strategy,
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
                # parent neither sweeps nor stages anything.
                outcomes = executor.run_pnn(items, None, None)
            else:
                staged, snapshot = self._stage_filter_results(queries, strategy)
                if active == "process":
                    # Below the dispatch floor: run on the parent lanes
                    # (exactly the serial backend's path) so unit-scale
                    # workloads never pay a spawn.
                    outcomes = [
                        self._run_pnn_item(item, staged, snapshot)
                        for item in items
                    ]
                else:
                    outcomes = executor.run_pnn(items, staged, snapshot)
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
            batch.cache_hits += sub.cache_hits
            batch.cache_misses += sub.cache_misses
            batch.table_hits += sub.table_hits
            batch.table_misses += sub.table_misses
            batch.result_hits += sub.result_hits
            batch.replayed.extend(item.indices[j] for j in sub.replayed)
        batch.replayed.sort()
        batch.results = slots
        wall = time.perf_counter() - wall_tick
        if fell_back:
            ran_on = "serial"
        elif remote or active != "process":
            ran_on = active
        else:
            ran_on = "serial"
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

    def _stage_filter_results(
        self, queries: list[CPNNQuery], strategy: str
    ) -> tuple[dict | None, list | None]:
        """Parent-side stage 1: reconciled filter results for the lanes.

        R-tree mode sweeps only the points the lanes cannot answer from
        their result-snapshot tier — a warm steady-state batch (the
        streaming scenario) replays wholesale and must not pay a B×N
        fan-out it then discards.  Peeking (no counter, no recency)
        keeps the lanes' own cache accounting identical to the single
        engine's; queued invalidations flush first so a stale snapshot
        can never suppress a needed sweep.  Linear-scan mode instead
        hands lanes the object snapshot — they replay the exact
        region-distance scan (DESIGN.md §3) over the global order.
        """
        if not self._config.use_rtree:
            return None, self._objects
        points = []
        seen: set = set()
        for query in queries:
            lane = self._lanes[self._lane_for(query.q)]
            lane._flush_table_invalidations()
            key = point_key(query.q)
            if key in seen:
                continue
            cache = lane._table_cache
            entry = cache.peek(key) if cache is not None else None
            if entry is None or entry.results.get(
                _result_sig(query, strategy)
            ) is None:
                seen.add(key)
                points.append(query.q)
        staged = (
            dict(zip(map(point_key, points), self._fanout(points)))
            if points
            else {}
        )
        return staged, None

    def _run_pnn_item(
        self, item: PnnItem, staged: dict | None, snapshot: list | None
    ) -> tuple[BatchResult, float]:
        """In-process execution of one C-PNN item on its parent lane
        (serial/thread backends and the process backend's small-batch
        path)."""
        lane = self._lanes[item.lane]
        lane._staged = staged
        lane._scan_objects = snapshot
        # Lanes run the single-engine pipeline, whose C-PNN loops poll
        # their own host's scope — hand them the parent's.
        lane._cancel_scope = getattr(self, "_cancel_scope", None)
        tick = time.perf_counter()
        try:
            sub = lane._pnn_batch(list(item.specs), item.strategy)
        finally:
            lane._staged = None
            lane._scan_objects = None
            lane._cancel_scope = None
        return sub, time.perf_counter() - tick

    def _run_pnn_item_local(self, item: PnnItem) -> tuple[BatchResult, float]:
        """Crash-recovery path: re-execute a dead worker's item wholly
        in-process, computing its own staged filter results serially
        (never back through the executor — the pool is the thing that
        just failed)."""
        if not self._config.use_rtree:
            return self._run_pnn_item(item, None, self._objects)
        points = [spec.q for spec in item.specs]
        queries = self._as_matrix(points)
        n = len(self._objects)
        mindist = np.empty((queries.shape[0], n))
        maxdist = np.empty((queries.shape[0], n))
        for sid, cols in enumerate(self._shard_columns()):
            if not cols.size:
                continue
            shard_min, shard_max = self._run_sweep_item(
                SweepItem(shard=sid, cols=cols), queries
            )
            mindist[:, cols] = shard_min
            maxdist[:, cols] = shard_max
        results = pnn_results_from_matrices(self._objects, mindist, maxdist)
        staged = dict(zip(map(point_key, points), results))
        return self._run_pnn_item(item, staged, None)

    def pnn(self, q) -> dict[Hashable, float]:
        """Exact PNN through the reconciled filter (see
        :meth:`UncertainEngine.pnn <repro.core.engine.pnn.PnnExecutorMixin.pnn>`)."""
        if not self._objects:
            raise ValueError("cannot query an empty engine (insert objects first)")
        if self._config.use_rtree:
            filter_result = self._fanout([q])[0]
        else:
            # Linear-scan engines filter with exact region distances,
            # which 2-D regions may bound tighter than the MBR sweep —
            # the single engine's candidate (and key) set must match.
            filter_result = filter_candidates(self._objects, q)
        distributions = [
            obj.distance_distribution(q) for obj in filter_result.candidates
        ]
        table = SubregionTable(
            distributions, grid_refinement=self._config.grid_refinement
        )
        refiner = Refiner(
            table,
            quadrature_margin=self._config.quadrature_margin,
            order=self._config.refinement_order,
        )
        probabilities = refiner.exact_all()
        return {
            key: float(p) for key, p in zip(table.keys, probabilities)
        }

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _executor_stats(self) -> dict:
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

    def _executor_diagnostics(self) -> dict:
        return self._executor_stats()

    def _storage_stats(self) -> dict:
        """The ``stats()["storage"]`` payload, aggregated over every
        shard engine's owned column stores (one store-backed
        :class:`~repro.index.filtering.BatchMbrFilter` per non-empty
        shard when ``config.storage != "ram"``)."""
        stats: dict = {
            "backend": self._config.storage,
            "stores": 0,
            "nbytes": 0,
            "logical_reads": 0,
            "page_faults": 0,
            "evictions": 0,
            "resident_bytes": 0,
        }
        for shard in self._shards:
            snapshot = shard._storage_stats()
            for key in (
                "stores",
                "nbytes",
                "logical_reads",
                "page_faults",
                "evictions",
                "resident_bytes",
            ):
                stats[key] += int(snapshot.get(key, 0))
        reads = stats["logical_reads"]
        stats["hit_rate"] = (
            1.0 - stats["page_faults"] / reads if reads else 1.0
        )
        return stats

    def _shard_stats(self) -> dict:
        occupancy = [len(shard) for shard in self._shards]
        n = len(self._objects)
        ideal = n / self._n_shards if self._n_shards else 0.0
        return {
            "n_shards": self._n_shards,
            "max_workers": self._max_workers,
            "occupancy": occupancy,
            "skew": (max(occupancy) / ideal) if n else 0.0,
            "rebalances": self._rebalances,
            "rebalance_threshold": self._rebalance_threshold,
            "parallel": dict(self._last_parallel),
        }

    def _cache_stats(self) -> dict:
        return {
            "distribution_cache": self._cache_summary(self._distribution_cache),
            "lanes": [
                {
                    "distribution_cache": self._cache_summary(
                        lane._distribution_cache
                    ),
                    "table_cache": self._cache_summary(lane._table_cache),
                }
                for lane in self._lanes
            ],
        }

    def stats(self) -> dict:
        """Sharded observability: the single-engine counters plus
        per-shard occupancy/skew, the last batch's parallel accounting
        (summed lane seconds / wall seconds), and the executor
        backend's own counters (pool liveness, worker failures)."""
        return {
            "engine": type(self).__name__,
            "objects": len(self._objects),
            "index": "sharded-rtree" if self._config.use_rtree else "sharded-linear",
            "pending_invalidations": sum(
                len(lane._pending_invalidation) for lane in self._lanes
            ),
            "caches": self._cache_stats(),
            "storage": self._storage_stats(),
            "continuous": self._continuous_stats(),
            "shards": self._shard_stats(),
            "executor": self._executor_stats(),
        }

    def _explain(self, spec, strategy: str | None = None) -> QueryPlan:
        """The sharded evaluation plan: the single-engine plan shape
        plus per-shard occupancy and parallel accounting in
        :attr:`~repro.core.types.QueryPlan.shards` (the façade's
        :meth:`~repro.core.engine.facade.QueryFacadeMixin.explain`
        wrapper stamps executor diagnostics on top)."""
        spec = self._as_spec(spec)
        for lane in self._lanes:
            lane._flush_table_invalidations()  # report live entry counts
        caches = self._cache_stats()
        shards = self._shard_stats()
        shards["executor"] = self._executor_stats()
        n = len(self._objects)
        family = self._family_of(spec)
        if not self._objects:
            return QueryPlan(
                spec=spec,
                family=family,
                strategy=None,
                index="none",
                stages=["empty engine: return an empty result"],
                caches=caches,
                shards=shards,
            )
        index = "sharded-rtree" if self._config.use_rtree else "sharded-linear"
        fan_out = (
            f"per-shard MBR sweeps across {self._n_shards} shards "
            f"({self._max_workers} workers, {self._backend} executor)"
        )
        if family == "cknn":
            counts = self._knn_plan_counts(spec, self._fanout)
            if counts is None:
                return QueryPlan(
                    spec=spec,
                    family=family,
                    strategy=None,
                    index=index,
                    stages=[
                        f"k={spec.k} covers all {n} objects: "
                        "every object qualifies with probability 1"
                    ],
                    candidates=n,
                    pruned=0,
                    fmin=float("inf"),
                    caches=caches,
                    shards=shards,
                )
            candidates, pruned, fmin_k = counts
            return QueryPlan(
                spec=spec,
                family=family,
                strategy=None,
                index=index,
                stages=[
                    fan_out,
                    f"global f_min^{min(spec.k, n)} reconciliation",
                    "distance distributions for survivors (LRU cache)",
                    "RS-style k-NN bounds via columnar cdf kernels",
                    "exact Poisson-binomial integration for undecided objects",
                ],
                candidates=candidates,
                pruned=pruned,
                fmin=fmin_k,
                caches=caches,
                shards=shards,
            )
        if family == "crange":
            sure_in, sure_out, straddle = self._range_plan_counts(
                spec, self._fanout
            )
            return QueryPlan(
                spec=spec,
                family=family,
                strategy=None,
                index=index,
                stages=[
                    fan_out,
                    "MBR range classification (merged sweep): "
                    f"{sure_in} certainly inside, {sure_out} certainly outside",
                    f"exact region-distance re-check for {straddle} straddling objects",
                    "cdf(radius) via columnar kernel for true straddlers (LRU cache)",
                ],
                candidates=straddle,
                pruned=sure_in + sure_out,
                fmin=float(spec.radius),
                caches=caches,
                shards=shards,
            )
        strategy = self._as_strategy(strategy)
        if self._config.use_rtree:
            filter_result = self._fanout([spec.q])[0]
        else:
            filter_result = filter_candidates(self._objects, spec.q)
        lane = self._lane_for(spec.q)
        verifiers, suffix = self._cpnn_plan_stages(spec, strategy)
        stages = [
            fan_out,
            "global f_min reconciliation → merged candidate set "
            "(insertion order)",
            f"lane {lane}/{len(self._lanes)} runs the single-engine "
            f"C-PNN pipeline ({strategy}, {self._backend} executor)",
        ] + suffix
        return QueryPlan(
            spec=spec,
            family=family,
            strategy=strategy,
            index=index,
            stages=stages,
            verifiers=verifiers,
            candidates=len(filter_result.candidates),
            pruned=n - len(filter_result.candidates),
            fmin=filter_result.fmin,
            caches=caches,
            shards=shards,
        )
