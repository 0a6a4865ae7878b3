"""The engine coordinator: spec routing and caches.

:class:`UncertainEngine` is deliberately thin — it assembles the
focused stage modules (object registry, filter stage, one executor per
spec family) and owns only what they share: the
:class:`~repro.core.engine.config.EngineConfig` and the table cache.
``execute``/``execute_batch``/``explain`` do nothing but dispatch on
the spec type and merge the executors' outputs; all evaluation lives in
:mod:`~repro.core.engine.pnn`, :mod:`~repro.core.engine.knn` and
:mod:`~repro.core.engine.ranges`, all storage and mutation semantics in
:mod:`~repro.core.engine.registry`, and all index upkeep in
:mod:`~repro.core.engine.filtering`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

import numpy as np

from repro.core.batch import BatchResult, TableCache
from repro.core.engine import pnn
from repro.core.engine.config import EngineConfig
from repro.core.engine.dispatch import SpecDispatchMixin
from repro.core.engine.executors.base import CancelScope
from repro.core.engine.filtering import FilterStageMixin
from repro.core.engine.knn import KnnExecutorMixin
from repro.core.engine.pnn import PnnExecutorMixin
from repro.core.engine.ranges import RangeExecutorMixin
from repro.core.engine.registry import ObjectRegistryMixin
from repro.core.types import (
    CKNNQuery,
    CRangeQuery,
    QueryPlan,
    QueryResult,
)
from repro.core.verifiers.fused import VERIFIERS

__all__ = ["QueryFacadeMixin", "UncertainEngine"]


class QueryFacadeMixin(SpecDispatchMixin):
    """The unified ``execute`` / ``execute_batch`` surface.

    Pure routing: dispatch on the spec type, delegate to the host's
    family executors (``_pnn_batch`` / ``_knn_group`` /
    ``_range_group``), merge timings and counters; ``execute`` is a
    batch of one.
    :class:`~repro.core.engine.sharded.ShardedEngine` inherits it
    through :class:`UncertainEngine` and overrides only where C-PNN
    work runs, which is how the two stay behaviourally
    interchangeable.
    """

    #: No active deadline by default; ``deadline()`` swaps a scope in.
    _cancel_scope: CancelScope | None = None

    #: The attached continuous-query tier, if any — a
    #: :class:`~repro.continuous.monitor.ContinuousMonitor` installs
    #: itself here so ``stats()["continuous"]`` and ``explain()``
    #: report registered/invalidated/replayed counts and the
    #: safe-region hit rate (DESIGN.md §17).
    _continuous = None

    #: Canonical failure-counter keys every ``stats()["executor"]`` /
    #: ``explain().executor`` dict carries (missing ones read 0, so
    #: monitoring code never branches on the backend).
    _EXECUTOR_COUNTERS = (
        "worker_failures",
        "respawns",
        "in_process_retries",
        "timeouts",
        "worker_errors",
        "shm_fallbacks",
        "quarantined",
        "quarantine_hits",
    )

    @contextmanager
    def deadline(self, seconds: float | None):
        """Bound every query executed inside the block by a deadline.

        ``with engine.deadline(0.05): engine.execute_batch(specs)``
        raises :class:`ExecutionTimeout
        <repro.core.engine.executors.base.ExecutionTimeout>` if the
        budget expires mid-execution — cooperating loops poll the scope
        at item and per-query boundaries, and the process backend
        terminates in-flight workers (respawned on the next dispatch).
        ``None`` means no deadline (an explicit infinite scope that can
        still be :meth:`~repro.core.engine.executors.base.CancelScope.cancel`-ed).
        Scopes nest; the inner block's deadline wins while it is open.
        """
        previous = self._cancel_scope
        scope = (
            CancelScope.after(seconds) if seconds is not None else CancelScope(None)
        )
        self._cancel_scope = scope
        try:
            yield scope
        finally:
            self._cancel_scope = previous

    def _executor_diagnostics(self) -> dict:
        """The executor failure story for ``stats()`` / ``explain()``.

        The single engine executes inline, so its counters are
        structurally zero — but the schema matches the sharded
        engine's, so dashboards read one shape.
        """
        backend = self._executor_backend()
        diagnostics: dict = {"backend": backend, "configured": backend}
        for counter in self._EXECUTOR_COUNTERS:
            diagnostics[counter] = 0
        diagnostics["inline_fallbacks"] = 0
        diagnostics["breaker"] = {"state": "disabled"}
        return diagnostics

    def explain(self, spec) -> "QueryPlan":
        """The evaluation plan for ``spec``, without computing answers.

        Runs only the filtering phase (cheap — no distribution is
        built, no probability computed) and reports which pipeline
        stages ``execute`` would run, what the filter keeps, the cache
        state, and the executor's failure counters
        (:attr:`~repro.core.types.QueryPlan.executor`).
        """
        plan = self._explain(spec)
        plan.executor = self._executor_diagnostics()
        plan.continuous = self._continuous_stats()
        return plan

    def _continuous_stats(self) -> dict:
        """The continuous tier's story for ``stats()`` / ``explain()``.

        ``{"attached": False}`` when no monitor is registered; else the
        monitor's counters under ``attached: True`` — one stable shape,
        shared by both engines.
        """
        if self._continuous is None:
            return {"attached": False}
        return {"attached": True, **self._continuous.stats()}

    @staticmethod
    def _family_of(spec) -> str:
        if isinstance(spec, CKNNQuery):
            return "cknn"
        if isinstance(spec, CRangeQuery):
            return "crange"
        return "cpnn"

    @staticmethod
    def _cache_summary(cache) -> dict:
        """Uniform counter snapshot for one LRU cache."""
        return {
            "maxsize": cache.maxsize,
            "entries": len(cache),
            "hits": cache.hits,
            "misses": cache.misses,
        }

    # ``explain`` arithmetic: the filter counts and stage suffixes the
    # plans are built from.

    def _knn_plan_counts(self, spec):
        """``(candidates, pruned, fmin^k)`` for a non-trivial k-NN spec,
        or ``None`` when ``k >= N`` resolves as the all-satisfy case."""
        n = len(self._objects)
        k = min(spec.k, n)
        if k >= n:
            return None
        survivors, fmin_k = self._ensure_batch_filter().kth_filter([spec.q], [k])[0]
        return int(survivors.size), n - int(survivors.size), fmin_k

    def _range_plan_counts(self, spec):
        """``(sure_in, sure_out, straddle)`` MBR classification counts."""
        [(inside, _, maxdist)] = self._ensure_batch_filter().range_filter(
            [spec.q], [spec.radius]
        )
        sure_in = int(np.count_nonzero(maxdist <= spec.radius))
        return sure_in, len(self._objects) - inside.size, inside.size - sure_in

    def execute(self, spec) -> QueryResult:
        """Answer one query spec: :meth:`execute_batch` of ``[spec]``.

        ``spec`` may be a :class:`CPNNQuery`, :class:`CKNNQuery`,
        :class:`CRangeQuery`, or a bare query point (normalised to a
        :class:`CPNNQuery` with the Section V defaults).  C-PNN specs
        run the VR pipeline (filter → verifier chain → refinement of
        what stays UNKNOWN).  The batch's filtering time is the
        result's.

        Always returns a :class:`~repro.core.types.QueryResult`; an
        empty engine yields an empty result for every spec type.
        """
        batch = self.execute_batch([spec])
        result = batch.results[0]
        result.timings.filtering = batch.timings.filtering
        return result

    def execute_batch(self, specs: Sequence) -> BatchResult:
        """Answer a batch of specs, amortising work batch-wide.

        Semantically equivalent to ``[execute(s) for s in specs]`` —
        answers and records agree exactly — but work is restructured
        around the batch: each family's filtering runs as one batched
        descent of the packed filter, every family folds its packs from
        the filter's positions and columns, and repeated C-PNN probes
        reuse cached tables and results.  The C-PNN queries no cached
        table serves build their tables in one stacked pass, every
        C-PNN table the batch verifies goes through one stacked
        verifier pass, and refinement, record assembly and the analytic
        fast path run query by query (see :mod:`repro.core.batch`).
        Specs of different types may be mixed freely; ``results``
        aligns with ``specs``.

        An empty ``specs`` sequence yields an empty
        :class:`~repro.core.batch.BatchResult`; an empty engine yields
        one empty :class:`~repro.core.types.QueryResult` per spec.
        """
        specs = [self._as_spec(s) for s in specs]
        batch = BatchResult()
        if not specs:
            return batch
        if not self._objects:
            batch.results = [QueryResult(answers=(), spec=s) for s in specs]
            return batch
        pnn_idx = [
            i
            for i, s in enumerate(specs)
            if not isinstance(s, (CKNNQuery, CRangeQuery))
        ]
        slots: list[QueryResult | None] = [None] * len(specs)
        knn_idx = [i for i, s in enumerate(specs) if isinstance(s, CKNNQuery)]
        range_idx = [i for i, s in enumerate(specs) if isinstance(s, CRangeQuery)]
        if pnn_idx:
            sub = self._pnn_batch([specs[i] for i in pnn_idx])
            for i, result in zip(pnn_idx, sub.results):
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
            batch.replayed.extend(sorted(pnn_idx[j] for j in sub.replayed))
        for indices, runner in ((knn_idx, self._knn_group), (range_idx, self._range_group)):
            if not indices:
                continue
            results, filter_seconds = runner([specs[i] for i in indices])
            batch.timings.filtering += filter_seconds
            for i, result in zip(indices, results):
                slots[i] = result
                timings = result.timings
                batch.timings.initialization += timings.initialization
                batch.timings.verification += timings.verification
                batch.timings.refinement += timings.refinement
        batch.results = slots
        return batch


class UncertainEngine(
    QueryFacadeMixin,
    ObjectRegistryMixin,
    FilterStageMixin,
    PnnExecutorMixin,
    KnnExecutorMixin,
    RangeExecutorMixin,
):
    """Evaluates probabilistic queries over uncertain objects.

    One engine serves all three query families — C-PNN (the paper's
    Definition 1), constrained probabilistic k-NN, and constrained
    probabilistic range — through :meth:`execute` /
    :meth:`execute_batch`, which dispatch on the spec type and share
    the filtering / caching / columnar substrate.

    For C-PNN specs the engine runs the paper's VR pipeline: the
    verifier chain settles most candidates algebraically, and survivors
    fall through to refinement seeded with the verifiers' bounds.  The
    Basic and Refine baselines of Section V are reference functions in
    :mod:`repro.experiments.strategies`.

    Parameters
    ----------
    objects:
        Any sequence of objects satisfying the
        :class:`~repro.uncertainty.objects.SpatialUncertain` protocol
        (1-D intervals, 2-D disks/segments/rectangles, or a mixture of
        same-dimension objects).  May be empty: an empty engine answers
        every ``execute``/``execute_batch`` spec with an empty result
        (DESIGN.md §8) until objects are inserted.
    config:
        Optional :class:`~repro.core.engine.config.EngineConfig`.
    """

    def __init__(self, objects: Sequence, config: EngineConfig | None = None):
        self._config = config or EngineConfig()
        self._init_registry(objects)
        self._init_filter_stage()
        #: LRU of fully built subregion tables keyed by query point,
        #: selectively invalidated on dynamic updates (DESIGN.md §11);
        #: ``None`` on a sharded engine's parent, whose lanes hold them.
        self._table_cache: TableCache | None = TableCache()

    @property
    def config(self) -> EngineConfig:
        return self._config

    def close(self) -> None:
        """Release engine-owned resources.

        A single engine holds nothing that outlives it; a
        :class:`~repro.core.engine.sharded.ShardedEngine` closes its
        executor here.  Exists on both engine classes so they are
        interchangeable in ``with`` blocks and service shutdown paths.
        """

    def __enter__(self) -> "UncertainEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _explain(self, spec) -> QueryPlan:
        """Single-engine plan arithmetic behind the façade's
        :meth:`~QueryFacadeMixin.explain` wrapper (which stamps the
        executor diagnostics on the returned plan)."""
        spec = self._as_spec(spec)
        self._flush_table_invalidations()  # report live entry counts
        caches = self._cache_stats()
        n = len(self._objects)
        family = self._family_of(spec)
        if not self._objects:
            return QueryPlan(
                spec=spec,
                family=family,
                index="none",
                stages=["empty engine: return an empty result"],
                caches=caches,
            )
        index = "rtree" if self._config.use_rtree else "linear"
        if family == "cknn":
            counts = self._knn_plan_counts(spec)
            if counts is None:
                return QueryPlan(
                    spec=spec,
                    family=family,
                        index=index,
                    stages=[
                        f"k={spec.k} covers all {n} objects: "
                        "every object qualifies with probability 1"
                    ],
                    candidates=n,
                    pruned=0,
                    fmin=float("inf"),
                    caches=caches,
                )
            candidates, pruned, fmin_k = counts
            return QueryPlan(
                spec=spec,
                family=family,
                index=index,
                stages=[
                    f"MBR filtering with f_min^{min(spec.k, n)} (packed descent)",
                    "distance pack folded from the survivors' filter columns",
                    "RS-style k-NN bounds via columnar cdf kernels",
                    "exact Poisson-binomial integration for undecided objects",
                ],
                candidates=candidates,
                pruned=pruned,
                fmin=fmin_k,
                caches=caches,
            )
        if family == "crange":
            sure_in, sure_out, straddle = self._range_plan_counts(spec)
            return QueryPlan(
                spec=spec,
                family=family,
                index=index,
                stages=[
                    "MBR range classification (packed descent): "
                    f"{sure_in} certainly inside, {sure_out} certainly outside",
                    f"exact region-distance re-check for {straddle} straddling objects",
                    "cdf(radius) via columnar kernel for true straddlers",
                ],
                candidates=straddle,
                pruned=sure_in + sure_out,
                fmin=float(spec.radius),
                caches=caches,
            )
        filter_result = self._filter(spec.q)
        verifiers = VERIFIERS
        stages = ["PNN filtering (f_min pruning rule)"]
        if self._config.parametric_fast_path:
            stages.append(
                "parametric fast path: analytic subregion table when "
                "every candidate has a closed-form distance "
                "(histogram pipeline on fallback)"
            )
        stages += [
            "subregion table folded from the filter's columns",
            "verifier chain: " + " → ".join(verifiers),
            "incremental refinement of surviving candidates",
        ]
        return QueryPlan(
            spec=spec,
            family=family,
            index=index,
            stages=stages,
            verifiers=verifiers,
            candidates=len(filter_result.candidates),
            pruned=n - len(filter_result.candidates),
            fmin=filter_result.fmin,
            caches=caches,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _cache_stats(self) -> dict:
        """Snapshot of the engine's cache configuration and counters."""
        return {"table_cache": self._cache_summary(self._table_cache)}

    def stats(self) -> dict:
        """Live observability counters, cheap enough to poll.

        Returns a plain dict (stable keys, JSON-friendly values):
        object count, which index serves single-query filtering and
        whether it awaits a repack, the invalidation queue depth, and
        per-cache occupancy/hit/miss counters.  :class:`ShardedEngine
        <repro.core.engine.sharded.ShardedEngine>` extends the same
        shape with its lanes' caches and parallel-execution
        accounting.
        """
        if not self._objects:
            index = "none"
        elif self._config.use_rtree:
            index = "rtree"
        else:
            index = "linear"
        return {
            "engine": type(self).__name__,
            "objects": len(self._objects),
            "index": index,
            "executor": self._executor_diagnostics(),
            "filter_stale": self._batch_filter is not None
            and not self._batch_filter.packed,
            "pending_invalidations": len(self._pending_invalidation),
            "caches": self._cache_stats(),
            "continuous": self._continuous_stats(),
            "parametric": {
                "fast_path": self._config.parametric_fast_path,
                "grid": pnn.ANALYTIC_GRID,
                "max_grid": pnn.ANALYTIC_MAX_GRID,
            },
        }
