"""The C-PNN executor: filtering → initialisation → verify → refine.

Runs the paper's VR pipeline (Section IV) for C-PNN specs, single and
batched, against a small host protocol — ``_config``,
``_filter_batch``, ``_filter``, ``_table_cache`` and
``_flush_table_invalidations`` — so the same
executor serves the single :class:`~repro.core.engine.UncertainEngine`
*and* the execution lanes of a :class:`~repro.core.engine.sharded.ShardedEngine` (which
feed it the parent's staged filter results).  Per-candidate
arithmetic is identical everywhere, which is what makes batch ≡
sequential ≡ sharded an exact, bit-level property (DESIGN.md §3, §12).
The paper's Basic and Refine baselines are references beside the
engine, in :mod:`repro.experiments.strategies`.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Hashable

from repro.core.batch import BatchResult, CachedTable, point_key
from repro.core.engine.executors.base import check_cancel
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery, PhaseTimings, QueryResult
from repro.core.verifiers.fused import verify
from repro.index.filtering import FilterResult, FoldColumns
from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.parametric.pack import MixedDistributionPack, closed_form
from repro.uncertainty.parametric.table import AnalyticTable

__all__ = ["PnnExecutorMixin"]

#: Inner-subregion count of the first analytic table.
ANALYTIC_GRID = 64
#: Escalation ceiling: the analytic grid refines ×4 per round up to this
#: count before the query falls back to histograms.  Both are read at
#: call time.
ANALYTIC_MAX_GRID = 4096


def _result_sig(query: CPNNQuery) -> tuple:
    """Memoisation key of a C-PNN outcome within one cached table.

    The pipeline's output is a deterministic function of the table
    (fixed per cache entry), the spec's type and constraints, and the
    engine config (fixed per engine) — so this tuple identifies the
    result exactly.
    """
    return (type(query), query.threshold, query.tolerance)


def _replay_result(result: QueryResult) -> QueryResult:
    """A fresh :class:`QueryResult` replaying a memoised outcome.

    Copies the mutable containers and takes a fresh view of the
    read-only record columns, whose records are built anew on first
    access — so neither the stored snapshot nor any replayed result
    shares a mutable object with what a caller received: a caller
    mutating a record cannot corrupt later replays.  Timings are zero:
    nothing ran, and a batch's phase totals are the sums of its
    results' phases.
    """
    return QueryResult(
        answers=result.answers,
        records=result.records.copy(),
        fmin=result.fmin,
        unknown_after_verifier=dict(result.unknown_after_verifier),
        finished_after_verification=result.finished_after_verification,
        refined_objects=result.refined_objects,
    )


def _distance_rows(candidates: tuple, q) -> list:
    """The candidates' distance distributions, for a table's reader."""
    return [obj.distance_distribution(q) for obj in candidates]


class PnnExecutorMixin:
    """C-PNN evaluation (single + batch) against the host protocol."""

    def _execute_pnn(self, query: CPNNQuery) -> QueryResult:
        timings = PhaseTimings()
        tick = time.perf_counter()
        filter_result = self._filter(query.q)
        timings.filtering = time.perf_counter() - tick
        if self._config.parametric_fast_path:
            result = self._run_parametric(filter_result, query, timings)
            if result is not None:
                return result
        table = self._build_table(query, filter_result, timings)
        return self._run_vr(query, filter_result.fmin, table, timings)

    def _run_parametric(
        self, filter_result: FilterResult, query: CPNNQuery, timings: PhaseTimings
    ) -> QueryResult | None:
        """Verify on an analytic table — no histogram materialisation.

        Returns ``None`` when the fast path does not apply (some
        candidate has no closed form) or cannot settle every candidate
        within ``ANALYTIC_MAX_GRID``; the caller then reruns the
        standard histogram pipeline from *fresh* states, so fallback
        answers are bit-identical to the histogram engine's.  Time
        spent here is booked into ``timings`` either way, so a fallback
        query's phases still sum to its wall time.
        """
        candidates = filter_result.candidates
        if not candidates or not closed_form(candidates):
            return None
        tick = time.perf_counter()
        # The candidates go in as objects: Gaussian rows become one
        # column block, with no per-candidate distance law built.
        pack = MixedDistributionPack.from_objects(candidates, query.q)
        try:
            table = AnalyticTable(pack, grid=ANALYTIC_GRID)
        except ValueError:
            timings.initialization += time.perf_counter() - tick
            return None
        states = CandidateStates(table.keys)
        timings.initialization += time.perf_counter() - tick

        unknown_after: dict[str, float] = {}
        tick = time.perf_counter()
        while True:
            verified = verify(table, states, query.threshold, query.tolerance)
            unknown_after.update(verified.unknown_after)
            if not verified.rows.size:
                break
            next_grid = table.grid * 4
            if next_grid > ANALYTIC_MAX_GRID:
                timings.verification += time.perf_counter() - tick
                return None
            # Same states across escalations: every certified bound
            # already recorded is valid for the exact model, so the
            # finer table's brackets only tighten the intersection.
            table = table.refined(next_grid)
        timings.verification += time.perf_counter() - tick
        return self._build_result(
            states,
            filter_result.fmin,
            timings,
            unknown_after=unknown_after,
            finished_after_verification=True,
            refined=0,
        )

    def _pnn_batch(self, queries: list[CPNNQuery]) -> BatchResult:
        """Many C-PNN queries: the cache tiers around the one pipeline.

        Filtering is one batched descent of the packed filter, and each
        table folds from the filter's positions and columns as in
        :meth:`_execute_pnn` (see :mod:`repro.core.batch`); every query
        that is not replayed then runs the very phases
        :meth:`_execute_pnn` runs, on its own states and refiner, so
        batch ≡ sequential by construction.

        Repeated probes short-circuit in two tiers (DESIGN.md §11):
        a memoised *result* snapshot replays the whole pipeline's
        outcome for an undisturbed (point, constraints) pair, and a
        cached *table* skips filtering/initialisation
        when only the constraints changed.  Both tiers are exact —
        entries survive dynamic updates only while their candidate set
        provably cannot have changed.
        """
        batch = BatchResult()
        if not queries:
            return batch
        timings = batch.timings

        tick = time.perf_counter()
        self._flush_table_invalidations()
        table_cache = self._table_cache
        slots: list[QueryResult | None] = [None] * len(queries)
        live: list[tuple[int, Hashable, CachedTable | None]] = []
        for b, query in enumerate(queries):
            key = point_key(query.q)
            entry = table_cache.get(key)
            if entry is not None:
                snapshot = entry.results.get(_result_sig(query))
                if snapshot is not None:
                    slots[b] = _replay_result(snapshot)
                    batch.table_hits += 1
                    batch.result_hits += 1
                    batch.replayed.append(b)
                    continue
            live.append((b, key, entry))
        filter_results = (
            self._filter_batch([queries[b].q for b, _, _ in live]) if live else []
        )
        timings.filtering = time.perf_counter() - tick

        fast_path = self._config.parametric_fast_path
        built_this_batch: dict[Hashable, CachedTable] = {}
        for (b, key, entry), filter_result in zip(live, filter_results):
            check_cancel(self)
            query = queries[b]
            spent = PhaseTimings()
            if entry is None and fast_path:
                # Candidates that all evaluate in closed form are
                # answered analytically, skipping table build, caching
                # and snapshot memoisation (re-running the fast path is
                # cheaper than pinning a materialised table).  A point
                # whose table was warm before this batch keeps the
                # standard flow.
                result = self._run_parametric(filter_result, query, spent)
                if result is not None:
                    slots[b] = result
                    continue
            if entry is None:
                # A duplicate point earlier in this batch may have just
                # built this table; a plain dict probe avoids counting
                # a second miss against the cache for the same point.
                entry = built_this_batch.get(key)
            if entry is not None:
                batch.table_hits += 1
            else:
                table = self._build_table(query, filter_result, spent)
                batch.table_misses += 1
                entry = CachedTable(table=table, fmin=filter_result.fmin)
                table_cache.put(key, entry)
                built_this_batch[key] = entry
            result = slots[b] = self._run_vr(
                query, filter_result.fmin, entry.table, spent
            )
            # Memoise the outcome as a pristine snapshot so a repeated
            # probe of an undisturbed point replays it.
            entry.results[_result_sig(query)] = _replay_result(result)

        batch.results = slots
        for result, query in zip(slots, queries):
            result.spec = query
            timings.initialization += result.timings.initialization
            timings.verification += result.timings.verification
            timings.refinement += result.timings.refinement
        return batch

    def pnn(self, q) -> dict[Hashable, float]:
        """Exact PNN: qualification probability of every candidate.

        Objects pruned by filtering have probability 0 and are omitted,
        matching the paper's PNN semantics of returning only non-zero
        probabilities.
        """
        if not self._objects:
            raise ValueError("cannot query an empty engine (insert objects first)")
        query = CPNNQuery(q, threshold=1.0, tolerance=0.0)
        table = self._build_table(query, self._filter(q), PhaseTimings())
        probabilities = Refiner(table).exact_all()
        return {key: float(p) for key, p in zip(table.keys, probabilities)}

    # ------------------------------------------------------------------
    # C-PNN phases
    # ------------------------------------------------------------------

    @staticmethod
    def _build_table(
        query: CPNNQuery, filter_result: FilterResult, timings: PhaseTimings
    ) -> SubregionTable:
        """The query's subregion table, folded from the filter's columns
        (DistributionPack.from_objects) with no per-candidate
        distribution; only the rows no kernel folds build theirs."""
        tick = time.perf_counter()
        candidates = filter_result.candidates
        columns = filter_result.columns
        if columns is None:
            columns = FoldColumns.of(candidates)
        pack = DistributionPack.from_objects(candidates, query.q, columns[1:])
        table = SubregionTable.from_pack(
            pack, columns.keys, partial(_distance_rows, candidates, query.q)
        )
        timings.initialization += time.perf_counter() - tick
        return table

    def _run_vr(
        self,
        query: CPNNQuery,
        fmin: float,
        table: SubregionTable,
        timings: PhaseTimings,
    ) -> QueryResult:
        """Fresh states over ``table``: the verifier pass, then
        refinement of the candidates it left UNKNOWN, seeded with their
        per-subregion bracket rows from the pass."""
        tick = time.perf_counter()
        states = CandidateStates(table.keys)
        refiner = Refiner(table)
        timings.initialization += time.perf_counter() - tick

        tick = time.perf_counter()
        verified = verify(table, states, query.threshold, query.tolerance)
        timings.verification += time.perf_counter() - tick

        unknown = verified.rows
        tick = time.perf_counter()
        if unknown.size:
            for i, q_lower, q_upper in zip(
                unknown.tolist(), verified.q_lower, verified.q_upper
            ):
                refiner.refine_object(
                    i, states, query, q_lower=q_lower, q_upper=q_upper
                )
        timings.refinement = time.perf_counter() - tick
        return self._build_result(
            states,
            fmin,
            timings,
            unknown_after=verified.unknown_after,
            finished_after_verification=not unknown.size,
            refined=unknown.size,
        )

    # ------------------------------------------------------------------

    def _build_result(
        self,
        states: CandidateStates,
        fmin: float,
        timings: PhaseTimings,
        unknown_after: dict[str, float],
        finished_after_verification: bool,
        refined: int,
    ) -> QueryResult:
        """Assemble a :class:`QueryResult` from final candidate states —
        shared by the histogram pipeline and the table-less parametric
        fast path."""
        records = states.to_records()
        return QueryResult(
            answers=records.satisfied(),
            records=records,
            fmin=fmin,
            timings=timings,
            unknown_after_verifier=dict(unknown_after),
            finished_after_verification=finished_after_verification,
            refined_objects=refined,
        )
