"""The C-PNN executor: filtering → initialisation → verify → refine.

Runs the paper's VR pipeline (Section IV) for C-PNN specs against a
small host protocol — ``_config``, ``_filter_batch``, ``_filter``,
``_table_cache`` and ``_flush_table_invalidations`` — so the same
executor serves the single :class:`~repro.core.engine.UncertainEngine`
*and* the execution lanes of a
:class:`~repro.core.engine.sharded.ShardedEngine` (which feed it the
parent's staged filter results).

A batch is one stacked pass, and ``execute`` is a batch of one.  The
batch's cold queries (no cached table) fold every candidate row in one
call, sort and pool their end-points set by set in one pass, and fill
their cdf cells with one kernel (:meth:`SubregionTable.stacked
<repro.core.subregions.SubregionTable.stacked>`); then one verifier
pass (:func:`~repro.core.verifiers.fused.verify_stacked`) bounds the
rows of every table the batch verifies, cold or cached.  Three things
stay per query: refinement, record assembly, and the analytic fast
path.  Per-row arithmetic never depends on the batch — a set's column
products and row sums run over its own arrays — which is what makes
batch ≡ sequential ≡ sharded an exact, bit-level property (DESIGN.md
§3, §12).  The paper's Basic and Refine baselines are references
beside the engine, in :mod:`repro.experiments.strategies`.
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
from repro.core.verifiers.fused import verify, verify_stacked
from repro.index.filtering import FilterResult, FoldColumns
from repro.uncertainty.columnar import _MAX_CELLS, DistributionPack, folded_edges_bound
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


def _groups(items: list):
    """``items`` (``(q, filter_result)``) in runs of whole candidate
    sets, with their fold columns, whose cells stay under
    ``_MAX_CELLS``: a set of ``C`` rows folding at most ``E`` edges has
    at most ``E + C + 2`` end-points (a set above the cap alone is one
    run).  Rows the kernels do not fold are not counted in ``E``;
    :meth:`SubregionTable.stacked` cuts its cdf pass at the cap anyway,
    so this bound only keeps the fold's own arrays in check."""
    group, cells = [], 0
    for q, filter_result in items:
        columns = filter_result.columns
        if columns is None:
            columns = FoldColumns.of(filter_result.candidates)
        n = len(filter_result.candidates)
        bound = n * (folded_edges_bound(filter_result.candidates, columns[1:]) + n + 2)
        if group and cells + bound > _MAX_CELLS:
            yield group
            group, cells = [], 0
        group.append((q, filter_result, columns))
        cells += bound
    if group:
        yield group


class PnnExecutorMixin:
    """C-PNN evaluation (single + batch) against the host protocol."""

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
        """Many C-PNN queries: the cache tiers around one stacked pass.

        Filtering is one batched descent of the packed filter.  The
        queries that no cached table serves build their tables in one
        stacked pass (:meth:`_build_tables`), then every query that is
        not replayed — cold, or on a cached table — is verified in one
        stacked pass, and the candidates it leaves UNKNOWN are refined
        query by query on that query's own states.

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
                if entry.table is None:
                    entry = None  # snapshots only: the table is built again
            live.append((b, key, entry))
        filter_results = (
            self._filter_batch([queries[b].q for b, _, _ in live]) if live else []
        )
        timings.filtering = time.perf_counter() - tick

        fast_path = self._config.parametric_fast_path
        spent: dict[int, PhaseTimings] = {}
        # The entry and table this batch builds for each cold point: a
        # duplicate point later in the batch verifies on the first one's
        # table, as a table hit.
        built: dict[Hashable, tuple | None] = {}
        cold: list[tuple[int, Hashable, FilterResult]] = []
        # (input position, point, entry, its table, filter result); the
        # table is read now, as a later put may release it from the entry.
        runs: list[tuple] = []
        for (b, key, entry), filter_result in zip(live, filter_results):
            check_cancel(self)
            spent[b] = PhaseTimings()
            if fast_path:
                # Candidates that all evaluate in closed form are
                # answered analytically, skipping table build, caching
                # and snapshot memoisation (re-running the fast path is
                # cheaper than pinning a materialised table).  A cached
                # table (built when the fast path fell back for another
                # constraint) does not skip it: a record never depends
                # on what the cache holds.
                result = self._run_parametric(filter_result, queries[b], spent[b])
                if result is not None:
                    slots[b] = result
                    continue
            if entry is None and key not in built:
                built[key] = None
                cold.append((b, key, filter_result))
                batch.table_misses += 1
            else:
                batch.table_hits += 1
            table = None if entry is None else entry.table
            runs.append((b, key, entry, table, filter_result))

        if cold:
            tables, seconds = self._build_tables(
                [(queries[b].q, filter_result) for b, _, filter_result in cold]
            )
            for (b, key, filter_result), table, elapsed in zip(cold, tables, seconds):
                spent[b].initialization += elapsed
                entry = CachedTable(table=table, fmin=filter_result.fmin)
                table_cache.put(key, entry)
                built[key] = entry, table
        if runs:
            jobs = [
                (b, *(built[key] if entry is None else (entry, table)), filter_result)
                for b, key, entry, table, filter_result in runs
            ]
            self._verify_and_refine(queries, jobs, spent, slots)

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
        [table], _ = self._build_tables([(q, self._filter(q))])
        probabilities = Refiner(table).exact_all()
        return {key: float(p) for key, p in zip(table.keys, probabilities)}

    # ------------------------------------------------------------------
    # C-PNN phases
    # ------------------------------------------------------------------

    @staticmethod
    def _build_tables(items: list) -> tuple[list[SubregionTable], list[float]]:
        """The subregion tables of ``(q, filter_result)`` items, and each
        one's share of the initialisation time.

        Items go in groups whose cells are bounded by ``_MAX_CELLS``
        (:func:`~repro.uncertainty.columnar.folded_edges_bound` bounds a
        set's end-points); a group folds every candidate row from the
        filter's columns in one pack (only the rows no kernel folds
        build a distance distribution) and tabulates in one stacked
        pass.  A group's time is shared out by candidate rows.
        """
        tables: list[SubregionTable] = []
        seconds: list[float] = []
        for group in _groups(items):
            tick = time.perf_counter()
            segments, counts, keys, readers = [], [], [], []
            for q, filter_result, columns in group:
                candidates = filter_result.candidates
                segments.append((candidates, q, columns[1:]))
                counts.append(len(candidates))
                keys.append(columns.keys)
                readers.append(partial(_distance_rows, candidates, q))
            pack = DistributionPack.from_segments(segments)
            tables += SubregionTable.stacked(pack, counts, keys, readers)
            elapsed = time.perf_counter() - tick
            rows = sum(counts)
            seconds += [elapsed * n / rows for n in counts]
        return tables, seconds

    def _verify_and_refine(
        self,
        queries: list[CPNNQuery],
        jobs: list,
        spent: dict[int, PhaseTimings],
        slots: list,
    ) -> None:
        """One stacked verifier pass over the jobs' tables (``(input
        position, entry, table, filter result)``), then, query by
        query, refinement of the candidates it left UNKNOWN (seeded
        with their bracket rows from the pass), the result, and its
        snapshot in the entry.  The pass's time is shared out by
        candidate rows."""
        tables = [table for _, _, table, _ in jobs]
        specs = [queries[b] for b, _, _, _ in jobs]
        tick = time.perf_counter()
        sizes = [table.size for table in tables]
        states = CandidateStates.stacked(sum(sizes))
        verified = verify_stacked(
            tables,
            states,
            [spec.threshold for spec in specs],
            [spec.tolerance for spec in specs],
        )
        elapsed = time.perf_counter() - tick
        rows = sum(sizes)
        start = 0
        for (b, entry, table, filter_result), query, size, checked in zip(
            jobs, specs, sizes, verified
        ):
            check_cancel(self)
            timings = spent[b]
            timings.verification += elapsed * size / rows
            mine = states.part(start, start + size, table.keys)
            start += size
            unknown = checked.rows
            tick = time.perf_counter()
            if unknown.size:
                refiner = Refiner(table)
                for i, q_lower, q_upper in zip(
                    unknown.tolist(), checked.q_lower, checked.q_upper
                ):
                    refiner.refine_object(
                        i, mine, query, q_lower=q_lower, q_upper=q_upper
                    )
            timings.refinement = time.perf_counter() - tick
            result = slots[b] = self._build_result(
                mine,
                filter_result.fmin,
                timings,
                unknown_after=checked.unknown_after,
                finished_after_verification=not unknown.size,
                refined=unknown.size,
            )
            # Memoise the outcome as a pristine snapshot so a repeated
            # probe of an undisturbed point replays it.
            entry.results[_result_sig(query)] = _replay_result(result)

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
