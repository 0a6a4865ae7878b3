"""The C-PNN executor: filtering → initialisation → verify → refine.

Implements the paper's three evaluation strategies (Section V) for
C-PNN specs, single and batched, against a small host protocol —
``_config``, ``_chain``, ``_as_strategy``, ``_filter_batch``,
``_single_filter``, ``_distribution_cache``, ``_table_cache`` and
``_flush_table_invalidations`` — so the same executor serves the
single :class:`~repro.core.engine.UncertainEngine` *and* the execution
lanes of a :class:`~repro.core.engine.sharded.ShardedEngine` (which
feed it the parent's staged filter results).  Per-candidate
arithmetic is identical everywhere, which is what makes batch ≡
sequential ≡ sharded an exact, bit-level property (DESIGN.md §3, §12).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.batch import (
    BatchResult,
    CachedTable,
    distributions_for,
    point_key,
)
from repro.core.engine.config import Strategy
from repro.core.engine.executors.base import check_cancel
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import (
    AnswerRecord,
    CPNNQuery,
    Label,
    PhaseTimings,
    QueryResult,
)
from repro.index.filtering import FilterResult
from repro.uncertainty.parametric.pack import MixedDistributionPack, closed_form
from repro.uncertainty.parametric.table import AnalyticTable

__all__ = ["PnnExecutorMixin"]

_UNKNOWN, _SATISFY, _FAIL = 0, 1, 2

_CODE_TO_LABEL = {_UNKNOWN: Label.UNKNOWN, _SATISFY: Label.SATISFY, _FAIL: Label.FAIL}


def _result_sig(query: CPNNQuery, strategy: str) -> tuple:
    """Memoisation key of a C-PNN outcome within one cached table.

    The pipeline's output is a deterministic function of the table
    (fixed per cache entry), the spec's type and constraints, the
    strategy, and the engine config (fixed per engine) — so this tuple
    identifies the result exactly.
    """
    return (strategy, type(query), query.threshold, query.tolerance)


def _replay_result(result: QueryResult) -> QueryResult:
    """A fresh :class:`QueryResult` replaying a memoised outcome.

    Copies the mutable containers *and* the (mutable)
    :class:`AnswerRecord` instances, so neither the stored snapshot nor
    any replayed result shares state with what a caller received — a
    caller mutating a record cannot corrupt later replays.  Timings are
    zero: nothing ran, and a batch's phase totals are the sums of its
    results' phases.
    """
    return QueryResult(
        answers=result.answers,
        records=[
            AnswerRecord(
                key=r.key,
                label=r.label,
                lower=r.lower,
                upper=r.upper,
                exact=r.exact,
            )
            for r in result.records
        ],
        fmin=result.fmin,
        unknown_after_verifier=dict(result.unknown_after_verifier),
        finished_after_verification=result.finished_after_verification,
        refined_objects=result.refined_objects,
    )


@dataclass
class _Prepared:
    """Everything shared by the post-filter phases of one query."""

    filter_result: FilterResult
    table: SubregionTable
    states: CandidateStates
    refiner: Refiner
    timings: PhaseTimings


class PnnExecutorMixin:
    """C-PNN evaluation (single + batch) against the host protocol."""

    def _execute_pnn(self, query: CPNNQuery, strategy: str) -> QueryResult:
        timings = PhaseTimings()
        tick = time.perf_counter()
        filter_result = self._single_filter()(query.q)
        timings.filtering = time.perf_counter() - tick
        if strategy == Strategy.VR and self._config.parametric_fast_path:
            result = self._run_parametric(filter_result, query, timings)
            if result is not None:
                return result
        prepared = self._prepare(query, filter_result, timings)
        return self._run(prepared, query, strategy)

    def _run_parametric(
        self, filter_result: FilterResult, query: CPNNQuery, timings: PhaseTimings
    ) -> QueryResult | None:
        """Verify on an analytic table — no histogram materialisation.

        Returns ``None`` when the fast path does not apply (some
        candidate has no closed form) or cannot settle every candidate
        within ``analytic_max_grid``; the caller then reruns the
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
            table = AnalyticTable(pack, grid=self._config.analytic_grid)
        except ValueError:
            timings.initialization += time.perf_counter() - tick
            return None
        states = CandidateStates(table.keys, pad=self._config.bound_pad)
        timings.initialization += time.perf_counter() - tick

        chain = self._chain
        unknown_after: dict[str, float] = {}
        tick = time.perf_counter()
        while True:
            outcome = chain.run(table, states, query)
            unknown_after.update(outcome.unknown_after)
            if states.n_unknown == 0:
                break
            next_grid = table.grid * 4
            if next_grid > self._config.analytic_max_grid:
                timings.verification += time.perf_counter() - tick
                return None
            # Same states across escalations: every certified bound
            # already recorded is valid for the exact model, so the
            # finer table's brackets only tighten the intersection.
            table = table.refined(next_grid)
        timings.verification += time.perf_counter() - tick
        return self._build_result(
            table.keys,
            states,
            filter_result.fmin,
            timings,
            unknown_after=unknown_after,
            finished_after_verification=True,
            refined=0,
        )

    def _pnn_batch(
        self, queries: list[CPNNQuery], strategy: str | None
    ) -> BatchResult:
        """Many C-PNN queries: the cache tiers around the one pipeline.

        Filtering is a single vectorised MBR sweep and distance
        distributions go through the engine's LRU cache (see
        :mod:`repro.core.batch`); every query that is not replayed then
        runs the very phases :meth:`_execute_pnn` runs, on its own
        states and refiner, so batch ≡ sequential by construction.

        Repeated probes short-circuit in two tiers (DESIGN.md §11):
        a memoised *result* snapshot replays the whole pipeline's
        outcome for an undisturbed (point, strategy, constraints)
        triple, and a cached *table* skips filtering/initialisation
        when only the constraints changed.  Both tiers are exact —
        entries survive dynamic updates only while their candidate set
        provably cannot have changed.
        """
        strategy = self._as_strategy(strategy)
        batch = BatchResult()
        if not queries:
            return batch
        cache = self._distribution_cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        timings = batch.timings

        tick = time.perf_counter()
        self._flush_table_invalidations()
        table_cache = self._table_cache
        slots: list[QueryResult | None] = [None] * len(queries)
        live: list[tuple[int, Hashable, CachedTable | None]] = []
        for b, query in enumerate(queries):
            key = point_key(query.q)
            entry = table_cache.get(key) if table_cache is not None else None
            if entry is not None:
                snapshot = entry.results.get(_result_sig(query, strategy))
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

        fast_path = strategy == Strategy.VR and self._config.parametric_fast_path
        distributions_built = 0
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
                prepared = self._prepare(
                    query, filter_result, spent, table=entry.table
                )
            else:
                prepared = self._prepare(query, filter_result, spent, cache=cache)
                distributions_built += prepared.table.size
                batch.table_misses += 1
                if table_cache is not None:
                    entry = CachedTable(
                        table=prepared.table, fmin=filter_result.fmin
                    )
                    table_cache.put(key, entry)
                    built_this_batch[key] = entry
            result = slots[b] = self._run(prepared, query, strategy)
            if entry is not None:
                # Memoise the outcome as a pristine snapshot so a
                # repeated probe of an undisturbed point replays it.
                entry.results[_result_sig(query, strategy)] = _replay_result(result)

        batch.results = slots
        for result, query in zip(slots, queries):
            result.spec = query
            timings.initialization += result.timings.initialization
            timings.verification += result.timings.verification
            timings.refinement += result.timings.refinement
        if cache is not None:
            batch.cache_hits = cache.hits - hits_before
            batch.cache_misses = cache.misses - misses_before
        else:
            batch.cache_misses = distributions_built
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
        prepared = self._prepare(query, self._single_filter()(q), PhaseTimings())
        probabilities = prepared.refiner.exact_all()
        return {
            key: float(p)
            for key, p in zip(prepared.table.keys, probabilities)
        }

    # ------------------------------------------------------------------
    # C-PNN phases
    # ------------------------------------------------------------------

    def _prepare(
        self,
        query: CPNNQuery,
        filter_result: FilterResult,
        timings: PhaseTimings,
        cache=None,
        table: SubregionTable | None = None,
    ) -> _Prepared:
        """Fresh states and a refiner around the query's subregion table.

        The table is built here — distributions through ``cache`` when
        the batch path hands one in — unless the table cache already
        holds it (``table``).
        """
        tick = time.perf_counter()
        if table is None:
            table = SubregionTable(
                distributions_for(filter_result.candidates, query.q, cache),
                grid_refinement=self._config.grid_refinement,
            )
        states = CandidateStates(table.keys, pad=self._config.bound_pad)
        refiner = Refiner(
            table,
            quadrature_margin=self._config.quadrature_margin,
            order=self._config.refinement_order,
        )
        timings.initialization += time.perf_counter() - tick
        return _Prepared(filter_result, table, states, refiner, timings)

    def _run(self, prepared: _Prepared, query: CPNNQuery, strategy: str) -> QueryResult:
        if strategy == Strategy.BASIC:
            return self._run_basic(prepared, query)
        if strategy == Strategy.REFINE:
            return self._run_refine(prepared, query)
        return self._run_vr(prepared, query)

    def _run_basic(self, prepared: _Prepared, query: CPNNQuery) -> QueryResult:
        timings = prepared.timings
        tick = time.perf_counter()
        probabilities = prepared.refiner.exact_all()
        states = prepared.states
        for i, p in enumerate(probabilities):
            states.set_exact(i, float(p))
            states.labels[i] = _SATISFY if p >= query.threshold else _FAIL
        timings.refinement = time.perf_counter() - tick
        return self._assemble(
            prepared,
            query,
            unknown_after={},
            finished_after_verification=False,
            refined=prepared.table.size,
            exact=probabilities,
        )

    def _run_refine(self, prepared: _Prepared, query: CPNNQuery) -> QueryResult:
        timings = prepared.timings
        states = prepared.states
        tick = time.perf_counter()
        refined = 0
        for i in range(prepared.table.size):
            if states.labels[i] == _UNKNOWN:
                prepared.refiner.refine_object(
                    i, states, query, use_verifier_slices=False
                )
                refined += 1
        timings.refinement = time.perf_counter() - tick
        return self._assemble(
            prepared,
            query,
            unknown_after={},
            finished_after_verification=False,
            refined=refined,
        )

    def _run_vr(self, prepared: _Prepared, query: CPNNQuery) -> QueryResult:
        timings = prepared.timings
        states = prepared.states
        chain = self._chain

        tick = time.perf_counter()
        outcome = chain.run(prepared.table, states, query)
        timings.verification += time.perf_counter() - tick

        finished = states.n_unknown == 0
        tick = time.perf_counter()
        refined = 0
        for i in states.unknown_indices():
            prepared.refiner.refine_object(
                int(i), states, query, use_verifier_slices=True
            )
            refined += 1
        timings.refinement = time.perf_counter() - tick
        return self._assemble(
            prepared,
            query,
            unknown_after=outcome.unknown_after,
            finished_after_verification=finished,
            refined=refined,
        )

    # ------------------------------------------------------------------

    def _assemble(
        self,
        prepared: _Prepared,
        query: CPNNQuery,
        unknown_after: dict[str, float],
        finished_after_verification: bool,
        refined: int,
        exact: np.ndarray | None = None,
    ) -> QueryResult:
        return self._build_result(
            prepared.table.keys,
            prepared.states,
            prepared.filter_result.fmin,
            prepared.timings,
            unknown_after=unknown_after,
            finished_after_verification=finished_after_verification,
            refined=refined,
            exact=exact,
        )

    def _build_result(
        self,
        keys,
        states: CandidateStates,
        fmin: float,
        timings: PhaseTimings,
        unknown_after: dict[str, float],
        finished_after_verification: bool,
        refined: int,
        exact: np.ndarray | None = None,
    ) -> QueryResult:
        """Assemble a :class:`QueryResult` from final candidate states —
        shared by the histogram pipeline (via :meth:`_assemble`) and the
        table-less parametric fast path."""
        records = []
        answers = []
        for i, key in enumerate(keys):
            label = _CODE_TO_LABEL[int(states.labels[i])]
            exact_p = float(exact[i]) if exact is not None else None
            if exact_p is None and states.upper[i] - states.lower[i] <= 3 * states.pad:
                exact_p = 0.5 * (states.upper[i] + states.lower[i])
            records.append(
                AnswerRecord(
                    key=key,
                    label=label,
                    lower=float(states.lower[i]),
                    upper=float(states.upper[i]),
                    exact=exact_p,
                )
            )
            if label is Label.SATISFY:
                answers.append(key)
        return QueryResult(
            answers=tuple(answers),
            records=records,
            fmin=fmin,
            timings=timings,
            unknown_after_verifier=dict(unknown_after),
            finished_after_verification=finished_after_verification,
            refined_objects=refined,
        )
