"""The paper's Basic and Refine baselines (Section V), beside the engine.

The engine runs one C-PNN pipeline: filter → verifier chain (VR) →
refinement of the candidates still UNKNOWN.  Figures 9, 10 and 14
compare it against two evaluation strategies that skip verification:

* :func:`basic` computes the exact qualification probability of every
  candidate ("requires the use of numerical integration");
* :func:`refine` runs incremental refinement on every candidate from the
  vacuous slice bounds ``[0, s_ij]``.

Both filter through the engine's own filter stage, build the same
subregion table the engine builds, and return a
:class:`~repro.core.types.QueryResult` with the engine's phase timings
(filtering, initialisation, refinement), so a figure compares like with
like: ``basic(engine, spec)`` vs :func:`vr` (``engine.execute(spec)``
from an empty table cache).
"""

from __future__ import annotations

import time

from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery, PhaseTimings, QueryResult, QuerySpec

__all__ = ["STRATEGIES", "basic", "refine", "vr"]

_SATISFY, _FAIL = 1, 2


def basic(engine, spec) -> QueryResult:
    """Answer a C-PNN spec by exact integration of every candidate."""
    return _evaluate(engine, spec, _basic)


def refine(engine, spec) -> QueryResult:
    """Answer a C-PNN spec by verifier-free incremental refinement."""
    return _evaluate(engine, spec, _refine)


def vr(engine, spec) -> QueryResult:
    """The engine's own pipeline, cold, under the name the figures plot.

    ``execute`` is a batch of one, which reads and fills the engine's
    table cache: a point probed again would skip its table build, or
    replay its memoised result.  The cache is emptied first, so every
    call filters, tabulates, verifies and refines, as :func:`basic` and
    :func:`refine` do.  (A sharded engine keeps its caches in its
    lanes, on the process backend in the workers: they are left as
    they are.)
    """
    if engine._table_cache is not None:
        engine._table_cache.clear()
    return engine.execute(spec)


#: The three series of Figures 10 and 14, in plotting order.
STRATEGIES = {"basic": basic, "refine": refine, "vr": vr}


def _basic(states, refiner, query):
    probabilities = refiner.exact_all()
    for i, p in enumerate(probabilities):
        states.set_exact(i, float(p))
        states.labels[i] = _SATISFY if p >= query.threshold else _FAIL
    return probabilities


def _refine(states, refiner, query):
    for i in range(states.size):
        refiner.refine_object(i, states, query, use_verifier_slices=False)


def _evaluate(engine, spec, phase) -> QueryResult:
    """Filter, build the table, run ``phase``, assemble the records.

    ``phase`` labels every candidate and returns the exact
    probabilities when it computed them (else ``None``, and a record's
    ``exact`` is its collapsed bound's midpoint, as the engine reports).
    """
    if not isinstance(spec, QuerySpec):
        spec = CPNNQuery(spec)
    if type(spec) is not CPNNQuery:
        raise TypeError(f"expected a CPNNQuery, got {type(spec).__name__}")
    if not len(engine):
        return QueryResult(answers=(), spec=spec)
    timings = PhaseTimings()
    tick = time.perf_counter()
    filter_result = engine._filter(spec.q)
    timings.filtering = time.perf_counter() - tick

    tick = time.perf_counter()
    table = SubregionTable(
        [obj.distance_distribution(spec.q) for obj in filter_result.candidates]
    )
    states = CandidateStates(table.keys)
    refiner = Refiner(table)
    timings.initialization = time.perf_counter() - tick

    tick = time.perf_counter()
    exact = phase(states, refiner, spec)
    timings.refinement = time.perf_counter() - tick

    records = states.to_records(exact)
    return QueryResult(
        answers=records.satisfied(),
        records=records,
        fmin=filter_result.fmin,
        timings=timings,
        refined_objects=table.size,
        spec=spec,
    )
