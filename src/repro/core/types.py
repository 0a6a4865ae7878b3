"""Typed query specs, answer labels, and the unified result shape.

All three query families are variants of one probabilistic-neighborhood
problem (Definition 1 generalised): a query point plus two quality
constraints, optionally specialised by ``k`` (k-NN) or a ``radius``
(range).  The spec hierarchy mirrors that:

* :class:`QuerySpec` — the shared base: point ``q``, threshold ``P``,
  tolerance ``Δ``;
* :class:`CPNNQuery` — the paper's C-PNN (Definition 1);
* :class:`CKNNQuery` — constrained probabilistic k-NN (``k`` nearest);
* :class:`CRangeQuery` — constrained probabilistic range (``radius``).

``UncertainEngine.execute`` dispatches on the spec type and always
returns the same :class:`QueryResult` shape (DESIGN.md §4).

The constraints (Definition 1):

* **threshold** ``P ∈ (0, 1]`` — only objects whose qualification
  probability is (or may be) at least ``P`` are returned;
* **tolerance** ``Δ ∈ [0, 1]`` — the amount of *estimation error*
  allowed: an object may be returned while its probability is only
  known to lie in a band of width ≤ Δ crossing the threshold.

The resulting engine contract (proved in DESIGN.md §5 and enforced by
the property tests) is::

    {i : p_i >= P}  ⊆  answer  ⊆  {i : p_i >= P - Δ}
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress
from typing import Hashable

import numpy as np

__all__ = [
    "AnswerRecord",
    "AnswerRecords",
    "CKNNQuery",
    "CPNNQuery",
    "CRangeQuery",
    "Label",
    "PhaseTimings",
    "QueryPlan",
    "QueryResult",
    "QuerySpec",
]


class Label(enum.Enum):
    """Classification of a candidate against the query's conditions.

    Mirrors the three outcomes of the paper's classifier (Section
    III-B): *satisfy* objects are answers, *fail* objects can never be
    answers, *unknown* objects need more work (another verifier, or
    refinement).
    """

    UNKNOWN = "unknown"
    SATISFY = "satisfy"
    FAIL = "fail"


#: The labels in the order of their int8 codes (0 = unknown, 1 =
#: satisfy, 2 = fail), as the vectorised classifier writes them.
_LABELS = (Label.UNKNOWN, Label.SATISFY, Label.FAIL)
_CODE_OF = {label: code for code, label in enumerate(_LABELS)}


@dataclass(frozen=True)
class QuerySpec:
    """Base of the typed query-spec hierarchy.

    Attributes
    ----------
    q:
        The query point — a float for 1-D data or a coordinate sequence
        for 2-D data.  Every coordinate must be finite.
    threshold:
        ``P ∈ (0, 1]``.  The paper's default in Section V is 0.3.
    tolerance:
        ``Δ ∈ [0, 1]``.  The paper's default in Section V is 0.01.
    """

    q: object
    threshold: float = 0.3
    tolerance: float = 0.01

    def __post_init__(self) -> None:
        try:
            coords = iter(self.q)
        except TypeError:  # a scalar: 1-D data
            coords = (self.q,)
        if not all(map(math.isfinite, coords)):
            raise ValueError(f"query point q must be finite, got {self.q!r}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold P must lie in (0, 1]")
        if not 0.0 <= self.tolerance <= 1.0:
            raise ValueError("tolerance Δ must lie in [0, 1]")


@dataclass(frozen=True)
class CPNNQuery(QuerySpec):
    """A C-PNN query: point ``q`` with threshold ``P`` and tolerance ``Δ``.

    The paper's Definition 1, unchanged — the spec carries no extra
    fields beyond the :class:`QuerySpec` base.
    """


@dataclass(frozen=True)
class CKNNQuery(QuerySpec):
    """A constrained probabilistic k-NN query (Section VI future work).

    Returns the objects whose probability of being among the ``k``
    nearest neighbours of ``q`` is at least ``threshold``.  The k-NN
    bounds are either exact or the verifier's algebraic pair, so
    ``tolerance`` is currently inert (kept for the shared contract);
    its default is 0 accordingly.

    ``k`` is validated here, at construction, so a bad value can never
    surface mid-batch from deep inside the filtering kernels.  A valid
    ``k`` may still exceed the engine's object count: the engine
    resolves that *before any filtering or distribution work* as the
    trivial case — every object is certainly among the ``k`` nearest,
    so all satisfy with probability exactly 1 (DESIGN.md §8), matching
    the scalar reference path.
    """

    tolerance: float = 0.0
    k: int = field(kw_only=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        if isinstance(self.k, bool) or int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        # Normalise float-typed whole numbers (k=3.0) so downstream
        # integer arithmetic never sees a float.
        object.__setattr__(self, "k", int(self.k))


@dataclass(frozen=True)
class CRangeQuery(QuerySpec):
    """A constrained probabilistic range query.

    Returns the objects within ``radius`` of ``q`` with probability at
    least ``threshold``.  Range probabilities are evaluated exactly
    (either by a bounding-box decision or one cdf lookup), so
    ``tolerance`` never changes the answer; its default is 0.
    """

    tolerance: float = 0.0
    radius: float = field(kw_only=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.radius >= 0.0:  # NaN fails too
            raise ValueError("radius must be non-negative")


@dataclass
class PhaseTimings:
    """Wall-clock seconds spent in each phase of Figure 3's framework."""

    filtering: float = 0.0
    initialization: float = 0.0
    verification: float = 0.0
    refinement: float = 0.0

    @property
    def total(self) -> float:
        return self.filtering + self.initialization + self.verification + self.refinement


@dataclass
class AnswerRecord:
    """Everything known about one candidate at the end of a query."""

    key: Hashable
    label: Label
    lower: float
    upper: float
    exact: float | None = None

    @property
    def bound_width(self) -> float:
        return self.upper - self.lower


def _frozen(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array (no copy when it already is one
    of ``dtype``: the caller hands the array over)."""
    array = np.asarray(values, dtype=dtype)
    array.flags.writeable = False
    return array


class AnswerRecords(Sequence):
    """A result's per-candidate outcome: read-only columns, seen as a
    sequence of :class:`AnswerRecord`.

    The columns are the candidates' ``keys`` (a tuple), their int8
    label ``codes`` (0 unknown, 1 satisfy, 2 fail) and float arrays
    ``lower``, ``upper`` and ``exact`` (NaN where no exact value was
    computed).  The records are built on first access, once per view,
    so a caller may mutate the records of one view without touching
    another view of the same columns.  Built from records instead
    (:meth:`of`), the view holds those records and derives the columns
    on first use.  A view compares equal to the list of its records;
    it pickles as its columns, ``exact`` as its non-NaN entries.
    """

    __slots__ = ("_columns", "_records")

    def __init__(self, keys=(), codes=(), lower=(), upper=(), exact=()) -> None:
        self._columns = (
            tuple(keys),
            _frozen(codes, np.int8),
            _frozen(lower),
            _frozen(upper),
            _frozen(exact),
        )
        self._records: tuple[AnswerRecord, ...] | None = None

    @classmethod
    def of(cls, records) -> "AnswerRecords":
        """A view holding ``records`` themselves."""
        view = cls.__new__(cls)
        view._columns = None
        view._records = tuple(records)
        return view

    def _cols(self) -> tuple:
        if self._columns is None:
            records = self._records
            self._columns = (
                tuple(r.key for r in records),
                _frozen([_CODE_OF[r.label] for r in records], np.int8),
                _frozen([r.lower for r in records]),
                _frozen([r.upper for r in records]),
                _frozen([math.nan if r.exact is None else r.exact for r in records]),
            )
        return self._columns

    def _built(self) -> tuple[AnswerRecord, ...]:
        if self._records is None:
            keys, codes, lower, upper, exact = self._columns
            self._records = tuple(
                map(
                    AnswerRecord,
                    keys,
                    map(_LABELS.__getitem__, codes.tolist()),
                    lower.tolist(),
                    upper.tolist(),
                    [None if e != e else e for e in exact.tolist()],
                )
            )
        return self._records

    @property
    def keys(self) -> tuple:
        return self._cols()[0]

    @property
    def codes(self) -> np.ndarray:
        return self._cols()[1]

    @property
    def lower(self) -> np.ndarray:
        return self._cols()[2]

    @property
    def upper(self) -> np.ndarray:
        return self._cols()[3]

    @property
    def exact(self) -> np.ndarray:
        return self._cols()[4]

    def satisfied(self) -> tuple:
        """Keys labelled *satisfy*, in candidate order (the answers)."""
        keys, codes = self._cols()[:2]
        return tuple(compress(keys, (codes == _CODE_OF[Label.SATISFY]).tolist()))

    def copy(self) -> "AnswerRecords":
        """A fresh view of the same (read-only) columns."""
        view = AnswerRecords.__new__(AnswerRecords)
        view._columns = self._cols()
        view._records = None
        return view

    def __len__(self) -> int:
        if self._columns is not None:
            return len(self._columns[0])
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._built()[index])
        return self._built()[index]

    def __iter__(self):
        return iter(self._built())

    def __eq__(self, other) -> bool:
        if isinstance(other, (AnswerRecords, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __reduce__(self):
        # ``exact`` is NaN nearly everywhere: it travels as its set
        # positions and values.
        keys, codes, lower, upper, exact = self._cols()
        at = np.flatnonzero(exact == exact)
        return _unpickle_records, (keys, codes, lower, upper, at.tolist(), exact[at].tolist())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


def _unpickle_records(keys, codes, lower, upper, at, values) -> AnswerRecords:
    exact = np.full(len(keys), np.nan)
    exact[at] = values
    return AnswerRecords(keys, codes, lower, upper, exact)


@dataclass
class QueryResult:
    """Uniform outcome of one :meth:`UncertainEngine.execute` call.

    Every spec type — C-PNN, k-NN, range — produces this same shape
    (DESIGN.md §4); fields that a family does not populate keep their
    defaults.

    Attributes
    ----------
    answers:
        Keys of the objects labelled *satisfy*, i.e. the query answer.
    records:
        Per-candidate diagnostics (final bound, label, exact
        probability when it was computed): one record per *filtered
        candidate*, in object order, for every family — the ``f_min``
        survivors (C-PNN), the ``f_min^k`` survivors (k-NN; all objects
        when ``k >= n``), the objects whose region reaches the ball
        (range).  Objects the filter proved outside have no record:
        they are implied ``FAIL`` with bounds 0/0.  An
        :class:`AnswerRecords` view: read-only columns
        (``records.keys``, ``.codes``, ``.lower``, ``.upper``,
        ``.exact``) whose :class:`AnswerRecord` objects are built on
        first access; a list of records passed in is wrapped in one.
    fmin:
        The filtering radius used to prune (``f_min`` for PNN,
        ``f_min^k`` for k-NN, the query radius for range queries).
    timings:
        Per-phase wall-clock times (Figure 11's decomposition).
    unknown_after_verifier:
        Fraction of candidates still unknown after each verifier in
        the chain ran (Figure 12's series); empty when verification
        was skipped or the family has a single-stage verifier.
    finished_after_verification:
        Whether the query needed no refinement at all (Figure 13's
        metric).
    refined_objects:
        Number of candidates that entered the exact-evaluation /
        refinement phase.
    spec:
        The (normalised) spec that produced this result, when it came
        through the ``execute``/``execute_batch`` façade.
    diagnostics:
        Out-of-band execution notes, populated only when something
        noteworthy happened on the way to this (still exact) answer —
        e.g. ``diagnostics["executor"]`` when a worker died and the
        batch recovered inline, or ``diagnostics["approximate"]`` when
        the service's ε-early-answer path widened the tolerance under
        a deadline.  Empty on the happy path.
    """

    answers: tuple
    records: AnswerRecords = field(default_factory=AnswerRecords)
    fmin: float = float("nan")
    timings: PhaseTimings = field(default_factory=PhaseTimings)
    unknown_after_verifier: dict[str, float] = field(default_factory=dict)
    finished_after_verification: bool = False
    refined_objects: int = 0
    spec: QuerySpec | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.records, AnswerRecords):
            self.records = AnswerRecords.of(self.records)

    def record_for(self, key: Hashable) -> AnswerRecord:
        try:
            return self.records[self.records.keys.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def __repr__(self) -> str:
        """Compact summary — a result can carry thousands of records,
        so the dataclass default (which dumps them all) is useless at a
        REPL and hazardous in logs."""
        spec = type(self.spec).__name__ if self.spec is not None else None
        summary = (
            f"{type(self).__name__}(answers={len(self.answers)}, "
            f"records={len(self.records)}, fmin={self.fmin:.6g}, "
            f"refined_objects={self.refined_objects}, spec={spec}"
        )
        if self.diagnostics:
            summary += f", diagnostics={sorted(self.diagnostics)}"
        return summary + ")"


@dataclass
class QueryPlan:
    """The plan/stats view returned by :meth:`UncertainEngine.explain`.

    A cheap, side-effect-free description of how ``execute`` would
    evaluate a spec: which pipeline stages run, which index serves the
    filtering phase, what the filter would keep, and the current state
    of the engine's caches.  Only the filtering phase is actually
    executed (no distributions are built, no probability is computed).

    Attributes
    ----------
    spec:
        The normalised spec being explained.
    family:
        ``'cpnn'`` / ``'cknn'`` / ``'crange'``.
    index:
        ``'rtree'`` (the packed STR descent of
        :class:`~repro.index.filtering.BatchMbrFilter`) or ``'linear'``
        (the exact-distance scan
        :func:`~repro.index.filtering.filter_candidates`), as
        ``EngineConfig.use_rtree`` selects — what serves C-PNN
        filtering, single and batched alike (k-NN and range always
        descend the packed levels).
    stages:
        Human-readable pipeline stages, in execution order.
    verifiers:
        Names of the verifier chain a C-PNN spec would run (empty for
        other families).
    candidates:
        Objects surviving the filtering phase (for range specs: the
        objects whose bounding boxes straddle the range and therefore
        need probability evaluation).
    pruned:
        Objects eliminated by filtering alone (for range specs this
        counts both certain-outside *and* certain-inside objects —
        everything decided without touching a pdf).
    fmin:
        The pruning radius filtering would use (``f_min``,
        ``f_min^k``, or the query radius).
    caches:
        Snapshot of the engine's cache configuration and counters.
    shards:
        Sharded-execution snapshot (empty for single engines): the
        lane count ``n_shards``, the executor counters, and the last
        batch's parallel accounting (summed lane seconds vs. wall
        seconds — the realised parallel speedup).  See
        :class:`~repro.core.engine.sharded.ShardedEngine` and
        DESIGN.md §12.
    executor:
        The executor failure story at plan time: active/configured
        backend, the canonical failure counters (worker deaths,
        respawns, retries, timeouts, quarantines, shared-memory
        fallbacks — structurally 0 for inline engines), and the
        circuit-breaker snapshot (DESIGN.md §14).
    continuous:
        The continuous-query tier at plan time (DESIGN.md §17):
        ``{"attached": False}`` when no monitor is registered, else
        registered/replayed/invalidated counters and the safe-region
        hit rate of the attached
        :class:`~repro.continuous.monitor.ContinuousMonitor`.
    """

    spec: QuerySpec
    family: str
    index: str
    stages: list[str] = field(default_factory=list)
    verifiers: tuple[str, ...] = ()
    candidates: int = 0
    pruned: int = 0
    fmin: float = float("nan")
    caches: dict = field(default_factory=dict)
    shards: dict = field(default_factory=dict)
    executor: dict = field(default_factory=dict)
    continuous: dict = field(default_factory=dict)

    def describe(self) -> str:
        """A printable multi-line summary of the plan."""
        lines = [
            f"{type(self.spec).__name__} @ q={self.spec.q!r} "
            f"(P={self.spec.threshold}, Δ={self.spec.tolerance})",
            f"  family    : {self.family}",
            f"  index     : {self.index}",
            f"  filtering : {self.candidates} candidates "
            f"({self.pruned} pruned), radius {self.fmin:.6g}",
        ]
        if self.verifiers:
            lines.append("  verifiers : " + " → ".join(self.verifiers))
        for i, stage in enumerate(self.stages, 1):
            lines.append(f"  stage {i}   : {stage}")
        for name, stats in self.caches.items():
            lines.append(f"  cache     : {name} {stats}")
        if self.shards:
            lines.append(f"  shards    : {self.shards.get('n_shards')} lanes")
            parallel = self.shards.get("parallel") or {}
            if parallel:
                lines.append(
                    "  parallel  : last batch "
                    f"{parallel.get('lane_s', 0.0):.4g}s lane work in "
                    f"{parallel.get('wall_s', 0.0):.4g}s wall "
                    f"({parallel.get('parallel_speedup', 1.0):.2f}x)"
                )
        if self.executor:
            breaker = self.executor.get("breaker") or {}
            lines.append(
                f"  executor  : {self.executor.get('backend')} "
                f"(configured {self.executor.get('configured')}, "
                f"breaker {breaker.get('state', 'disabled')}, "
                f"{self.executor.get('worker_failures', 0)} worker failures)"
            )
        if self.continuous.get("attached"):
            lines.append(
                f"  continuous: {self.continuous.get('registered', 0)} registered, "
                f"{self.continuous.get('ticks', 0)} ticks, "
                f"hit rate {self.continuous.get('hit_rate', 1.0):.3f} "
                f"({self.continuous.get('replayed', 0)} replayed / "
                f"{self.continuous.get('reexecuted', 0)} re-executed)"
            )
        return "\n".join(lines)
