"""Continuous-query monitor: register once, tick cheaply, replay exactly.

:class:`ContinuousMonitor` fronts an engine
(:class:`~repro.core.engine.UncertainEngine` or
:class:`~repro.core.engine.sharded.ShardedEngine`) for monitoring
workloads: :meth:`~ContinuousMonitor.register` runs a spec once and
installs a :class:`ContinuousHandle` carrying the memoised
:class:`~repro.core.types.QueryResult` and its
:class:`~repro.continuous.region.SafeRegion` certificate; each
:meth:`~ContinuousMonitor.tick` re-enters the pipeline — one
``execute_batch`` micro-batch riding the engine's executor substrate
unchanged — **only** for handles whose query point moved or whose
certificate a mutation invalidated.  Every other handle's snapshot is
exact by the certificate argument (DESIGN.md §17) and is not even
visited: tick cost scales with the disturbance, not with the number of
registered queries.

Mutations must flow **through the monitor** (:meth:`insert`,
:meth:`remove`, :meth:`replace`, which forward to the engine and record
the certificate-relevant MBRs), or be declared out-of-band via
``tick(moved_keys=...)`` / :meth:`note_mutation`.  A mutation applied
directly to the engine and never declared silently breaks the replay
contract — exactly as it would break any external cache.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.continuous.index import DominanceIndex
from repro.continuous.region import SafeRegion
from repro.core.engine.pnn import _replay_result
from repro.core.types import QueryResult, QuerySpec

__all__ = ["ContinuousHandle", "ContinuousMonitor", "TickReport"]


@dataclass(eq=False)  # identity semantics: a handle is its registration
class ContinuousHandle:
    """One registered monitoring query.

    Holds the latest memoised result and its safe-region certificate;
    all mutation/tick machinery lives on the owning monitor.  Counters
    are observational: ``reexecutions`` counts pipeline re-entries
    (including registration), while replays are tracked globally — a
    replayed handle is never visited, which is the whole point.
    """

    id: int
    spec: QuerySpec
    result: QueryResult | None = None
    region: SafeRegion | None = None
    #: C-PNN and range: the candidate keys of the memoised result,
    #: serving the out-of-band ``moved_keys`` membership test.  ``None``
    #: for the structural family (k-NN).
    candidate_keys: frozenset | None = None
    reexecutions: int = 0
    registered_at: int = 0

    @property
    def answers(self) -> tuple:
        """The current (memoised) answer tuple."""
        return self.result.answers

    def snapshot(self) -> QueryResult:
        """A caller-owned replay of the memoised result.

        A fresh view of the read-only record columns (the stored
        snapshot shares no mutable state with what callers hold) and
        zero timings — nothing ran, matching the engine's own
        replay-tier convention.
        """
        result = _replay_result(self.result)
        result.spec = self.spec
        return result


@dataclass
class TickReport:
    """What one :meth:`ContinuousMonitor.tick` actually did.

    ``results`` carries a fresh snapshot for every re-executed handle
    and ``changed`` the subset whose *answer tuple* differs from the
    previous tick — the streaming payload.  Replayed handles appear
    only as a count: they were never visited.
    """

    index: int
    registered: int
    reexecuted: tuple[int, ...]
    replayed: int
    escaped: tuple[int, ...]
    invalidated: tuple[int, ...]
    mutations: int
    results: dict[int, QueryResult] = field(default_factory=dict)
    changed: dict[int, QueryResult] = field(default_factory=dict)

    @property
    def escape_rate(self) -> float:
        """Fraction of registered queries that re-entered the pipeline."""
        return len(self.reexecuted) / self.registered if self.registered else 0.0


class ContinuousMonitor:
    """The continuous-query tier over one engine.

    Parameters
    ----------
    engine:
        Any engine exposing the façade (``execute_batch``, the mutation
        contract, ``object_for``).  The monitor attaches itself as
        ``engine._continuous`` so ``stats()["continuous"]`` and
        ``explain()`` report this tier; a later monitor on the same
        engine takes the slot over.
    group_size:
        Dominance-index group width
        (:class:`~repro.continuous.index.DominanceIndex`).
    """

    def __init__(self, engine, *, group_size: int = 32):
        self._engine = engine
        self._index = DominanceIndex(group_size)
        self._handles: dict[int, ContinuousHandle] = {}
        self._ids = itertools.count(1)
        #: Mutation MBRs recorded since the last tick, as
        #: ``(lows, highs)`` float-vector pairs.
        self._pending_boxes: list[tuple[np.ndarray, np.ndarray]] = []
        #: Whether a census change (insert/remove/key-changing replace)
        #: happened since the last tick — invalidates every structural
        #: (k-NN) handle.
        self._pending_structural = False
        self._ticks = 0
        self._reexecuted_total = 0
        self._replayed_total = 0
        self._escaped_total = 0
        self._invalidated_total = 0
        self._mutations_total = 0
        self._opportunities = 0
        engine._continuous = self

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, spec) -> ContinuousHandle:
        """Install one monitoring query (executed immediately)."""
        return self.register_many([spec])[0]

    def register_many(self, specs: Sequence) -> list[ContinuousHandle]:
        """Install many monitoring queries with one micro-batch."""
        specs = [self._engine._as_spec(s) for s in specs]
        batch = self._engine.execute_batch(specs)
        handles = []
        for spec, result in zip(specs, batch.results):
            handle = ContinuousHandle(
                id=next(self._ids), spec=spec, registered_at=self._ticks
            )
            self._install(handle, result)
            self._handles[handle.id] = handle
            handles.append(handle)
        return handles

    def unregister(self, handle) -> bool:
        """Remove a handle (or handle id); ``True`` when it was live."""
        handle_id = handle.id if isinstance(handle, ContinuousHandle) else int(handle)
        if self._handles.pop(handle_id, None) is None:
            return False
        self._index.discard(handle_id)
        return True

    def _resolve(self, target) -> ContinuousHandle:
        handle_id = target.id if isinstance(target, ContinuousHandle) else int(target)
        try:
            return self._handles[handle_id]
        except KeyError:
            raise KeyError(f"no registered handle {handle_id!r}") from None

    def _install(self, handle: ContinuousHandle, result: QueryResult) -> None:
        """Memoise a fresh result and refresh the handle's certificate."""
        handle.result = result
        handle.region = SafeRegion.from_result(handle.spec, result)
        handle.candidate_keys = (
            None
            if handle.region.structural
            else frozenset(result.records.keys)
        )
        handle.reexecutions += 1
        self._index.put(
            handle.id,
            handle.region.center,
            handle.region.radius,
            handle.region.structural,
        )

    # ------------------------------------------------------------------
    # Mutations (the monitored front of the mutation contract)
    # ------------------------------------------------------------------

    def _note_box(self, mbr) -> None:
        self._pending_boxes.append(
            (
                np.atleast_1d(np.asarray(mbr.lows, dtype=float)),
                np.atleast_1d(np.asarray(mbr.highs, dtype=float)),
            )
        )

    def note_mutation(self, lows, highs, *, structural: bool = False) -> None:
        """Declare an out-of-band mutation MBR (advanced use).

        For callers that mutate the engine directly but know the
        affected boxes: declare the *old* and *new* MBR of a
        replacement (two calls), or pass ``structural=True`` for
        anything that changes the object census.
        """
        self._pending_boxes.append(
            (
                np.atleast_1d(np.asarray(lows, dtype=float)),
                np.atleast_1d(np.asarray(highs, dtype=float)),
            )
        )
        if structural:
            self._pending_structural = True

    def insert(self, obj) -> None:
        """Insert through the engine and certify the mutation."""
        self._engine.insert(obj)
        self._note_box(obj.mbr)
        self._pending_structural = True

    def remove(self, key: Hashable) -> bool:
        """Remove through the engine and certify the mutation."""
        victim = self._engine.object_for(key)
        removed = self._engine.remove(key)
        if removed:
            self._note_box(victim.mbr)
            self._pending_structural = True
        return removed

    def replace(self, key: Hashable, obj) -> None:
        """Replace through the engine and certify both MBRs.

        In-place replacement is non-structural (the census is
        unchanged) unless the object's key changes: a key swap is
        what ``remove`` + ``insert`` would be, so structural (k-NN)
        handles treat it as a census change.  C-PNN and range records
        list only candidates, so for them a key swap outside the ball
        cannot show and the distance test decides as usual.
        """
        victim = self._engine.object_for(key)
        self._engine.replace(key, obj)
        self._note_box(victim.mbr)
        self._note_box(obj.mbr)
        if obj.key != key:
            self._pending_structural = True

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------

    def tick(
        self,
        moved_keys: Iterable[Hashable] | None = None,
        query_moves: Mapping | None = None,
    ) -> TickReport:
        """Advance one monitoring step.

        Parameters
        ----------
        moved_keys:
            Keys of objects replaced in place *directly on the engine*
            (out-of-band) since the last tick.  Their old MBR is
            unknown, so certification degrades: structural (k-NN)
            handles all re-execute, C-PNN and range handles re-execute
            when the key was in their candidate set or the object's
            current MBR touches their ball.  Prefer routing mutations
            through the monitor.
        query_moves:
            ``{handle_or_id: new_query_point}`` — dead-reckoning for
            the queries themselves.  A genuinely moved point always
            re-executes (results are pointwise in ``q``); a report
            equal to the registered point replays.

        Returns a :class:`TickReport`; ``report.changed`` holds fresh
        snapshots only for handles whose answer tuple changed.
        """
        self._ticks += 1
        boxes = self._pending_boxes
        self._pending_boxes = []
        structural = self._pending_structural
        self._pending_structural = False

        invalidated: set[int] = set()
        escaped: list[int] = []
        moves: dict[int, QuerySpec] = {}
        if query_moves:
            for target, q in query_moves.items():
                handle = self._resolve(target)
                if handle.region.contains_point(q):
                    continue  # stationary report: the snapshot stands
                moves[handle.id] = dataclasses.replace(handle.spec, q=q)
                escaped.append(handle.id)
        if moved_keys:
            for key in moved_keys:
                structural = True  # old MBR unknown: degrade k-NN
                obj = self._engine.object_for(key)
                if obj is not None:
                    self._note_box(obj.mbr)
                for handle in self._handles.values():
                    if handle.candidate_keys and key in handle.candidate_keys:
                        invalidated.add(handle.id)
            boxes = boxes + self._pending_boxes
            self._pending_boxes = []

        if boxes:
            # One vectorised certificate sweep per dimensionality (a
            # drained-and-refilled engine can mix box dims in one tick).
            by_dim: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
            for lows, highs in boxes:
                by_dim.setdefault(lows.shape[0], []).append((lows, highs))
            for dim_boxes in by_dim.values():
                invalidated |= self._index.hit_by_boxes(
                    np.stack([lows for lows, _ in dim_boxes]),
                    np.stack([highs for _, highs in dim_boxes]),
                )
        if structural:
            invalidated |= self._index.structural_ids()
        if boxes and not len(self._engine):
            # Drained: an empty engine answers every spec with the empty
            # result shape (NaN ``fmin``), which no ball can certify.
            invalidated |= self._handles.keys()
        invalidated &= self._handles.keys()

        to_run = sorted(invalidated | moves.keys())
        results: dict[int, QueryResult] = {}
        changed: dict[int, QueryResult] = {}
        if to_run:
            for handle_id, spec in moves.items():
                self._handles[handle_id].spec = spec
            specs = [self._handles[h].spec for h in to_run]
            batch = self._engine.execute_batch(specs)
            for handle_id, result in zip(to_run, batch.results):
                handle = self._handles[handle_id]
                previous = handle.result.answers
                self._install(handle, result)
                snapshot = handle.snapshot()
                results[handle_id] = snapshot
                if result.answers != previous:
                    changed[handle_id] = snapshot

        registered = len(self._handles)
        replayed = registered - len(to_run)
        self._reexecuted_total += len(to_run)
        self._replayed_total += replayed
        self._escaped_total += len(escaped)
        self._invalidated_total += len(invalidated)
        self._mutations_total += len(boxes)
        self._opportunities += registered
        return TickReport(
            index=self._ticks,
            registered=registered,
            reexecuted=tuple(to_run),
            replayed=replayed,
            escaped=tuple(escaped),
            invalidated=tuple(sorted(invalidated)),
            mutations=len(boxes),
            results=results,
            changed=changed,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._handles)

    @property
    def handles(self) -> tuple[ContinuousHandle, ...]:
        """Live handles, in registration order."""
        return tuple(self._handles.values())

    def results(self) -> dict[int, QueryResult]:
        """Fresh snapshots of every registered handle (O(Q); the tick
        path never does this — it returns only what changed)."""
        return {h.id: h.snapshot() for h in self._handles.values()}

    def stats(self) -> dict:
        """Counter snapshot for ``stats()["continuous"]``."""
        opportunities = self._opportunities
        return {
            "registered": len(self._handles),
            "ticks": self._ticks,
            "reexecuted": self._reexecuted_total,
            "replayed": self._replayed_total,
            "escaped": self._escaped_total,
            "invalidated": self._invalidated_total,
            "mutations": self._mutations_total,
            "hit_rate": (self._replayed_total / opportunities) if opportunities else 1.0,
            "index": self._index.stats(),
        }
