"""Process execution: persistent spawn workers with resident lane state.

The backend that buys GIL-bound C-PNN verification real cores
(DESIGN.md §13).  One spawn-based worker per lane, addressed over its
own duplex pipe — addressed dispatch (not a task queue) is what keeps
the content-hash lane affinity meaningful across the process boundary:
worker *i* always serves lane *i*, so its resident ``TableCache``
stays warm between batches exactly like an in-process lane's.

Worker lifecycle
----------------
On (re)spawn, a worker receives one ``attach`` message: the pickled
:class:`~repro.core.engine.config.EngineConfig`, the object list, and a
:class:`~repro.storage.StoreDescriptor` for the parent-exported
coordinate store, one shared-memory segment (DESIGN.md §16).  The
message is pickled once and sent after every new worker has started,
so their interpreter imports overlap.  Each object pickles as its key
and pdf; unpickling rebuilds its histogram through the pdf's
``normalized_histogram()``, the method construction runs, so the
worker's arrays equal the parent's bit for bit.  The worker rebuilds a full :class:`~repro.index.filtering.BatchMbrFilter`
over that store (no coordinate is re-pickled) and a resident
:class:`~repro.core.engine.lanes.Lane`; thereafter each work message
piggybacks the mutation-log suffix the worker hasn't seen (inserted
and replacing objects travel as key and pdf too), which it replays
against its replica with the registry's exact ordering semantics
before executing.  The parent unlinks the store's name as
soon as every worker has attached — shm mappings outlive the name, so
nothing can leak in ``/dev/shm`` past the handshake.

Crash recovery
--------------
A worker that dies mid-batch (pipe EOF / process exit) is detected at
send or receive; its work item is re-executed in-process through the
same host callbacks the serial backend uses — answers are bit-identical
because it is the same pipeline, only colder caches — the failure is
counted in :meth:`ProcessExecutor.stats`, and the worker is respawned
(with a fresh snapshot) before the next dispatch.  Workers are daemons:
an abandoned engine can never wedge interpreter exit, and a module
``atexit`` hook closes any pool whose engine was abandoned without
``close()`` so no worker or segment survives a normal interpreter end.

Beyond plain crashes, the pool carries three further defences
(DESIGN.md §14): a **poison quarantine** — specs present in an item
whose worker died twice are permanently routed to the in-process serial
path, so one pathological query cannot crash-loop the pool; **deadline
cancellation** — when the host carries an active
:class:`~repro.core.engine.executors.base.CancelScope`, waiting on a
reply past the budget terminates the in-flight workers (the only true
cancellation for a CPU-bound item) and raises :class:`ExecutionTimeout
<repro.core.engine.executors.base.ExecutionTimeout>`; and **shm attach
fallback** — a worker that cannot map the exported coordinate segment
rebuilds its filter from the pickled objects instead (slower attach,
same floats).
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import time
import weakref
from multiprocessing.reduction import ForkingPickler

from repro import hooks
from repro.core.batch import point_key
from repro.core.engine.executors.base import ExecutionTimeout, ExecutorBase
from repro.storage import StorageError, open_store

__all__ = ["ProcessExecutor"]

#: Pipe poll granularity while waiting on a worker (also the death-
#: detection latency floor).
_POLL_S = 0.05

#: Grace period for a worker to exit after the ``exit`` message.
_JOIN_S = 5.0

#: Worker deaths holding a given spec before it is quarantined to the
#: in-process serial path (the issue's "kills a worker twice" rule).
_QUARANTINE_KILLS = 2


class _WorkerDied(Exception):
    """The worker's process ended before answering."""


# ----------------------------------------------------------------------
# Worker side (runs in the spawned interpreter)
# ----------------------------------------------------------------------


class _WorkerState:
    """One worker's resident replica: objects, filter, and its lane."""

    __slots__ = (
        "lane",
        "objects",
        "key_list",
        "filter",
        "use_rtree",
        "shm",
        "attach_fallback",
    )

    def __init__(self) -> None:
        self.lane = None
        self.objects: list = []
        self.key_list: list = []
        self.filter = None
        self.use_rtree = True
        self.shm = None
        self.attach_fallback = False


def _worker_attach(lane_id, config, objects, n_lanes, columns_desc):
    from repro.core.engine.lanes import Lane
    from repro.index.filtering import BatchMbrFilter, filter_candidates

    state = _WorkerState()
    state.lane = Lane(config, n_lanes)
    state.objects = list(objects)
    state.key_list = [obj.key for obj in state.objects]
    state.use_rtree = config.use_rtree
    if state.use_rtree:
        if columns_desc is not None and state.objects:
            try:
                store = open_store(columns_desc)
                state.filter = BatchMbrFilter.from_store(store, state.objects)
                state.shm = store
            except StorageError:
                # The backing store vanished (or could not be mapped)
                # between export and attach.  The objects travelled in
                # the same message, so rebuild the filter locally: a
                # slower attach, bit-identical coordinates, and the
                # parent is told so it can count the degradation.
                state.filter = BatchMbrFilter(state.objects)
                state.attach_fallback = True
        elif state.objects:
            state.filter = BatchMbrFilter(state.objects)
        # The lane consults the *current* filter at call time (mutations
        # may rebuild or drop it), hence a closure, not the filter itself.
        state.lane._local_filter = lambda points: state.filter(points)
    else:
        # Linear-scan mode: the lane replays the exact region-distance
        # scan over the resident list (mutated in place, never rebound).
        state.lane._local_filter = lambda points: [
            filter_candidates(state.objects, p) for p in points
        ]
    return state


def _worker_apply_ops(state: _WorkerState, ops) -> None:
    """Replay a parent mutation-log suffix against the resident replica.

    Mirrors :class:`~repro.core.engine.registry.ObjectRegistryMixin`'s
    ordering semantics exactly — append on insert, order-preserving
    delete on remove, position-preserving overwrite on replace — plus
    the per-lane cache maintenance the parent applies to every lane:
    invalidation-box queueing.
    """
    from repro.index.filtering import BatchMbrFilter

    lane = state.lane
    for op in ops:
        kind = op[0]
        if kind == "insert":
            obj = op[1]
            state.objects.append(obj)
            state.key_list.append(obj.key)
            if state.use_rtree:
                if state.filter is None:
                    state.filter = BatchMbrFilter(state.objects)
                else:
                    state.filter.append(obj)
            lane._queue_invalidation(obj)
        elif kind == "remove":
            key = op[1]
            index = state.key_list.index(key)
            victim = state.objects.pop(index)
            del state.key_list[index]
            if state.use_rtree and state.filter is not None:
                if state.objects:
                    state.filter.remove_at(index)
                else:
                    state.filter = None
            lane._queue_invalidation(victim)
            if not state.objects:
                # Drained: mirror the engine-side reset (a refill may
                # change dimensionality; DESIGN.md §11).
                lane._pending_invalidation.clear()
                lane._table_cache.clear()
        elif kind == "replace":
            key, obj = op[1], op[2]
            index = state.key_list.index(key)
            victim = state.objects[index]
            state.objects[index] = obj
            state.key_list[index] = obj.key
            if state.use_rtree and state.filter is not None:
                state.filter.replace_at(index, obj)
            lane._queue_invalidation(victim)
            lane._queue_invalidation(obj)
        else:  # pragma: no cover - protocol guard
            raise RuntimeError(f"unknown mutation op {kind!r}")


def _worker_main(conn, lane_id: int) -> None:
    """Spawn target: serve attach/pnn requests until exit."""
    state: _WorkerState | None = None
    crash_armed = False
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if crash_armed and kind == "pnn":
            os._exit(13)  # armed by "die": perish mid-batch, task in hand
        try:
            if kind == "ping":
                conn.send(("ok", "pong"))
            elif kind == "attach":
                _, config, objects, n_lanes, columns_desc = msg
                state = _worker_attach(
                    lane_id, config, objects, n_lanes, columns_desc
                )
                conn.send(("ok", (len(state.objects), state.attach_fallback)))
            elif kind == "pnn":
                _, ops, specs = msg
                if ops:
                    _worker_apply_ops(state, ops)
                tick = time.perf_counter()
                sub = state.lane._pnn_batch(list(specs))
                conn.send(("ok", (sub, time.perf_counter() - tick)))
            elif kind == "exit":
                conn.send(("ok", None))
                break
            elif kind == "die":
                # Crash-robustness hook: die on the *next* work item, so
                # the parent discovers the corpse mid-batch (the hard
                # case), not at the pre-dispatch liveness check.
                crash_armed = True
            else:  # pragma: no cover - protocol guard
                conn.send(("error", f"unknown message {kind!r}"))
        except BaseException as exc:  # noqa: BLE001 - must answer, not die
            try:
                conn.send(("error", f"{type(exc).__name__}: {exc}"))
            except (OSError, ValueError):  # pragma: no cover
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


class _Worker:
    __slots__ = ("proc", "conn", "synced", "alive")

    def __init__(self, proc, conn, synced: int) -> None:
        self.proc = proc
        self.conn = conn
        #: Global mutation-log index this worker has replayed up to.
        self.synced = synced
        self.alive = True


#: Every live pool in this interpreter, so an abandoned engine's
#: workers are still closed gracefully at interpreter exit (workers are
#: daemons and also die on pipe EOF, but an explicit exit keeps the
#: shutdown deterministic and /dev/shm clean even under teardown races).
_LIVE_POOLS: "weakref.WeakSet[ProcessExecutor]" = weakref.WeakSet()


@atexit.register
def _close_leftover_pools() -> None:  # pragma: no cover - interpreter exit
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


class ProcessExecutor(ExecutorBase):
    """Persistent spawn-based worker pool, one addressed worker per lane."""

    name = "process"

    def __init__(self, host) -> None:
        super().__init__(host)
        self._ctx = mp.get_context("spawn")
        self._workers: list[_Worker | None] = []
        self._started = False
        #: Mutation log since pool start; ``_ops_base`` is the global
        #: index of ``_ops[0]`` (the prefix every worker has replayed
        #: is compacted away after each dispatch).
        self._ops: list[tuple] = []
        self._ops_base = 0
        self._failures = 0
        self._respawns = 0
        self._dispatches = 0
        self._retries = 0
        self._timeouts = 0
        self._errors = 0
        self._shm_fallbacks = 0
        self._quarantine_hits = 0
        #: Worker-death counts per spec signature; at
        #: ``_QUARANTINE_KILLS`` the signature moves to ``_quarantined``
        #: and that spec never reaches a worker again.
        self._poison: dict[tuple, int] = {}
        self._quarantined: set[tuple] = set()
        _LIVE_POOLS.add(self)

    # -- pool lifecycle -------------------------------------------------

    @property
    def n_workers(self) -> int:
        return self._host.n_shards

    def ensure_started(self) -> None:
        """Spawn (or respawn) every missing/dead worker and attach it to
        a snapshot of the current object set."""
        if not self._started:
            self._workers = [None] * self.n_workers
            self._ops = []
            self._ops_base = 0
            self._started = True
        lanes = []
        for lane_id, worker in enumerate(self._workers):
            if worker is not None and worker.alive and worker.proc.is_alive():
                continue
            if worker is not None:
                self._mark_dead(worker)
                self._respawns += 1
            lanes.append(lane_id)
        if lanes:
            self._spawn_group(lanes)

    def _spawn_group(self, lanes: list[int]) -> None:
        host = self._host
        columns_desc = None
        columns_store = None
        if host._config.use_rtree and host._objects:
            # The engine's own filter exports its coordinates into one
            # shared-memory segment: the floats the parent filters with,
            # no rebuild per spawn (DESIGN.md §16).
            columns_store = host._ensure_batch_filter().to_store("shm")
            columns_desc = columns_store.descriptor()
            # Injection point: a handler may unlink the backing here to
            # exercise the workers' attach-failure fallback.
            hooks.fire("process.attach", segment=columns_desc.location)
        try:
            top = self._ops_base + len(self._ops)
            spawned = []
            for lane_id in lanes:
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(child_conn, lane_id),
                    name=f"repro-lane-{lane_id}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                worker = _Worker(proc, parent_conn, top)
                self._workers[lane_id] = worker
                spawned.append(worker)
            # Sent only once every worker is starting: a message larger
            # than the pipe buffer blocks until its worker has imported
            # and begun reading, so the imports overlap.  One pickle,
            # the bytes ``conn.send`` would write, for every worker.
            attach = ForkingPickler.dumps(
                ("attach", host._config, host._objects, len(host._lanes), columns_desc)
            )
            for worker in spawned:
                worker.conn.send_bytes(attach)
            for worker in spawned:
                status, payload = self._recv(worker)
                if status != "ok":  # pragma: no cover - attach never raises
                    raise RuntimeError(f"worker attach failed: {payload}")
                if isinstance(payload, tuple) and payload[1]:
                    self._shm_fallbacks += 1
        finally:
            # Mappings outlive the name: once every worker holds its
            # attachment the name can go, so a crash can't leak it.
            if columns_store is not None:
                columns_store.close()

    def close(self) -> None:
        for worker in self._workers:
            if worker is None or not worker.alive:
                continue
            try:
                worker.conn.send(("exit",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            if worker is None:
                continue
            worker.proc.join(_JOIN_S)
            if worker.proc.is_alive():  # pragma: no cover - stuck worker
                worker.proc.terminate()
                worker.proc.join(_JOIN_S)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        self._workers = []
        self._ops = []
        self._ops_base = 0
        self._started = False

    # -- mutation log ---------------------------------------------------

    def record_mutation(self, op) -> None:
        if self._started:
            self._ops.append(op)

    def _ops_for(self, worker: _Worker) -> list[tuple]:
        return self._ops[worker.synced - self._ops_base :]

    def _compact_ops(self) -> None:
        live = [w.synced for w in self._workers if w is not None and w.alive]
        if not live:
            return
        floor = min(live)
        drop = floor - self._ops_base
        if drop > 0:
            del self._ops[:drop]
            self._ops_base = floor

    # -- plumbing -------------------------------------------------------

    def _mark_dead(self, worker: _Worker) -> None:
        if not worker.alive:
            return
        worker.alive = False
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _fail(self, worker: _Worker) -> None:
        self._mark_dead(worker)
        self._failures += 1

    def _cancel_worker(self, worker: _Worker) -> None:
        """Deadline cancellation: a CPU-bound work item cannot be
        interrupted cooperatively across the process boundary, so the
        honest cancellation is to kill the worker (its late reply would
        desync the pipe anyway) and let the next dispatch respawn it
        with a fresh snapshot."""
        self._timeouts += 1
        self._mark_dead(worker)
        worker.proc.terminate()

    def _retire(self, worker: _Worker) -> None:
        """A worker answered with an error: its replica may be mid-
        mutation (ops replay before compute), so retire it rather than
        risk desync — the next dispatch respawns it clean."""
        self._errors += 1
        self._mark_dead(worker)
        worker.proc.terminate()

    def _recv(self, worker: _Worker, scope=None):
        """Receive one reply, raising :class:`_WorkerDied` if the
        process ends first (the pipe may still hold a buffered reply,
        which is drained) and :class:`ExecutionTimeout` if ``scope``
        expires first."""
        hooks.fire("process.recv", worker=worker)
        while True:
            # Deadline first, even when a reply is already buffered: a
            # lapsed budget means the caller must take the deadline
            # path now, not deliver late.
            if scope is not None:
                scope.check()
            if worker.conn.poll(_POLL_S):
                try:
                    return worker.conn.recv()
                except (EOFError, OSError):
                    raise _WorkerDied from None
            if not worker.proc.is_alive():
                if worker.conn.poll(0):
                    try:
                        return worker.conn.recv()
                    except (EOFError, OSError):
                        raise _WorkerDied from None
                raise _WorkerDied

    # -- poison quarantine ----------------------------------------------

    @staticmethod
    def _spec_key(spec) -> tuple:
        """Content signature of one spec for the quarantine ledger."""
        return (
            type(spec).__name__,
            point_key(spec.q),
            spec.threshold,
            spec.tolerance,
            getattr(spec, "k", None),
            getattr(spec, "radius", None),
        )

    def _suspect(self, specs) -> None:
        """A worker died holding these specs: raise their suspicion,
        quarantining any that has now killed ``_QUARANTINE_KILLS``
        workers."""
        for spec in specs:
            key = self._spec_key(spec)
            count = self._poison.get(key, 0) + 1
            self._poison[key] = count
            if count >= _QUARANTINE_KILLS:
                self._quarantined.add(key)

    def _is_quarantined(self, item) -> bool:
        if not self._quarantined:
            return False
        return any(self._spec_key(s) in self._quarantined for s in item.specs)

    def _call_ok(self, worker: _Worker, message: tuple, synced_to: int):
        """Send + receive one request; updates the worker's sync mark on
        success, raises :class:`_WorkerDied` on worker death."""
        try:
            worker.conn.send(message)
        except (OSError, ValueError):
            raise _WorkerDied from None
        status, payload = self._recv(worker)
        if status != "ok":
            raise RuntimeError(
                f"worker for lane {worker.proc.name} failed: {payload}"
            )
        worker.synced = synced_to
        return payload

    # -- execution ------------------------------------------------------

    def run_pnn(self, items, staged) -> list:
        """Dispatch each item to its lane's worker; a dead worker's item
        is transparently re-executed in-process (``staged`` is ignored —
        workers filter against their resident replicas).

        Quarantined specs never reach a worker (their item runs on the
        serial in-process path); an active host deadline terminates
        workers still computing past the budget and raises
        :class:`ExecutionTimeout
        <repro.core.engine.executors.base.ExecutionTimeout>` — the pool
        heals by respawn on the next dispatch.
        """
        scope = getattr(self._host, "_cancel_scope", None)
        if scope is not None:
            scope.check()
        hooks.fire(
            "executor.dispatch", backend=self.name, kind="pnn", executor=self
        )
        self.ensure_started()
        self._dispatches += 1
        top = self._ops_base + len(self._ops)
        outcomes: list = [None] * len(items)
        inflight = []
        for position, item in enumerate(items):
            if self._is_quarantined(item):
                # Poison rule: a spec that killed a worker twice runs
                # in-process forever after (lane-mates ride along — the
                # item is the dispatch unit and the path is identical).
                self._quarantine_hits += 1
                outcomes[position] = self._host._run_pnn_item_local(item)
                continue
            worker = self._workers[item.lane]
            if worker is None or not worker.alive:
                outcomes[position] = self._retry_inline(item)
                continue
            try:
                hooks.fire(
                    "process.send", lane=item.lane, kind="pnn", worker=worker
                )
                worker.conn.send(("pnn", self._ops_for(worker), item.specs))
                inflight.append((position, item, worker))
            except (OSError, ValueError):
                self._fail(worker)
                self._suspect(item.specs)
                outcomes[position] = self._retry_inline(item)
        timed_out = False
        for position, item, worker in inflight:
            if timed_out:
                self._cancel_worker(worker)
                continue
            try:
                status, payload = self._recv(worker, scope)
            except ExecutionTimeout:
                self._cancel_worker(worker)
                timed_out = True
                continue
            except _WorkerDied:
                self._fail(worker)
                self._suspect(item.specs)
                outcomes[position] = self._retry_inline(item)
                continue
            if status != "ok":
                self._retire(worker)
                outcomes[position] = self._retry_inline(item)
                continue
            worker.synced = top
            outcomes[position] = payload
        self._compact_ops()
        if timed_out:
            raise ExecutionTimeout(
                "deadline expired waiting on worker replies"
            )
        return outcomes

    def _retry_inline(self, item):
        """Graceful degradation: run a dead worker's item through the
        host's in-process path (same pipeline, bit-identical answers)."""
        self._retries += 1
        return self._host._run_pnn_item_local(item)

    # -- test hooks & observability ------------------------------------

    def inject_crash(self, lane: int) -> None:
        """Test hook: arm lane ``lane``'s worker to exit the instant it
        receives its next work item — the parent then discovers the
        death mid-batch, exactly like a real crash between send and
        reply, and must recover by in-process retry + respawn."""
        worker = self._workers[lane] if self._started else None
        if worker is None or not worker.alive:
            raise RuntimeError(f"no live worker for lane {lane}")
        worker.conn.send(("die",))

    def stats(self) -> dict:
        return {
            "backend": self.name,
            "workers": self.n_workers,
            "started": self._started,
            "alive": sum(
                1
                for w in self._workers
                if w is not None and w.alive and w.proc.is_alive()
            ),
            "dispatches": self._dispatches,
            "worker_failures": self._failures,
            "respawns": self._respawns,
            "in_process_retries": self._retries,
            "pending_ops": len(self._ops),
            "timeouts": self._timeouts,
            "worker_errors": self._errors,
            "shm_fallbacks": self._shm_fallbacks,
            "quarantined": len(self._quarantined),
            "quarantine_hits": self._quarantine_hits,
        }
