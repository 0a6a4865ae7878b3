"""Executor substrate: typed work items + the backend contract.

The plan/execute split (DESIGN.md §13): the sharded engine *plans* a
C-PNN batch as serialized work items — one :class:`PnnItem` per lane —
and an executor decides *where* they run:

* :class:`~repro.core.engine.executors.serial.SerialExecutor` — inline,
  the bit-identity reference;
* :class:`~repro.core.engine.executors.process.ProcessExecutor` —
  persistent spawn workers with resident per-lane caches attached to a
  shared-memory coordinate segment.

Items carry plain data (spec tuples), never closures, so the same item
pickles to a worker or runs in-process via the host callback
``_run_pnn_item`` — which is also how crash recovery re-executes a dead
worker's items without a special path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

__all__ = [
    "BACKENDS",
    "CancelScope",
    "ExecutionTimeout",
    "ExecutorBase",
    "PnnItem",
    "check_cancel",
    "resolve_backend",
]

BACKENDS = ("auto", "serial", "process")


class ExecutionTimeout(TimeoutError):
    """A deadline expired while work items were executing.

    Raised by any backend when the host's active
    :class:`CancelScope` runs out mid-dispatch; the partial work is
    abandoned (the process backend terminates in-flight workers — the
    only true cancellation for a CPU-bound item — and respawns them on
    the next dispatch).  The service layer maps this to its retry /
    ε-early-answer policy.
    """


class CancelScope:
    """A monotonic deadline that cooperating loops poll.

    Engines expose it via ``with engine.deadline(seconds):`` — the scope
    lands on ``host._cancel_scope`` and every backend (and the C-PNN
    per-query loops) calls :meth:`check` at item boundaries.  The scope
    is deliberately tiny: no threads, no signals, just a timestamp, so
    checking it costs one ``time.monotonic()`` call.
    """

    __slots__ = ("deadline", "_cancelled")

    def __init__(self, deadline: float | None) -> None:
        self.deadline = deadline
        self._cancelled = False

    @classmethod
    def after(cls, seconds: float) -> "CancelScope":
        return cls(time.monotonic() + float(seconds))

    def cancel(self) -> None:
        """Expire the scope immediately (caller-initiated abort)."""
        self._cancelled = True

    def remaining(self) -> float:
        """Seconds left (``inf`` for a deadline-less scope, ``0.0``
        once expired or cancelled)."""
        if self._cancelled:
            return 0.0
        if self.deadline is None:
            return float("inf")
        return max(0.0, self.deadline - time.monotonic())

    def expired(self) -> bool:
        if self._cancelled:
            return True
        return self.deadline is not None and time.monotonic() >= self.deadline

    def check(self) -> None:
        """Raise :class:`ExecutionTimeout` if the scope has expired."""
        if self.expired():
            raise ExecutionTimeout(
                "deadline expired while executing work items"
            )


def check_cancel(host) -> None:
    """Poll ``host``'s active cancel scope, if any.

    The hosts (engines, lanes) carry the scope as a plain
    ``_cancel_scope`` attribute so the hot path without a deadline pays
    one ``getattr`` and nothing else.
    """
    scope = getattr(host, "_cancel_scope", None)
    if scope is not None:
        scope.check()


@dataclass(frozen=True, eq=False)
class PnnItem:
    """One lane's slice of a C-PNN batch.

    ``indices`` are the positions of ``specs`` in the caller's batch
    (for scattering results back); ``lane`` is the content-hash
    affinity lane every spec in the item maps to.
    """

    lane: int
    indices: tuple[int, ...]
    specs: tuple


def resolve_backend(config, *, parallel: bool = True) -> str:
    """Resolve ``config.executor`` (validated by the frozen config) to a
    concrete backend name.

    ``"auto"`` picks ``process`` for a parallel host on two or more
    cores (every config pickles, so the workers can always receive
    it), else ``serial`` — the single engine, or a single core, where
    there is nothing to fan out to.
    """
    if config.executor != "auto":
        return config.executor
    if parallel and (os.cpu_count() or 1) >= 2:
        return "process"
    return "serial"


class ExecutorBase:
    """The backend contract the sharded engine programs against.

    ``host`` is the owning :class:`~repro.core.engine.sharded.ShardedEngine`;
    backends that run items in-process call back into
    ``host._run_pnn_item(item, staged)``.
    """

    name = "?"

    def __init__(self, host) -> None:
        self._host = host

    def run_pnn(self, items, staged) -> list:
        """Execute C-PNN items; returns one ``(BatchResult, seconds)``
        per item, aligned with ``items``.  ``staged`` maps point keys to
        the parent's filter results (ignored by backends whose workers
        filter for themselves)."""
        raise NotImplementedError

    def record_mutation(self, op) -> None:
        """Observe one registry mutation (backends with remote replicas
        log it; others ignore it)."""

    def close(self) -> None:
        """Release pools/segments (idempotent; the executor stays
        usable — resources are recreated on the next dispatch)."""

    def stats(self) -> dict:
        return {"backend": self.name}
