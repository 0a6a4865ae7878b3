"""Deterministic fault injection over the :mod:`repro.hooks` points.

A :class:`FaultPlan` scripts *which occurrence* of *which hook point*
does *what* — "the 2nd ``process.send`` kills the worker", "the 1st
``shm.attach`` unlinks the segment first" — so failure tests replay the
exact same fault sequence every run, with no sleeps-and-hope timing.

The plan is a context manager installing one handler on the global
hook registry::

    plan = FaultPlan()
    plan.script("process.send", kill_worker, at=2)
    with plan:
        service_or_engine_work()
    assert plan.fired == [("process.send", 2, "kill_worker")]

Actions are plain callables taking the hook's context dict.  The
module ships the ones the failure suite needs: :func:`kill_worker`
(SIGKILL the worker a message is about to be sent to — a crash
*mid-batch*, between send and reply), :func:`unlink_segment` (make the
upcoming shared-memory attach fail), :func:`delay` (hold the point
long enough for a deadline to lapse), and :func:`raise_error` (the
injected fault *is* the exception).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable

from repro import hooks

__all__ = [
    "FaultPlan",
    "delay",
    "kill_worker",
    "raise_error",
    "unlink_segment",
]


def kill_worker(context: dict) -> None:
    """SIGKILL the pool worker named in a ``process.send`` context —
    the parent discovers the death when it tries to use the pipe,
    exactly like a real mid-batch crash."""
    worker = context["worker"]
    os.kill(worker.proc.pid, signal.SIGKILL)
    worker.proc.join(timeout=5.0)


def unlink_segment(context: dict) -> None:
    """Unlink the shared-memory segment named in the context before
    whoever fired the hook attaches it, forcing the attach to fail."""
    segment = shared_memory.SharedMemory(name=context["segment"])
    try:
        segment.unlink()
    finally:
        segment.close()


def delay(seconds: float) -> Callable[[dict], None]:
    """An action that simply holds the hook point for ``seconds`` —
    long enough for a caller-side deadline to lapse."""

    def action(context: dict) -> None:
        time.sleep(seconds)

    action.__name__ = f"delay({seconds})"
    return action


def raise_error(exc_factory: Callable[[], BaseException]) -> Callable[[dict], None]:
    """An action that raises — the exception propagates out of the
    hook point as if the underlying operation failed there."""

    def action(context: dict) -> None:
        raise exc_factory()

    action.__name__ = "raise_error"
    return action


@dataclass
class _Fault:
    point: str
    action: Callable[[dict], None]
    at: frozenset
    match: dict | None
    #: Occurrences of (point, match) seen so far — each fault counts
    #: only the firings its ``match`` filter accepts, so "the 2nd pnn
    #: send" means the 2nd *pnn* send regardless of other firings.
    seen: int = 0

    def matches(self, context: dict) -> bool:
        if self.match:
            for key, want in self.match.items():
                if context.get(key) != want:
                    return False
        return True


@dataclass
class FaultPlan:
    """A deterministic script of faults over hook occurrences.

    Each scripted fault counts occurrences among the firings its own
    ``match`` filter accepts, starting at 1, over the plan's installed
    lifetime — "the 2nd ``kind='pnn'`` send" is unaffected by how many
    other firings interleave.  ``fired`` records every triggered fault
    as ``(point, occurrence, action_name)`` so tests can assert the
    script actually ran (a plan that never fires is a broken test, not
    a passing one).
    """

    _faults: list[_Fault] = field(default_factory=list)
    _seen: dict = field(default_factory=dict)
    fired: list = field(default_factory=list)

    def script(
        self,
        point: str,
        action: Callable[[dict], None],
        *,
        at: int | tuple = 1,
        match: dict | None = None,
    ) -> "FaultPlan":
        """Arm ``action`` for the ``at``-th occurrence(s) of ``point``
        (optionally only when the context matches ``match``'s items).
        Returns ``self`` for chaining."""
        occurrences = (at,) if isinstance(at, int) else tuple(at)
        self._faults.append(
            _Fault(
                point=point,
                action=action,
                at=frozenset(occurrences),
                match=dict(match) if match else None,
            )
        )
        return self

    def _handle(self, point: str, context: dict) -> None:
        self._seen[point] = self._seen.get(point, 0) + 1
        for fault in self._faults:
            if fault.point != point or not fault.matches(context):
                continue
            fault.seen += 1
            if fault.at and fault.seen not in fault.at:
                continue
            self.fired.append(
                (point, fault.seen, getattr(fault.action, "__name__", "?"))
            )
            fault.action(context)

    def seen(self, point: str) -> int:
        """How many times ``point`` has fired while installed."""
        return self._seen.get(point, 0)

    def __enter__(self) -> "FaultPlan":
        hooks.install(self._handle)
        return self

    def __exit__(self, *exc) -> None:
        hooks.uninstall(self._handle)
