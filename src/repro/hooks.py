"""Deterministic fault-injection points for the execution substrate.

Robustness code is only as good as its tests, and the failure modes the
engine must survive — a worker killed mid-batch, a reply that never
comes, a shared-memory segment whose name vanished between export and
attach — are all race-shaped.  This module turns them into *scripted*
events: the substrate calls :func:`fire` at a handful of named points,
and a test (or the service-level
:class:`~repro.service.faults.FaultInjector`) installs a handler that
acts at an exact occurrence — kill this process, sleep this long, raise
this error — making every failure deterministic and replayable.

When no handler is installed, :func:`fire` is a single truthiness check
on an empty list — the production hot path pays nothing measurable.

Points currently instrumented (callers pass keyword context):

====================  ==================================================
point                 fired
====================  ==================================================
``executor.dispatch``  before a parallel backend sends a work batch
                       (``backend=``, ``kind=`` ``"pnn"``,
                       ``executor=`` the backend instance)
``process.send``       before each per-worker work message
                       (``lane=``, ``kind=``, ``worker=`` the parent-
                       side :class:`_Worker`)
``process.recv``       before the parent waits on a worker's reply
                       (``lane=``, ``worker=``)
``process.attach``     after the coordinate segment is exported, before
                       workers attach (``segment=`` the name)
``shm.attach``         on every parent-side segment attach
                       (``segment=``)
``service.batch``      before the query service executes a coalesced
                       micro-batch (``size=``)
====================  ==================================================

A handler that *raises* injects that exception into the instrumented
code path; a handler that sleeps delays it; a handler that kills a
process referenced by the context simulates a crash.  Handlers run in
installation order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["fire", "handlers", "install", "reset", "uninstall"]

Handler = Callable[[str, dict], None]

_handlers: list[Handler] = []


def fire(point: str, **context) -> None:
    """Invoke every installed handler for ``point``.

    No-op (one list check) when nothing is installed.  Exceptions
    raised by a handler propagate into the caller — that *is* the
    injected fault.
    """
    if not _handlers:
        return
    for handler in list(_handlers):
        handler(point, context)


def install(handler: Handler) -> Handler:
    """Install a handler; returns it so callers can uninstall later."""
    _handlers.append(handler)
    return handler


def uninstall(handler: Handler) -> None:
    """Remove a previously installed handler (idempotent)."""
    try:
        _handlers.remove(handler)
    except ValueError:
        pass


def reset() -> None:
    """Drop every installed handler (test teardown safety net)."""
    _handlers.clear()


@contextmanager
def handlers(*to_install: Handler) -> Iterator[None]:
    """Scope handlers to a ``with`` block (always uninstalled on exit)."""
    for handler in to_install:
        install(handler)
    try:
        yield
    finally:
        for handler in to_install:
            uninstall(handler)
