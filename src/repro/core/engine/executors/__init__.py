"""Execution backends for the sharded engine (DESIGN.md §13).

The sharded engine *plans* C-PNN batches as serialized per-lane work
items; a backend from this package decides where they run — inline
(:class:`~repro.core.engine.executors.serial.SerialExecutor`) or on a
persistent spawn-based worker pool with shared-memory coordinate
segments
(:class:`~repro.core.engine.executors.process.ProcessExecutor`).
Both produce bit-identical answers; they differ only in where the
work happens and which caches stay warm.
"""

from __future__ import annotations

from repro.core.engine.executors.base import (
    BACKENDS,
    ExecutorBase,
    PnnItem,
    resolve_backend,
)
from repro.core.engine.executors.process import ProcessExecutor
from repro.core.engine.executors.serial import SerialExecutor

__all__ = [
    "BACKENDS",
    "ExecutorBase",
    "PnnItem",
    "ProcessExecutor",
    "SerialExecutor",
    "make_executor",
    "resolve_backend",
]

_EXECUTORS = {
    "serial": SerialExecutor,
    "process": ProcessExecutor,
}


def make_executor(backend: str, host) -> ExecutorBase:
    """Instantiate the backend named by a *resolved* ``config.executor``
    (``"auto"`` must already have gone through
    :func:`~repro.core.engine.executors.base.resolve_backend`)."""
    try:
        cls = _EXECUTORS[backend]
    except KeyError:
        raise ValueError(
            f"unknown executor backend {backend!r}: "
            f"expected one of {tuple(_EXECUTORS)}"
        ) from None
    return cls(host)
