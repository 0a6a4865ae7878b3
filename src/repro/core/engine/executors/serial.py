"""Inline execution: the bit-identity reference backend."""

from __future__ import annotations

from repro.core.engine.executors.base import ExecutorBase, check_cancel

__all__ = ["SerialExecutor"]


class SerialExecutor(ExecutorBase):
    """Run every work item inline on the calling thread.

    Exactly the single-engine evaluation order, lane by lane — the
    reference the parallel
    backends are asserted bit-identical against, the zero-overhead
    choice for tiny workloads, and the circuit breaker's last resort
    (it cannot lose a worker).  Deadlines are honoured at item
    boundaries (and inside the C-PNN per-query loops).
    """

    name = "serial"

    def run_pnn(self, items, staged) -> list:
        outcomes = []
        for item in items:
            check_cancel(self._host)
            outcomes.append(self._host._run_pnn_item(item, staged))
        return outcomes
