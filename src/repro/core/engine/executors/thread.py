"""Thread-pool execution: the lanes behind the executor contract.

The Python-heavy C-PNN verification only overlaps on free-threaded
(3.13t+) builds, which ``executor="auto"`` detects — on GIL builds the
process backend is the one that buys verification real cores
(DESIGN.md §13).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout

from repro import hooks
from repro.core.engine.executors.base import (
    ExecutionTimeout,
    ExecutorBase,
    check_cancel,
)

__all__ = ["ThreadExecutor"]


class ThreadExecutor(ExecutorBase):
    """Run work items on a lazily created shared thread pool.

    Single-item dispatches (every dispatch of a one-lane host) run
    inline — same bits, no pool round-trip.  Distinct items never share
    mutable state (disjoint lanes), so no locks are needed.  When the
    host carries an active deadline scope, result collection waits at
    most the remaining budget; not-started items are cancelled and
    :class:`ExecutionTimeout
    <repro.core.engine.executors.base.ExecutionTimeout>` propagates
    (already-running threads also poll the scope inside the C-PNN
    loops, so they unwind on their own).
    """

    name = "thread"

    def __init__(self, host) -> None:
        super().__init__(host)
        self._pool: ThreadPoolExecutor | None = None

    def _map(self, thunks: list) -> list:
        scope = getattr(self._host, "_cancel_scope", None)
        if len(thunks) <= 1:
            results = []
            for thunk in thunks:
                check_cancel(self._host)
                results.append(thunk())
            return results
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._host.n_shards,
                thread_name_prefix="repro-shard",
            )
        futures = [self._pool.submit(thunk) for thunk in thunks]
        results = []
        try:
            for future in futures:
                if scope is None:
                    results.append(future.result())
                else:
                    try:
                        results.append(future.result(timeout=scope.remaining()))
                    except _FutureTimeout:
                        raise ExecutionTimeout(
                            "deadline expired waiting on thread-pool items"
                        ) from None
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        return results

    def run_pnn(self, items, staged) -> list:
        hooks.fire(
            "executor.dispatch", backend=self.name, kind="pnn", executor=self
        )
        return self._map(
            [
                (lambda it=item: self._host._run_pnn_item(it, staged))
                for item in items
            ]
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def stats(self) -> dict:
        return {
            "backend": self.name,
            "workers": self._host.n_shards,
            "pool_live": self._pool is not None,
        }
