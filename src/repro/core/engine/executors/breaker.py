"""Circuit breaker: degrade the backend chain when the pool is sick.

A worker pool that keeps losing workers is worse than no pool: every
dispatch pays spawn + attach + retry for answers the inline path would
have produced directly.  The breaker watches dispatch health at the
:class:`~repro.core.engine.sharded.ShardedEngine` level and walks the
degradation chain ``process → serial`` (starting from the configured
backend) after ``threshold`` consecutive unhealthy
dispatches.  Once degraded, ``probe_after`` consecutive healthy
dispatches earn one *probe*: a single dispatch routed at the next level
up.  A healthy probe heals one level; a sick one re-arms the streak.

Health is judged by the engine, not the backend: a dispatch is
unhealthy when the backend raised, or when its failure counters moved
(worker deaths absorbed by inline retry still count — the answers were
right, but the pool wasn't).  :class:`ExecutionTimeout
<repro.core.engine.executors.base.ExecutionTimeout>` is deliberately
*not* a health verdict — a caller-imposed deadline says nothing about
the pool — so those dispatches call :meth:`CircuitBreaker.abort`.

Bit-identity is untouched by any of this: every level of the chain runs
the same pipeline (DESIGN.md §13); the breaker only moves *where*.
"""

from __future__ import annotations

__all__ = ["CircuitBreaker", "degradation_chain"]


def degradation_chain(configured: str) -> tuple[str, ...]:
    """The fallback order starting at ``configured`` (resolved name)."""
    order = ("process", "serial")
    if configured not in order:
        raise ValueError(f"unknown backend {configured!r}")
    return order[order.index(configured):]


class CircuitBreaker:
    """Consecutive-failure degradation with probe-based healing."""

    def __init__(
        self, configured: str, *, threshold: int = 3, probe_after: int = 8
    ) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if probe_after < 1:
            raise ValueError("probe_after must be >= 1")
        self._chain = degradation_chain(configured)
        self._threshold = int(threshold)
        self._probe_after = int(probe_after)
        self._level = 0
        self._failures = 0
        self._streak = 0
        self._probing = False
        self._trips = 0
        self._heals = 0

    @property
    def backend(self) -> str:
        """The backend the *next* non-probe dispatch runs on."""
        return self._chain[self._level]

    @property
    def configured(self) -> str:
        return self._chain[0]

    @property
    def degraded(self) -> bool:
        return self._level > 0

    def begin(self) -> str:
        """Pick the backend for one dispatch (may start a heal probe)."""
        if (
            self._level > 0
            and not self._probing
            and self._streak >= self._probe_after
        ):
            self._probing = True
        if self._probing:
            return self._chain[self._level - 1]
        return self._chain[self._level]

    def record(self, healthy: bool) -> str | None:
        """Report the dispatch begun by :meth:`begin`.

        Returns ``"degraded"`` / ``"healed"`` when the level moved (so
        the engine can close a pool it just walked away from), else
        ``None``.
        """
        if self._probing:
            self._probing = False
            self._streak = 0
            self._failures = 0
            if healthy:
                self._level -= 1
                self._heals += 1
                return "healed"
            return None
        if healthy:
            self._streak += 1
            self._failures = 0
            return None
        self._failures += 1
        self._streak = 0
        if (
            self._failures >= self._threshold
            and self._level < len(self._chain) - 1
        ):
            self._level += 1
            self._failures = 0
            self._trips += 1
            return "degraded"
        return None

    def abort(self) -> None:
        """The dispatch ended without a health verdict (deadline
        expiry): forget any probe, keep every counter."""
        self._probing = False

    def snapshot(self) -> dict:
        """JSON-friendly state for ``stats()`` / ``explain()``."""
        if self._level == 0:
            state = "closed"
        elif self._probing:
            state = "probing"
        else:
            state = "degraded"
        return {
            "state": state,
            "configured": self._chain[0],
            "active": self.backend,
            "chain": list(self._chain),
            "consecutive_failures": self._failures,
            "healthy_streak": self._streak,
            "trips": self._trips,
            "heals": self._heals,
        }
