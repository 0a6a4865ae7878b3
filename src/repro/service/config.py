"""Service tuning knobs: coalescing, admission, deadlines, retries."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ServiceConfig"]


@dataclass
class ServiceConfig:
    """Tuning knobs for :class:`~repro.service.QueryService`.

    Attributes
    ----------
    coalesce_window_s:
        Inert since 4.1.0: accepted and validated, never read.
    max_batch:
        Hard cap on queries per micro-batch.  Batches are whatever
        queued behind the engine call in flight (one query when the
        engine was idle); 1 ships every query alone, the naive
        baseline.
    max_queue:
        Admission bound: requests beyond this many waiting are shed
        with :class:`~repro.service.errors.QueueFull` instead of
        building an unbounded backlog whose tail latency nobody can
        meet.
    default_deadline_s:
        Deadline applied to requests that don't carry their own
        (``None`` = no deadline).
    default_epsilon:
        ε-early-answer tolerance for requests that don't carry their
        own.  0 (the default) keeps every answer exact: a missed
        deadline is a :class:`~repro.service.errors.DeadlineExceeded`,
        never a silently loosened result.
    retry_limit:
        How many times a failed engine dispatch is retried before the
        request fails with
        :class:`~repro.service.errors.RequestFailed`.
    retry_backoff_s / retry_backoff_factor:
        First retry delay and its multiplier (exponential backoff).
    deadline_chunk:
        When a batch carries deadlines, execute at most this many
        queries per engine call so expiry is re-checked between chunks
        (one huge batch would hold every answer hostage to the
        earliest deadline).
    """

    coalesce_window_s: float = 0.002
    max_batch: int = 64
    max_queue: int = 256
    default_deadline_s: float | None = None
    default_epsilon: float = 0.0
    retry_limit: int = 2
    retry_backoff_s: float = 0.01
    retry_backoff_factor: float = 2.0
    deadline_chunk: int = 16

    def __post_init__(self) -> None:
        if self.coalesce_window_s < 0:
            raise ValueError("coalesce_window_s must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive or None")
        if not 0.0 <= self.default_epsilon <= 1.0:
            raise ValueError("default_epsilon must lie in [0, 1]")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.retry_backoff_factor < 1.0:
            raise ValueError("retry_backoff_factor must be >= 1")
        if self.deadline_chunk < 1:
            raise ValueError("deadline_chunk must be >= 1")
