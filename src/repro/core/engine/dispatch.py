"""Spec normalisation, shared by hosts.

Every object that *executes* specs — the single
:class:`~repro.core.engine.UncertainEngine`, a
:class:`~repro.core.engine.sharded.ShardedEngine`, and the sharded
engine's internal execution lanes — needs the same small behaviours:
normalise a bare point into a default spec and name its execution
backend.  :class:`SpecDispatchMixin` provides them.
"""

from __future__ import annotations

from repro.core.types import CPNNQuery, QuerySpec

__all__ = ["SpecDispatchMixin"]


class SpecDispatchMixin:
    """Spec normalisation + the host's execution backend."""

    @staticmethod
    def _as_spec(spec) -> QuerySpec:
        """Normalise a bare point into a default CPNNQuery."""
        if isinstance(spec, QuerySpec):
            return spec
        return CPNNQuery(spec)

    def _executor_backend(self) -> str:
        """The resolved execution backend serving this host — the
        sharded engine's ``config.executor``, or ``"serial"`` for hosts
        with no parallel substrate (the single engine, the lanes)."""
        return getattr(self, "_backend", None) or "serial"
