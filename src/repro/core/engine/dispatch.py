"""Spec normalisation and the verifier chain, shared by hosts.

Every object that *executes* specs — the single
:class:`~repro.core.engine.UncertainEngine`, a
:class:`~repro.core.engine.sharded.ShardedEngine`, and the sharded
engine's internal execution lanes — needs the same small behaviours:
normalise a bare point into a default spec, validate a strategy name,
and hold the verifier chain ``EngineConfig.chain_factory`` builds.
:class:`SpecDispatchMixin` provides them against one host attribute,
``_config`` (an :class:`~repro.core.engine.config.EngineConfig`); the
host builds the chain via :meth:`SpecDispatchMixin._init_chain`.
"""

from __future__ import annotations

from repro.core.engine.config import Strategy
from repro.core.types import CPNNQuery, QuerySpec

__all__ = ["SpecDispatchMixin"]


class SpecDispatchMixin:
    """Spec/strategy normalisation + the host's verifier chain."""

    def _init_chain(self) -> None:
        """Build the verifier chain once (verifiers are stateless; see
        ``EngineConfig.chain_factory``)."""
        self._chain = self._config.chain_factory()

    @staticmethod
    def _as_spec(spec) -> QuerySpec:
        """Normalise a bare point into a default CPNNQuery."""
        if isinstance(spec, QuerySpec):
            return spec
        return CPNNQuery(spec)

    def _as_strategy(self, strategy: str | None) -> str:
        strategy = strategy or self._config.strategy
        if strategy not in Strategy.ALL:
            raise ValueError(f"unknown strategy {strategy!r}")
        return strategy

    def _executor_backend(self) -> str:
        """The resolved execution backend serving this host — the
        sharded engine's ``executor=`` knob, or ``"serial"`` for hosts
        with no parallel substrate (the single engine, the lanes)."""
        return getattr(self, "_backend", None) or "serial"
