"""Spec normalisation and verifier-chain resolution, shared by hosts.

Every object that *executes* specs — the single
:class:`~repro.core.engine.UncertainEngine`, a
:class:`~repro.core.engine.sharded.ShardedEngine`, and the sharded
engine's internal execution lanes — needs the same three small
behaviours: normalise a bare point into a default spec, validate a
strategy name, and resolve the verifier chain serving a spec type
through the ``EngineConfig.pipeline`` hook.  :class:`SpecDispatchMixin` provides
them against two host attributes: ``_config`` (an
:class:`~repro.core.engine.config.EngineConfig`) and the chain slots
``_chain`` / ``_chains`` the host initialises via
:meth:`SpecDispatchMixin._init_chains`.
"""

from __future__ import annotations

from repro.core.engine.config import Strategy
from repro.core.types import CPNNQuery, QuerySpec
from repro.core.verifiers.chain import VerifierChain

__all__ = ["SpecDispatchMixin"]


class SpecDispatchMixin:
    """Spec/strategy normalisation + per-spec-type chain resolution."""

    def _init_chains(self) -> None:
        """Build the default verifier chain once (verifiers are
        stateless; see ``EngineConfig.chain_factory``) and the
        per-spec-type cache the ``pipeline`` hook fills."""
        self._chain = self._config.chain_factory()
        self._chains: dict[type, VerifierChain] = {}

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

    def _chain_for(self, spec_type: type) -> VerifierChain:
        """The verifier chain serving ``spec_type`` (pipeline hook)."""
        chain = self._chains.get(spec_type)
        if chain is None:
            custom = (
                self._config.pipeline(spec_type)
                if self._config.pipeline is not None
                else None
            )
            if custom is not None and not isinstance(custom, VerifierChain):
                raise TypeError(
                    "EngineConfig.pipeline must return a VerifierChain or None, "
                    f"got {type(custom).__name__}"
                )
            chain = custom if custom is not None else self._chain
            self._chains[spec_type] = chain
        return chain
