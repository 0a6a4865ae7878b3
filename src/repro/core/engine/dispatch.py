"""Spec normalisation and the verifier chain, shared by hosts.

Every object that *executes* specs — the single
:class:`~repro.core.engine.UncertainEngine`, a
:class:`~repro.core.engine.sharded.ShardedEngine`, and the sharded
engine's internal execution lanes — needs the same small behaviours:
normalise a bare point into a default spec and hold the paper's
verifier chain.
:class:`SpecDispatchMixin` provides them; the host builds the chain
via :meth:`SpecDispatchMixin._init_chain`.
"""

from __future__ import annotations

from repro.core.types import CPNNQuery, QuerySpec
from repro.core.verifiers.chain import default_chain

__all__ = ["SpecDispatchMixin"]


class SpecDispatchMixin:
    """Spec normalisation + the host's verifier chain."""

    def _init_chain(self) -> None:
        """Build the RS → L-SR → U-SR chain once: verifiers are
        stateless, so per-query rebuilding would only add allocation to
        the hot path."""
        self._chain = default_chain()

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
