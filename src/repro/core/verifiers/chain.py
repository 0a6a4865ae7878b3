"""The verification framework of Figure 5: verifiers + classifier loop.

Verifiers run in ascending cost order.  After each one, freshly
computed bounds are intersected into the state (only for still-unknown
objects) and the classifier re-labels.  The chain stops as soon as
every candidate is labelled *satisfy* or *fail* — "it is not always
necessary for all verifiers to be executed" (Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery
from repro.core.verifiers.base import Verifier
from repro.core.verifiers.lsr import LowerSubregionVerifier
from repro.core.verifiers.rs import RightmostSubregionVerifier
from repro.core.verifiers.usr import UpperSubregionVerifier

__all__ = ["ChainOutcome", "VerifierChain", "default_chain"]


@dataclass
class ChainOutcome:
    """Diagnostics of one chain execution.

    ``unknown_after`` maps each verifier's name to the fraction of
    candidates still unknown after it ran — the exact series Figure 12
    plots.  Verifiers skipped due to early termination are absent.
    """

    unknown_after: dict[str, float] = field(default_factory=dict)
    executed: list[str] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        """True when verification alone settled every candidate."""
        if not self.unknown_after:
            return False
        return min(self.unknown_after.values()) == 0.0


class VerifierChain:
    """An ordered sequence of verifiers applied with re-classification."""

    def __init__(self, verifiers: Sequence[Verifier]) -> None:
        if not verifiers:
            raise ValueError("a chain needs at least one verifier")
        self._verifiers = tuple(sorted(verifiers, key=lambda v: v.cost_rank))

    @property
    def verifiers(self) -> tuple[Verifier, ...]:
        return self._verifiers

    def run(
        self,
        table: SubregionTable,
        states: CandidateStates,
        query: CPNNQuery,
    ) -> ChainOutcome:
        """Execute the chain until done or all verifiers have run."""
        outcome = ChainOutcome()
        states.classify(query.threshold, query.tolerance)
        for verifier in self._verifiers:
            if states.n_unknown == 0:
                break
            update = verifier.compute(table)
            states.tighten(lower=update.lower, upper=update.upper)
            states.classify(query.threshold, query.tolerance)
            outcome.executed.append(verifier.name)
            outcome.unknown_after[verifier.name] = states.unknown_fraction
        return outcome


def default_chain() -> VerifierChain:
    """The paper's chain: RS → L-SR → U-SR (Figure 5)."""
    return VerifierChain(
        [
            RightmostSubregionVerifier(),
            LowerSubregionVerifier(),
            UpperSubregionVerifier(),
        ]
    )
