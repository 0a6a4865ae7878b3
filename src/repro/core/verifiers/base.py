"""Verifier interface: cheap algebraic bounds from a subregion table."""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.subregions import SubregionTable

__all__ = ["BoundUpdate", "Verifier"]


@dataclass(frozen=True)
class BoundUpdate:
    """Bounds a verifier produced for every candidate (row-aligned with
    the subregion table).  ``None`` means the verifier does not bound
    that side — e.g. RS only produces upper bounds."""

    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.lower is None and self.upper is None:
            raise ValueError("a bound update must bound at least one side")


class Verifier(abc.ABC):
    """A probabilistic verifier in the sense of Section IV.

    Subclasses are stateless; all shared quantities (subregion
    probabilities, edge cdfs, exclusion products) live in the
    :class:`~repro.core.subregions.SubregionTable`, mirroring the
    paper's observation that Y_j values computed by L-SR can be reused
    by U-SR (Appendix I).
    """

    #: Short name used in reports and Figure 12's series.
    name: str = "verifier"

    #: Position in the default chain; lower ranks run first (Table III
    #: orders verifiers by ascending running cost).
    cost_rank: int = 0

    @abc.abstractmethod
    def compute(self, table: SubregionTable) -> BoundUpdate:
        """Bounds for every candidate in ``table`` (vectorised)."""

    def __repr__(self) -> str:  # pragma: no cover
        return f"{type(self).__name__}()"
