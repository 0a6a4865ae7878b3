"""Mutable per-candidate verification state (bounds + labels).

During initialisation "all objects in the candidate set are labeled
unknown, and their probability bounds are set to [0, 1]" (Section
III-B).  Verifiers and refinement then tighten bounds — never widen
them — and the classifier relabels between stages.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.core.bounds import DEFAULT_BOUND_PAD
from repro.core.classifier import classify_arrays, label_from_code
from repro.core.types import AnswerRecords, Label

__all__ = ["CandidateStates"]

_UNKNOWN, _SATISFY, _FAIL = 0, 1, 2


class CandidateStates:
    """Parallel arrays of probability bounds and labels for candidates."""

    def __init__(self, keys: Sequence[Hashable], pad: float = DEFAULT_BOUND_PAD):
        self._keys = tuple(keys)
        n = len(self._keys)
        if n == 0:
            raise ValueError("candidate state requires at least one candidate")
        self.lower = np.zeros(n)
        self.upper = np.ones(n)
        self.labels = np.zeros(n, dtype=np.int8)
        self._pad = float(pad)

    @classmethod
    def stacked(cls, n: int, pad: float = DEFAULT_BOUND_PAD) -> "CandidateStates":
        """Fresh states of ``n`` rows without keys: the working arrays of
        a pass over many candidate sets, cut up by :meth:`part`."""
        states = cls.__new__(cls)
        states._keys = ()
        states.lower = np.zeros(n)
        states.upper = np.ones(n)
        states.labels = np.zeros(n, dtype=np.int8)
        states._pad = float(pad)
        return states

    def part(self, start: int, stop: int, keys: Sequence[Hashable]) -> "CandidateStates":
        """Rows ``[start, stop)`` as states of their own (copies), keyed
        by ``keys``."""
        states = type(self).__new__(type(self))
        states._keys = tuple(keys)
        states.lower = self.lower[start:stop].copy()
        states.upper = self.upper[start:stop].copy()
        states.labels = self.labels[start:stop].copy()
        states._pad = self._pad
        return states

    # ------------------------------------------------------------------

    @property
    def keys(self) -> tuple[Hashable, ...]:
        return self._keys

    @property
    def size(self) -> int:
        return self.labels.size

    @property
    def pad(self) -> float:
        return self._pad

    def unknown_mask(self) -> np.ndarray:
        return self.labels == _UNKNOWN

    def unknown_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == _UNKNOWN)

    @property
    def n_unknown(self) -> int:
        return int((self.labels == _UNKNOWN).sum())

    @property
    def unknown_fraction(self) -> float:
        return self.n_unknown / self.size

    def label_of(self, index: int) -> Label:
        return label_from_code(self.labels[index])

    def satisfied_indices(self) -> np.ndarray:
        return np.flatnonzero(self.labels == _SATISFY)

    # ------------------------------------------------------------------

    def tighten(
        self,
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
        only_unknown: bool = True,
    ) -> None:
        """Intersect current bounds with newly computed ones.

        New values are widened by the pad before intersection so that
        floating-point rounding in verifier arithmetic can never
        exclude the true probability.  Following the paper, bounds of
        already-classified objects are left untouched by default.
        """
        mask = self.unknown_mask() if only_unknown else np.ones(self.size, bool)
        if lower is not None:
            candidate = np.clip(np.asarray(lower, dtype=float) - self._pad, 0.0, 1.0)
            self.lower[mask] = np.maximum(self.lower[mask], candidate[mask])
        if upper is not None:
            candidate = np.clip(np.asarray(upper, dtype=float) + self._pad, 0.0, 1.0)
            self.upper[mask] = np.minimum(self.upper[mask], candidate[mask])
        # Collapse hairline inversions caused by independent roundings.
        crossed = self.lower > self.upper
        if np.any(crossed):
            gap = self.lower[crossed] - self.upper[crossed]
            if np.any(gap > 1e-6):
                raise ValueError("inconsistent bounds produced by a verifier")
            midpoint = 0.5 * (self.lower[crossed] + self.upper[crossed])
            self.lower[crossed] = midpoint
            self.upper[crossed] = midpoint

    def set_exact(self, index: int, probability: float) -> None:
        """Collapse one candidate's bound to an exactly computed value."""
        lo = np.clip(probability - self._pad, 0.0, 1.0)
        hi = np.clip(probability + self._pad, 0.0, 1.0)
        # Exact computation supersedes earlier (padded) verifier bounds,
        # but must stay consistent with them.
        self.lower[index] = max(min(lo, self.upper[index]), min(self.lower[index], hi))
        self.upper[index] = min(max(hi, self.lower[index]), max(self.upper[index], lo))

    def to_records(self, exact: np.ndarray | None = None) -> AnswerRecords:
        """The final states as a result's record columns, handing the
        arrays over.  ``exact`` defaults to the midpoint of every bound
        that collapsed to within three pads, NaN elsewhere."""
        lower, upper = self.lower, self.upper
        if exact is None:
            settled = upper - lower <= 3 * self._pad
            exact = np.where(settled, 0.5 * (upper + lower), np.nan)
        return AnswerRecords(self._keys, self.labels, lower, upper, exact)

    def classify(self, threshold: float, tolerance: float) -> None:
        """Re-run the classifier on all still-unknown candidates."""
        mask = self.unknown_mask()
        if not np.any(mask):
            return
        codes = classify_arrays(self.lower, self.upper, threshold, tolerance)
        self.labels[mask] = codes[mask]
