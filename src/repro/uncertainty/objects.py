"""Uncertain objects in one-dimensional space (the paper's focus).

An :class:`UncertainObject` couples an identifier with an uncertainty
pdf over a closed interval.  It knows how to produce

* its minimum/maximum possible distance from a query point (used by
  R-tree filtering, Section III and [8]), and
* its full :class:`~repro.uncertainty.distance.DistanceDistribution`
  (used by verifiers and refinement).

Two-dimensional objects (disk/segment/rectangle regions) live in
:mod:`repro.uncertainty.twod` and satisfy the same
:class:`SpatialUncertain` protocol, so the whole query pipeline is
dimension-agnostic exactly as Section IV-A claims.
"""

from __future__ import annotations

from typing import Hashable, Protocol, runtime_checkable

from repro.index.geometry import Rect
from repro.uncertainty.distance import DistanceDistribution
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.pdfs import (
    DEFAULT_GAUSSIAN_BARS,
    HistogramPdf,
    TruncatedGaussianPdf,
    UncertaintyPdf,
    UniformPdf,
)

__all__ = ["SpatialUncertain", "UncertainObject"]


@runtime_checkable
class SpatialUncertain(Protocol):
    """What the query pipeline needs from an uncertain object."""

    @property
    def key(self) -> Hashable:
        """Stable identifier reported in query answers."""

    @property
    def mbr(self) -> Rect:
        """Minimum bounding rectangle of the uncertainty region."""

    def mindist(self, q) -> float:
        """Smallest possible distance from the query point."""

    def maxdist(self, q) -> float:
        """Largest possible distance from the query point."""

    def distance_distribution(self, q) -> DistanceDistribution:
        """The exact distribution of ``|X - q|``."""


def _slots_state(obj, reset=()):
    """Slot dict across the MRO, with ``reset`` names nulled out."""
    state = {
        slot: getattr(obj, slot)
        for cls in type(obj).__mro__
        for slot in getattr(cls, "__slots__", ())
    }
    for name in reset:
        state[name] = None
    return state


def _restore_slots(obj, state) -> None:
    """Inverse of :func:`_slots_state`."""
    for slot, value in state.items():
        setattr(obj, slot, value)


class UncertainObject:
    """A 1-D uncertain object: an identifier plus an interval pdf."""

    __slots__ = ("_key", "_pdf", "_histogram", "_mbr")

    def __init__(self, key: Hashable, pdf: UncertaintyPdf) -> None:
        self._key = key
        self._pdf = pdf
        self._histogram = pdf.normalized_histogram()
        self._mbr: Rect | None = None

    def __getstate__(self):
        # Key and pdf travel; the histogram and MBR are derived state.
        return _slots_state(self, reset=("_histogram", "_mbr"))

    def __setstate__(self, state):
        _restore_slots(self, state)
        # The method construction runs, so a round trip is bit-identical.
        self._histogram = self._pdf.normalized_histogram()

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def uniform(cls, key: Hashable, lo: float, hi: float) -> "UncertainObject":
        """An interval with a uniform pdf (the Long Beach workload)."""
        return cls(key, UniformPdf(lo, hi))

    @classmethod
    def gaussian(
        cls,
        key: Hashable,
        lo: float,
        hi: float,
        mean: float | None = None,
        sigma: float | None = None,
        bars: int = DEFAULT_GAUSSIAN_BARS,
    ) -> "UncertainObject":
        """A truncated-Gaussian object (Section V-B experiment 5)."""
        return cls(key, TruncatedGaussianPdf(lo, hi, mean=mean, sigma=sigma, bars=bars))

    @classmethod
    def from_histogram(cls, key: Hashable, histogram: Histogram) -> "UncertainObject":
        """An object with an arbitrary histogram pdf (Figure 1(b))."""
        return cls(key, HistogramPdf.from_histogram(histogram))

    # ------------------------------------------------------------------

    @property
    def key(self) -> Hashable:
        return self._key

    @property
    def pdf(self) -> UncertaintyPdf:
        return self._pdf

    @property
    def histogram(self) -> Histogram:
        """The normalised histogram form used by the engine."""
        return self._histogram

    @property
    def lo(self) -> float:
        return self._histogram.lo

    @property
    def hi(self) -> float:
        return self._histogram.hi

    @property
    def mbr(self) -> Rect:
        """Degenerate (1-D) bounding rectangle for indexing.

        Built once and cached: the object is immutable, and the
        dynamic-update paths touch ``mbr`` several times per mutation
        (index maintenance, batch-filter rows, cache invalidation).
        """
        if self._mbr is None:
            self._mbr = Rect.interval(self.lo, self.hi)
        return self._mbr

    @property
    def uniform_density(self) -> float | None:
        """The density of a pdf that is one uniform bar on ``[lo, hi]``
        — all Figure 6's closed-form fold needs beside the MBR — else
        ``None``."""
        densities = self._histogram._densities
        return float(densities[0]) if densities.size == 1 else None

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"UncertainObject(key={self._key!r}, "
            f"[{self.lo:.6g}, {self.hi:.6g}], pdf={type(self._pdf).__name__})"
        )

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------

    def mindist(self, q) -> float:
        """Near distance: 0 when ``q`` is inside the interval."""
        x = _scalar_query(q)
        return max(self.lo - x, x - self.hi, 0.0)

    def maxdist(self, q) -> float:
        """Far distance: distance to the farthest interval end."""
        x = _scalar_query(q)
        return max(x - self.lo, self.hi - x)

    def distance_distribution(self, q) -> DistanceDistribution:
        """Exact fold of the value histogram about ``q`` (Figure 6)."""
        x = _scalar_query(q)
        return DistanceDistribution.from_value_histogram(
            self._histogram, x, key=self._key
        )


def _scalar_query(q) -> float:
    """Accept a bare float or a length-1 sequence as a 1-D query point."""
    if hasattr(q, "__len__"):
        if len(q) != 1:
            raise ValueError("1-D uncertain objects require a 1-D query point")
        return float(q[0])
    return float(q)
