"""Distance pdfs and cdfs (Definition 2 of the paper).

For an uncertain object ``X_i`` and a query point ``q`` the random
variable ``R_i = |X_i - q|`` is the object's distance from the query.
Verifiers, refinement and the Basic method all operate purely on the
pdf ``d_i(r)`` and cdf ``D_i(r)`` of ``R_i`` — this is what lets the
1-D machinery extend to 2-D regions (Section IV-A).

A :class:`DistanceDistribution` also records the *near point* ``n_i``
and *far point* ``f_i`` (Definition 3): the minimum and maximum of the
distance's support, after zero-density margins are trimmed so that the
paper's assumption "the distance pdf of X_i has a non-zero value at any
point in U_i" is re-established mechanically.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.uncertainty.histogram import Histogram, HistogramError

__all__ = ["DistanceDistribution"]


def _normalised(histogram: Histogram) -> Histogram:
    """``histogram`` trimmed of zero-density margins and scaled to mass 1."""
    total = histogram.total_mass
    if total <= 0:
        raise HistogramError("distance histogram must carry positive mass")
    trimmed = histogram.trimmed()
    if abs(total - 1.0) > 1e-12:
        trimmed = trimmed.normalized()
    if trimmed.lo < -1e-12:
        raise HistogramError("distances must be non-negative")
    return trimmed


class DistanceDistribution:
    """The distribution of an object's distance from a query point.

    Parameters
    ----------
    histogram:
        Distance histogram; it is normalised and trimmed of
        zero-density margins on construction.
    key:
        Identifier of the owning uncertain object (carried through the
        pipeline so answers can name objects).
    """

    __slots__ = ("_histogram", "_key", "_value", "_q")

    def __init__(self, histogram: Histogram, key: Hashable = None) -> None:
        self._histogram = _normalised(histogram)
        self._key = key
        self._value = self._q = None

    # ------------------------------------------------------------------

    @property
    def key(self) -> Hashable:
        return self._key

    @property
    def histogram(self) -> Histogram:
        """The distance histogram.  A :meth:`from_value_histogram` row
        folds here on first use (scalar ``Histogram.fold_abs``); the
        fold is a pure function of ``(value histogram, q)``, so threads
        racing to materialise one row store the same bits."""
        if self._histogram is None:
            self._histogram = _normalised(self._value.fold_abs(self._q))
        return self._histogram

    @property
    def near(self) -> float:
        """Near point ``n_i`` — the minimum possible distance."""
        return self.histogram.lo

    @property
    def far(self) -> float:
        """Far point ``f_i`` — the maximum possible distance."""
        return self.histogram.hi

    @property
    def interval(self) -> tuple[float, float]:
        """The interval ``U_i = [n_i, f_i]``."""
        return (self.near, self.far)

    @property
    def breakpoints(self) -> np.ndarray:
        """Points where the distance pdf changes value."""
        return self.histogram.edges

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DistanceDistribution(key={self._key!r}, "
            f"near={self.near:.6g}, far={self.far:.6g}, "
            f"nbins={self.histogram.nbins})"
        )

    # ------------------------------------------------------------------

    def pdf(self, r: float | np.ndarray) -> float | np.ndarray:
        """Distance pdf ``d_i(r)``."""
        return self.histogram.pdf(r)

    def cdf(self, r: float | np.ndarray) -> float | np.ndarray:
        """Distance cdf ``D_i(r)`` (piecewise linear)."""
        return self.histogram.cdf(r)

    def sf(self, r: float | np.ndarray) -> float | np.ndarray:
        """Survival ``1 - D_i(r)`` — used by every verifier product."""
        return 1.0 - self.histogram.cdf(r)

    def mass_between(self, a: float, b: float) -> float:
        """``Pr[a <= R_i <= b]`` — a subregion probability ``s_ij``."""
        return self.histogram.mass_between(a, b)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw iid distances (used by the Monte-Carlo baseline)."""
        return self.histogram.sample(rng, size)

    def overlaps(self, a: float, b: float) -> bool:
        """Whether ``U_i`` intersects the open interval ``(a, b)``."""
        return self.near < b and self.far > a

    # ------------------------------------------------------------------

    @classmethod
    def from_value_histogram(
        cls, histogram: Histogram, q: float, key: Hashable = None
    ) -> "DistanceDistribution":
        """Fold a 1-D value histogram about ``q`` (Figure 6), exactly —
        on first use.

        Only ``(histogram, q, key)`` is recorded.  A
        :class:`~repro.uncertainty.columnar.DistributionPack` folds its
        unfolded rows in one kernel; a single row folds when
        :attr:`histogram` (``near``, ``cdf``, ``sample`` …) is read, to
        the bits an eager fold would give.  The one possible input error
        is raised here, with the constructor's message: the fold
        preserves mass and ``|x − q|`` cannot be negative.
        """
        if histogram.total_mass <= 0:
            raise HistogramError("distance histogram must carry positive mass")
        dist = cls.__new__(cls)
        dist._histogram, dist._key = None, key
        dist._value, dist._q = histogram, q
        return dist

    @classmethod
    def from_cdf(
        cls,
        cdf,
        lo: float,
        hi: float,
        bins: int,
        key: Hashable = None,
    ) -> "DistanceDistribution":
        """Discretise an exact distance cdf on [lo, hi] into ``bins`` bins.

        Used by the 2-D uncertainty regions, whose distance cdfs are
        known analytically (disk, segment) or via robust geometric
        integration (rectangle).  The histogram cdf agrees with ``cdf``
        exactly at every bin edge.
        """
        if not hi > lo:
            raise HistogramError("distance support must have positive width")
        return cls(Histogram.from_cdf(cdf, lo, hi, bins), key=key)
