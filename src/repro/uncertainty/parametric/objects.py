"""Spatial uncertain objects with parametric distance distributions.

These satisfy :class:`~repro.uncertainty.objects.SpatialUncertain`
*and* expose ``parametric_distance(q)``, which is what the engine's
parametric fast path probes for.  Each object defers every histogram
construction until something genuinely histogram-shaped is requested:

* :class:`GaussianObject` / :class:`GaussianMixtureObject` subclass
  :class:`UncertainObject` but skip its eager
  ``pdf.normalized_histogram()`` — the ``histogram`` property
  materialises on first access, byte-identically to the eager path
  (same pdf object, same method), so the standard pipeline and
  exact refinement see exactly what they would have seen.  Unpickling
  leaves it lazy too.
* :class:`ParametricDisk` extends :class:`UncertainDisk`, which never
  builds histograms eagerly anyway.
* :class:`GpsEllipseObject` is a new 2-D model with no histogram
  twin; its fallback materialises from the same analytic cdf.

``lo``/``hi``/``mbr`` come from the model parameters, not the
histogram, so R-tree filtering runs without materialising.  (If
normalisation would trim zero-mass edge bars, the parametric bounds
are the wider, *conservative* ones — filtering stays sound.)
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.index.geometry import Rect
from repro.uncertainty.distance import DistanceDistribution
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import (
    UncertainObject,
    _restore_slots,
    _scalar_query,
)
from repro.uncertainty.parametric.ellipse import (
    GpsEllipseDistance,
    ellipse_half_extents,
)
from repro.uncertainty.parametric.disk import UniformDiskDistance
from repro.uncertainty.parametric.gaussian import (
    GaussianMixtureDistance,
    TruncatedGaussianDistance,
)
from repro.uncertainty.pdfs import (
    DEFAULT_GAUSSIAN_BARS,
    MixturePdf,
    TruncatedGaussianPdf,
)
from repro.uncertainty.twod import (
    DEFAULT_DISTANCE_BINS,
    UncertainDisk,
    _as_point2d,
)

__all__ = [
    "GaussianMixtureObject",
    "GaussianObject",
    "GpsEllipseObject",
    "ParametricDisk",
]


class GaussianObject(UncertainObject):
    """Truncated-Gaussian object with a lazy histogram (DESIGN.md §15)."""

    __slots__ = ()

    #: Never a one-bar fold row: the histogram is lazy, and ``lo`` /
    #: ``hi`` come from the pdf, not from its edges.
    uniform_density = None

    def __init__(
        self,
        key: Hashable,
        lo: float,
        hi: float,
        mean: float | None = None,
        sigma: float | None = None,
        bars: int = DEFAULT_GAUSSIAN_BARS,
    ) -> None:
        # Deliberately no super().__init__: the base eagerly builds
        # the 300-bar histogram, which is the cost this class defers.
        self._key = key
        self._pdf = TruncatedGaussianPdf(lo, hi, mean=mean, sigma=sigma, bars=bars)
        self._histogram = None
        self._mbr = None

    @property
    def histogram(self) -> Histogram:
        if self._histogram is None:
            self._histogram = self._pdf.normalized_histogram()
        return self._histogram

    @property
    def lo(self) -> float:
        return self._pdf.lo

    @property
    def hi(self) -> float:
        return self._pdf.hi

    def distance_distribution(self, q) -> DistanceDistribution:
        """Histogram-path fold (materialises; the engine's fallback)."""
        return DistanceDistribution.from_value_histogram(
            self.histogram, _scalar_query(q), key=self._key
        )

    def parametric_distance(self, q) -> TruncatedGaussianDistance:
        """Closed-form ``|X - q|`` law — no histogram involved."""
        pdf = self._pdf
        return TruncatedGaussianDistance(
            _scalar_query(q),
            pdf.lo,
            pdf.hi,
            mean=pdf.mean_parameter,
            sigma=pdf.sigma,
            bars=pdf.bars,
            key=self._key,
        )

    def sample_distances(self, q, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` iid draws of ``|X - q|`` from the exact model."""
        return self.parametric_distance(q).sample(rng, n)

    # UncertainObject's __getstate__ (key and pdf); no eager rebuild.
    __setstate__ = _restore_slots


class GaussianMixtureObject(UncertainObject):
    """Mixture of truncated Gaussians with a lazy histogram."""

    __slots__ = ("_components", "_weights")

    uniform_density = None  # as for GaussianObject

    def __init__(
        self,
        key: Hashable,
        components: Sequence[TruncatedGaussianPdf],
        weights: Sequence[float] | None = None,
    ) -> None:
        self._key = key
        self._pdf = MixturePdf(components, weights)
        self._components = tuple(components)
        if weights is None:
            weights = np.ones(len(components))
        w = np.asarray(weights, dtype=float)
        self._weights = w / w.sum()
        self._histogram = None
        self._mbr = None

    @property
    def histogram(self) -> Histogram:
        if self._histogram is None:
            self._histogram = self._pdf.normalized_histogram()
        return self._histogram

    @property
    def lo(self) -> float:
        return self._pdf.lo

    @property
    def hi(self) -> float:
        return self._pdf.hi

    @property
    def components(self) -> tuple[TruncatedGaussianPdf, ...]:
        return self._components

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    def distance_distribution(self, q) -> DistanceDistribution:
        return DistanceDistribution.from_value_histogram(
            self.histogram, _scalar_query(q), key=self._key
        )

    def parametric_distance(self, q) -> GaussianMixtureDistance:
        return GaussianMixtureDistance(
            _scalar_query(q), self._components, self._weights, key=self._key
        )

    def sample_distances(self, q, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.parametric_distance(q).sample(rng, n)

    # UncertainObject's __getstate__ (key and pdf); no eager rebuild.
    __setstate__ = _restore_slots


class ParametricDisk(UncertainDisk):
    """Uniform disk whose distance law evaluates in closed form."""

    __slots__ = ()

    def parametric_distance(self, q) -> UniformDiskDistance:
        return UniformDiskDistance(
            q,
            self._center,
            self._radius,
            distance_bins=self._bins,
            key=self._key,
        )

    def sample_distances(self, q, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.parametric_distance(q).sample(rng, n)


class GpsEllipseObject:
    """GPS fix with anisotropic Gaussian error, k-sigma truncated.

    ``mindist``/``maxdist`` use the ellipse's axis-aligned bounding
    box — conservative on both sides, which is all R-tree filtering
    needs to stay sound.
    """

    __slots__ = (
        "_key",
        "_center",
        "_sigma_x",
        "_sigma_y",
        "_angle",
        "_k",
        "_bins",
        "_mbr",
    )

    def __init__(
        self,
        key: Hashable,
        center,
        sigma_x: float,
        sigma_y: float,
        angle: float = 0.0,
        k: float = 3.0,
        distance_bins: int = DEFAULT_DISTANCE_BINS,
    ) -> None:
        self._key = key
        self._center = _as_point2d(center)
        if sigma_x <= 0 or sigma_y <= 0:
            raise ValueError("sigma_x and sigma_y must be positive")
        if k <= 0:
            raise ValueError("k must be positive")
        self._sigma_x = float(sigma_x)
        self._sigma_y = float(sigma_y)
        self._angle = float(angle)
        self._k = float(k)
        self._bins = int(distance_bins)
        half_x, half_y = ellipse_half_extents(sigma_x, sigma_y, angle, k)
        self._mbr = Rect(
            [self._center[0] - half_x, self._center[1] - half_y],
            [self._center[0] + half_x, self._center[1] + half_y],
        )

    @property
    def key(self) -> Hashable:
        return self._key

    @property
    def center(self) -> np.ndarray:
        return self._center.copy()

    @property
    def sigma_x(self) -> float:
        return self._sigma_x

    @property
    def sigma_y(self) -> float:
        return self._sigma_y

    @property
    def angle(self) -> float:
        return self._angle

    @property
    def k(self) -> float:
        return self._k

    @property
    def mbr(self) -> Rect:
        return self._mbr

    def mindist(self, q) -> float:
        return self._mbr.mindist(q)

    def maxdist(self, q) -> float:
        return self._mbr.maxdist(q)

    def distance_distribution(self, q) -> DistanceDistribution:
        """Materialised fallback (no histogram twin exists to match)."""
        return self.parametric_distance(q).materialized()

    def parametric_distance(self, q) -> GpsEllipseDistance:
        return GpsEllipseDistance(
            q,
            self._center,
            self._sigma_x,
            self._sigma_y,
            angle=self._angle,
            k=self._k,
            distance_bins=self._bins,
            key=self._key,
        )

    def sample_distances(self, q, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.parametric_distance(q).sample(rng, n)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"GpsEllipseObject(key={self._key!r}, "
            f"center=({self._center[0]:.6g}, {self._center[1]:.6g}), "
            f"sigma=({self._sigma_x:.6g}, {self._sigma_y:.6g}), "
            f"angle={self._angle:.6g}, k={self._k:.6g})"
        )
