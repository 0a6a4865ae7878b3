"""Uncertainty pdf models over closed 1-D intervals.

The paper's model (Section I) bounds each uncertain attribute inside a
closed *uncertainty region* carrying an arbitrary pdf.  This module
provides the pdf families used in the paper and its experiments:

* :class:`UniformPdf` — the Long Beach workload (Section V-A) treats
  every interval as uniform;
* :class:`TruncatedGaussianPdf` — Section V-B experiment 5 uses
  Gaussians "approximated by a 300-bar histogram" with the mean at the
  interval centre and sigma = width / 6;
* :class:`HistogramPdf` — arbitrary histograms (Figure 1(b));
* :class:`TriangularPdf` and :class:`MixturePdf` — extra shapes used by
  tests and examples to exercise the "arbitrary pdf" claim.

Every pdf can be converted to a :class:`~repro.uncertainty.histogram.Histogram`
via :meth:`UncertaintyPdf.to_histogram`; the query engine operates on
that histogram form exclusively, exactly as the paper's implementation
does.  Objects take it, normalised, from
:meth:`UncertaintyPdf.normalized_histogram`, which the uniform and
truncated-Gaussian families compute in a single pass.
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np
from scipy.special import ndtr

from repro.uncertainty.histogram import Histogram, HistogramError

__all__ = [
    "UncertaintyPdf",
    "UniformPdf",
    "TruncatedGaussianPdf",
    "HistogramPdf",
    "TriangularPdf",
    "MixturePdf",
    "DEFAULT_GAUSSIAN_BARS",
]

#: Number of histogram bars the paper uses to discretise Gaussians.
DEFAULT_GAUSSIAN_BARS = 300


class UncertaintyPdf(abc.ABC):
    """A probability density supported on the closed interval [lo, hi]."""

    @property
    @abc.abstractmethod
    def lo(self) -> float:
        """Left end of the uncertainty region."""

    @property
    @abc.abstractmethod
    def hi(self) -> float:
        """Right end of the uncertainty region."""

    @abc.abstractmethod
    def to_histogram(self, bins: int | None = None) -> Histogram:
        """A normalised histogram representation of this pdf.

        For intrinsically piecewise-constant pdfs the result is exact
        and ``bins`` is ignored; for smooth pdfs the result matches the
        true cdf exactly at every bin edge.
        """

    def normalized_histogram(self) -> Histogram:
        """``self.to_histogram().normalized()``: the form objects hold.

        Families with a shorter route to the same arrays override this;
        an override returns them bit for bit and raises what the chain
        raises, checked in the chain's order.
        """
        return self.to_histogram().normalized()

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def cdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Cumulative distribution function of the *histogram* form."""
        return self.to_histogram().cdf(x)

    def pdf(self, x: float | np.ndarray) -> float | np.ndarray:
        """Density of the *histogram* form."""
        return self.to_histogram().pdf(x)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Samples drawn from the histogram form."""
        return self.to_histogram().sample(rng, size)

    def _validate_interval(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise HistogramError("uncertainty region must be finite")
        if not self.hi > self.lo:
            raise HistogramError("uncertainty region must have positive width")


class UniformPdf(UncertaintyPdf):
    """Uniform density on [lo, hi]; its histogram form is exact."""

    __slots__ = ("_lo", "_hi")

    def __init__(self, lo: float, hi: float) -> None:
        self._lo = float(lo)
        self._hi = float(hi)
        self._validate_interval()

    @property
    def lo(self) -> float:
        return self._lo

    @property
    def hi(self) -> float:
        return self._hi

    def to_histogram(self, bins: int | None = None) -> Histogram:
        if bins is None or bins <= 1:
            return Histogram.uniform(self._lo, self._hi)
        edges = np.linspace(self._lo, self._hi, bins + 1)
        return Histogram(edges, np.full(bins, 1.0 / (self._hi - self._lo)))

    def normalized_histogram(self) -> Histogram:
        # Histogram.uniform(lo, hi).normalized() in closed form: the
        # chain's float operations on one bar.  Of its checks, the
        # validated interval can fail only one: 1 / width overflowing.
        lo, hi = self._lo, self._hi
        width = hi - lo
        density = 1.0 / width
        if not math.isfinite(density):
            raise HistogramError("densities must be finite")
        density = density / (density * width)
        return Histogram._raw(
            np.array([lo, hi]), np.array([density]), np.array([0.0, density * width])
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"UniformPdf({self._lo:.6g}, {self._hi:.6g})"


class TruncatedGaussianPdf(UncertaintyPdf):
    """Gaussian truncated to [lo, hi], discretised into histogram bars.

    Parameters
    ----------
    lo, hi:
        Uncertainty region.
    mean:
        Defaults to the interval centre (the paper's setting).
    sigma:
        Defaults to ``(hi - lo) / 6`` (the paper's setting).
    bars:
        Number of histogram bars used by :meth:`to_histogram` when no
        explicit ``bins`` is requested; defaults to the paper's 300.
    """

    __slots__ = ("_lo", "_hi", "_mean", "_sigma", "_bars")

    def __init__(
        self,
        lo: float,
        hi: float,
        mean: float | None = None,
        sigma: float | None = None,
        bars: int = DEFAULT_GAUSSIAN_BARS,
    ) -> None:
        self._lo = float(lo)
        self._hi = float(hi)
        self._validate_interval()
        # Defaults from the float bounds (not the raw arguments), the
        # same expressions TruncatedGaussianDistance uses.
        self._mean = float(mean) if mean is not None else 0.5 * (self._lo + self._hi)
        self._sigma = float(sigma) if sigma is not None else (self._hi - self._lo) / 6.0
        if self._sigma <= 0:
            raise HistogramError("sigma must be positive")
        if bars < 1:
            raise HistogramError("bars must be >= 1")
        self._bars = int(bars)

    @property
    def lo(self) -> float:
        return self._lo

    @property
    def hi(self) -> float:
        return self._hi

    @property
    def mean_parameter(self) -> float:
        return self._mean

    @property
    def sigma(self) -> float:
        return self._sigma

    @property
    def bars(self) -> int:
        return self._bars

    def to_histogram(self, bins: int | None = None) -> Histogram:
        nbins = self._bars if bins is None else int(bins)
        if nbins < 1:
            raise HistogramError("bins must be >= 1")
        edges = np.linspace(self._lo, self._hi, nbins + 1)
        z = (edges - self._mean) / self._sigma
        cdf = ndtr(z)
        masses = np.diff(cdf)
        total = cdf[-1] - cdf[0]
        if total <= 0:
            raise HistogramError("truncation removed all Gaussian mass")
        return Histogram.from_masses(edges, masses / total)

    def normalized_histogram(self) -> Histogram:
        # to_histogram().normalized() in one pass: the same float
        # operations on the same arrays, each of the chain's checks
        # once and in its order, and each np.diff computed once.
        edges = np.linspace(self._lo, self._hi, self._bars + 1)
        cdf = ndtr((edges - self._mean) / self._sigma)
        total = cdf[-1] - cdf[0]
        if total <= 0:
            raise HistogramError("truncation removed all Gaussian mass")
        if not np.all(np.isfinite(edges)):
            raise HistogramError("edges must be finite")
        widths = np.diff(edges)
        if not np.all(widths > 0):
            raise HistogramError("edges must be strictly increasing")
        masses = np.diff(cdf) / total
        if np.any(masses < 0) or not np.all(np.isfinite(masses)):
            raise HistogramError("masses must be finite and non-negative")
        densities = masses / widths
        if not np.all(np.isfinite(densities)):
            raise HistogramError("densities must be finite")
        if np.any(densities < 0):
            raise HistogramError("densities must be non-negative")
        mass = float(np.cumsum(densities * widths)[-1])
        if mass <= 0:
            raise HistogramError("cannot normalise a zero-mass histogram")
        densities = densities / mass
        knots = np.concatenate(([0.0], np.cumsum(densities * widths)))
        return Histogram._raw(edges, densities, knots)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"TruncatedGaussianPdf([{self._lo:.6g}, {self._hi:.6g}], "
            f"mean={self._mean:.6g}, sigma={self._sigma:.6g}, bars={self._bars})"
        )


class HistogramPdf(UncertaintyPdf):
    """An arbitrary histogram pdf (Figure 1(b) of the paper)."""

    __slots__ = ("_histogram",)

    def __init__(
        self,
        edges: Sequence[float] | np.ndarray,
        masses_or_densities: Sequence[float] | np.ndarray,
        *,
        as_masses: bool = True,
    ) -> None:
        if as_masses:
            histogram = Histogram.from_masses(edges, masses_or_densities)
        else:
            histogram = Histogram(edges, masses_or_densities)
        if histogram.total_mass <= 0:
            raise HistogramError("histogram pdf must carry positive mass")
        self._histogram = histogram.normalized()

    @classmethod
    def from_histogram(cls, histogram: Histogram) -> "HistogramPdf":
        return cls(histogram.edges, histogram.densities, as_masses=False)

    @property
    def lo(self) -> float:
        return self._histogram.lo

    @property
    def hi(self) -> float:
        return self._histogram.hi

    def to_histogram(self, bins: int | None = None) -> Histogram:
        return self._histogram

    def __repr__(self) -> str:  # pragma: no cover
        return f"HistogramPdf({self._histogram!r})"


class TriangularPdf(UncertaintyPdf):
    """Triangular density with apex at ``mode``; discretised on demand."""

    __slots__ = ("_lo", "_hi", "_mode", "_bars")

    def __init__(self, lo: float, hi: float, mode: float | None = None, bars: int = 64):
        self._lo = float(lo)
        self._hi = float(hi)
        self._validate_interval()
        self._mode = float(mode) if mode is not None else 0.5 * (lo + hi)
        if not (self._lo <= self._mode <= self._hi):
            raise HistogramError("mode must lie inside the uncertainty region")
        if bars < 2:
            raise HistogramError("bars must be >= 2")
        self._bars = int(bars)

    @property
    def lo(self) -> float:
        return self._lo

    @property
    def hi(self) -> float:
        return self._hi

    @property
    def mode(self) -> float:
        return self._mode

    def _exact_cdf(self, x: np.ndarray) -> np.ndarray:
        lo, hi, mode = self._lo, self._hi, self._mode
        x = np.clip(x, lo, hi)
        width = hi - lo
        left = mode - lo
        right = hi - mode
        result = np.empty_like(x)
        rising = x <= mode
        if left > 0:
            result[rising] = (x[rising] - lo) ** 2 / (width * left)
        else:
            result[rising] = 0.0
        falling = ~rising
        if right > 0:
            result[falling] = 1.0 - (hi - x[falling]) ** 2 / (width * right)
        else:
            result[falling] = 1.0
        return result

    def to_histogram(self, bins: int | None = None) -> Histogram:
        nbins = self._bars if bins is None else int(bins)
        if nbins < 2:
            raise HistogramError("bins must be >= 2")
        # Keep the mode on the grid so both linear flanks are sampled.
        edges = np.unique(
            np.concatenate(
                (np.linspace(self._lo, self._hi, nbins + 1), [self._mode])
            )
        )
        masses = np.diff(self._exact_cdf(edges))
        return Histogram.from_masses(edges, np.clip(masses, 0.0, None))

    def __repr__(self) -> str:  # pragma: no cover
        return f"TriangularPdf({self._lo:.6g}, {self._hi:.6g}, mode={self._mode:.6g})"


class MixturePdf(UncertaintyPdf):
    """A finite mixture of component pdfs (multi-modal uncertainty)."""

    __slots__ = ("_components", "_weights")

    def __init__(
        self,
        components: Sequence[UncertaintyPdf],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not components:
            raise HistogramError("mixture requires at least one component")
        if weights is None:
            weights = [1.0 / len(components)] * len(components)
        if len(weights) != len(components):
            raise HistogramError("one weight per component required")
        weight_arr = np.asarray(weights, dtype=float)
        if np.any(weight_arr < 0) or weight_arr.sum() <= 0:
            raise HistogramError("weights must be non-negative with positive sum")
        self._components = tuple(components)
        self._weights = tuple(float(w) for w in weight_arr / weight_arr.sum())

    @property
    def lo(self) -> float:
        return min(component.lo for component in self._components)

    @property
    def hi(self) -> float:
        return max(component.hi for component in self._components)

    def to_histogram(self, bins: int | None = None) -> Histogram:
        parts = [component.to_histogram(bins) for component in self._components]
        return Histogram.mixture(parts, list(self._weights)).normalized()

    def __repr__(self) -> str:  # pragma: no cover
        return f"MixturePdf({len(self._components)} components)"
