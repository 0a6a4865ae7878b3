"""Piecewise-constant densities ("histograms") and their calculus.

The paper represents every uncertainty pdf as a histogram and every
distance pdf as a histogram whose cdf is therefore piecewise linear
(Section IV-A).  This module provides that representation together with
the exact operations the query engine needs:

* evaluation of pdf/cdf/quantiles,
* *folding* a value histogram about a query point to obtain the
  distance histogram of ``|X - q|`` (Figure 6 of the paper),
* refinement of the breakpoint grid (used to build subregions),
* conservative rebinning and mixing.

All operations are exact for piecewise-constant inputs: no sampling or
numerical integration error is introduced anywhere in this module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["Histogram", "HistogramError"]

#: Relative tolerance used when deduplicating nearly-equal breakpoints.
_EDGE_RTOL = 1e-12

#: Absolute floor below which a bin width is treated as degenerate.
_EDGE_ATOL = 1e-15


class HistogramError(ValueError):
    """Raised when histogram inputs are structurally invalid."""


def _as_edge_array(values: Sequence[float] | np.ndarray) -> np.ndarray:
    edges = np.asarray(values, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise HistogramError("edges must be a 1-D array with at least two entries")
    if not np.all(np.isfinite(edges)):
        raise HistogramError("edges must be finite")
    if not np.all(np.diff(edges) > 0):
        raise HistogramError("edges must be strictly increasing")
    return edges


def _as_density_array(values: Sequence[float] | np.ndarray, nbins: int) -> np.ndarray:
    densities = np.asarray(values, dtype=float)
    if densities.shape != (nbins,):
        raise HistogramError(
            f"densities must have shape ({nbins},), got {densities.shape}"
        )
    if not np.all(np.isfinite(densities)):
        raise HistogramError("densities must be finite")
    if np.any(densities < 0):
        raise HistogramError("densities must be non-negative")
    return densities


def _dedupe_edges(edges: np.ndarray) -> np.ndarray:
    """Sort ``edges`` and drop entries closer than the numeric tolerance."""
    edges = np.sort(np.asarray(edges, dtype=float))
    if edges.size == 0:
        return edges
    scale = max(abs(float(edges[0])), abs(float(edges[-1])), 1.0)
    threshold = _EDGE_ATOL + _EDGE_RTOL * scale
    keep = np.empty(edges.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(edges), threshold, out=keep[1:])
    return edges[keep]


class Histogram:
    """A non-negative piecewise-constant function on a closed interval.

    Parameters
    ----------
    edges:
        Strictly increasing bin boundaries, shape ``(n + 1,)``.
    densities:
        Density value inside each bin, shape ``(n,)``.  Densities are
        per-unit-length, so the mass of bin ``i`` is
        ``densities[i] * (edges[i + 1] - edges[i])``.

    Notes
    -----
    A histogram is not required to integrate to one; use
    :meth:`normalized` to obtain a probability density.  The cdf is the
    piecewise-linear function interpolating the cumulative masses at the
    edges, exactly as the paper assumes ("the corresponding distance cdf
    is then a piecewise linear function", Section IV-A).
    """

    __slots__ = ("_edges", "_densities", "_cdf_knots")

    def __init__(
        self,
        edges: Sequence[float] | np.ndarray,
        densities: Sequence[float] | np.ndarray,
    ) -> None:
        self._edges = _as_edge_array(edges)
        self._densities = _as_density_array(densities, self._edges.size - 1)
        masses = self._densities * np.diff(self._edges)
        self._cdf_knots = np.concatenate(([0.0], np.cumsum(masses)))

    @classmethod
    def _raw(
        cls,
        edges: np.ndarray,
        densities: np.ndarray,
        cdf_knots: np.ndarray | None = None,
    ) -> "Histogram":
        """Internal fast constructor: skips validation.

        Used on the query hot path (distance folding, trimming,
        normalising) where the inputs are produced by this module and
        already satisfy the invariants; the public constructor keeps
        validating everything user-supplied.  ``cdf_knots``, when
        given, must be what the cumulative sum below would produce.
        """
        instance = cls.__new__(cls)
        instance._edges = edges
        instance._densities = densities
        if cdf_knots is None:
            masses = densities * np.diff(edges)
            cdf_knots = np.concatenate(([0.0], np.cumsum(masses)))
        instance._cdf_knots = cdf_knots
        return instance

    def _pdf_values(self, arr: np.ndarray) -> np.ndarray:
        """Vectorised pdf evaluation without scalar-conversion overhead."""
        idx = np.searchsorted(self._edges, arr, side="right") - 1
        np.clip(idx, 0, self._densities.size - 1, out=idx)
        values = self._densities[idx]
        inside = (arr >= self._edges[0]) & (arr <= self._edges[-1])
        return np.where(inside, values, 0.0)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def uniform(cls, lo: float, hi: float, mass: float = 1.0) -> "Histogram":
        """A single-bin histogram carrying ``mass`` uniformly on [lo, hi]."""
        if not hi > lo:
            raise HistogramError("uniform histogram requires hi > lo")
        return cls([lo, hi], [mass / (hi - lo)])

    @classmethod
    def from_masses(
        cls,
        edges: Sequence[float] | np.ndarray,
        masses: Sequence[float] | np.ndarray,
    ) -> "Histogram":
        """Build a histogram from per-bin probability masses."""
        edge_arr = _as_edge_array(edges)
        mass_arr = np.asarray(masses, dtype=float)
        if mass_arr.shape != (edge_arr.size - 1,):
            raise HistogramError("masses must have one entry per bin")
        if np.any(mass_arr < 0) or not np.all(np.isfinite(mass_arr)):
            raise HistogramError("masses must be finite and non-negative")
        return cls(edge_arr, mass_arr / np.diff(edge_arr))

    @classmethod
    def from_cdf(
        cls,
        cdf,
        lo: float,
        hi: float,
        bins: int,
    ) -> "Histogram":
        """Discretise a cdf callable into ``bins`` equal-width bins.

        The resulting histogram's cdf agrees with ``cdf`` exactly at
        every bin edge; mass inside a bin is spread uniformly.  This is
        how 2-D uncertainty regions are converted to distance
        histograms (Section IV-A notes the 1-D machinery only needs
        distance pdfs/cdfs).
        """
        if bins < 1:
            raise HistogramError("bins must be >= 1")
        edges = np.linspace(lo, hi, bins + 1)
        values = np.asarray([float(cdf(edge)) for edge in edges])
        masses = np.diff(values)
        masses = np.clip(masses, 0.0, None)
        return cls.from_masses(edges, masses)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def edges(self) -> np.ndarray:
        """Bin boundaries (read-only view)."""
        view = self._edges.view()
        view.flags.writeable = False
        return view

    @property
    def densities(self) -> np.ndarray:
        """Per-bin densities (read-only view)."""
        view = self._densities.view()
        view.flags.writeable = False
        return view

    @property
    def nbins(self) -> int:
        return self._densities.size

    @property
    def lo(self) -> float:
        return float(self._edges[0])

    @property
    def hi(self) -> float:
        return float(self._edges[-1])

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def masses(self) -> np.ndarray:
        """Probability mass inside each bin."""
        return np.diff(self._cdf_knots)

    @property
    def total_mass(self) -> float:
        return float(self._cdf_knots[-1])

    @property
    def cdf_knots(self) -> np.ndarray:
        """Cumulative mass at each edge (piecewise-linear cdf knots)."""
        view = self._cdf_knots.view()
        view.flags.writeable = False
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(nbins={self.nbins}, lo={self.lo:.6g}, hi={self.hi:.6g}, "
            f"mass={self.total_mass:.6g})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return np.array_equal(self._edges, other._edges) and np.array_equal(
            self._densities, other._densities
        )

    def __hash__(self) -> int:
        return hash((self._edges.tobytes(), self._densities.tobytes()))

    def is_close(self, other: "Histogram", tol: float = 1e-9) -> bool:
        """Approximate equality on a merged breakpoint grid."""
        grid = _dedupe_edges(np.concatenate((self._edges, other._edges)))
        mids = 0.5 * (grid[:-1] + grid[1:])
        return bool(
            np.allclose(self.pdf(mids), other.pdf(mids), atol=tol)
            and abs(self.lo - other.lo) <= tol
            and abs(self.hi - other.hi) <= tol
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def pdf(self, x: float | np.ndarray) -> np.ndarray | float:
        """Density at ``x`` (0 outside the support).

        At an interior breakpoint the value of the bin to the *right*
        is returned; at ``hi`` the last bin's value is returned.
        """
        arr = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._edges, arr, side="right") - 1
        idx = np.clip(idx, 0, self.nbins - 1)
        values = self._densities[idx]
        inside = (arr >= self._edges[0]) & (arr <= self._edges[-1])
        result = np.where(inside, values, 0.0)
        if np.isscalar(x):
            return float(result)
        return result

    def cdf(self, x: float | np.ndarray) -> np.ndarray | float:
        """Cumulative mass on ``(-inf, x]`` (piecewise linear)."""
        arr = np.asarray(x, dtype=float)
        result = np.interp(
            arr,
            self._edges,
            self._cdf_knots,
            left=0.0,
            right=self._cdf_knots[-1],
        )
        if np.isscalar(x):
            return float(result)
        return result

    def sf(self, x: float | np.ndarray) -> np.ndarray | float:
        """Survival function ``total_mass - cdf(x)``."""
        return self.total_mass - self.cdf(x)

    def ppf(self, u: float | np.ndarray) -> np.ndarray | float:
        """Generalised inverse of the cdf for ``u`` in [0, total_mass]."""
        arr = np.asarray(u, dtype=float)
        if np.any((arr < -1e-12) | (arr > self.total_mass + 1e-12)):
            raise HistogramError("ppf argument outside [0, total_mass]")
        arr = np.clip(arr, 0.0, self.total_mass)
        result = np.interp(arr, self._cdf_knots, self._edges)
        if np.isscalar(u):
            return float(result)
        return result

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` iid samples (inverse-cdf method)."""
        if self.total_mass <= 0:
            raise HistogramError("cannot sample from a zero-mass histogram")
        return np.asarray(self.ppf(rng.uniform(0.0, self.total_mass, size)))

    def mean(self) -> float:
        """First moment (of the normalised density)."""
        if self.total_mass <= 0:
            raise HistogramError("mean of a zero-mass histogram is undefined")
        left, right = self._edges[:-1], self._edges[1:]
        first = np.sum(self._densities * (right**2 - left**2) / 2.0)
        return float(first / self.total_mass)

    def variance(self) -> float:
        """Second central moment (of the normalised density)."""
        if self.total_mass <= 0:
            raise HistogramError("variance of a zero-mass histogram is undefined")
        left, right = self._edges[:-1], self._edges[1:]
        second = np.sum(self._densities * (right**3 - left**3) / 3.0)
        mu = self.mean()
        return float(second / self.total_mass - mu * mu)

    def mass_between(self, a: float, b: float) -> float:
        """Probability mass on the interval [a, b]."""
        if b < a:
            raise HistogramError("mass_between requires a <= b")
        return float(self.cdf(b) - self.cdf(a))

    # ------------------------------------------------------------------
    # Transformations (all exact)
    # ------------------------------------------------------------------

    def normalized(self) -> "Histogram":
        """Scale densities so that the total mass is one."""
        total = self.total_mass
        if total <= 0:
            raise HistogramError("cannot normalise a zero-mass histogram")
        return Histogram._raw(self._edges, self._densities / total)

    def scaled(self, factor: float) -> "Histogram":
        """Multiply all densities by a non-negative ``factor``."""
        if factor < 0:
            raise HistogramError("scale factor must be non-negative")
        return Histogram(self._edges, self._densities * factor)

    def shifted(self, offset: float) -> "Histogram":
        """Translate the support by ``offset``."""
        return Histogram(self._edges + offset, self._densities)

    def reflected(self) -> "Histogram":
        """The histogram of ``-X``."""
        return Histogram(-self._edges[::-1], self._densities[::-1])

    def trimmed(self) -> "Histogram":
        """Drop leading/trailing zero-density bins.

        The *near* and *far* points of a distance pdf (Definition 3)
        are the boundaries of the support where the density is actually
        positive, so zero-density margins must be removed before they
        are read off.
        """
        positive = np.flatnonzero(self._densities > 0)
        if positive.size == 0:
            raise HistogramError("cannot trim a zero-mass histogram")
        first, last = positive[0], positive[-1] + 1
        if first == 0 and last == self._densities.size:
            return self
        return Histogram._raw(
            self._edges[first : last + 1], self._densities[first:last]
        )

    def with_breakpoints(self, points: Iterable[float]) -> "Histogram":
        """Refine the grid to include ``points`` inside the support.

        The represented density function is unchanged; only the bin
        boundaries are subdivided.  Points outside the support are
        ignored.
        """
        extra = np.asarray(list(points), dtype=float)
        if extra.size == 0:
            return self
        extra = extra[(extra > self.lo) & (extra < self.hi)]
        if extra.size == 0:
            return self
        edges = _dedupe_edges(np.concatenate((self._edges, extra)))
        mids = 0.5 * (edges[:-1] + edges[1:])
        return Histogram._raw(edges, self._pdf_values(mids))

    def restricted(self, a: float, b: float) -> "Histogram":
        """The (unnormalised) restriction of the density to [a, b]."""
        if not b > a:
            raise HistogramError("restricted requires b > a")
        a = max(a, self.lo)
        b = min(b, self.hi)
        if not b > a:
            raise HistogramError("restriction interval misses the support")
        refined = self.with_breakpoints([a, b])
        edges = refined._edges
        lo_idx = int(np.searchsorted(edges, a, side="left"))
        hi_idx = int(np.searchsorted(edges, b, side="left"))
        # Guard against tolerance-level mismatches from deduplication.
        lo_idx = min(max(lo_idx, 0), edges.size - 2)
        hi_idx = min(max(hi_idx, lo_idx + 1), edges.size - 1)
        return Histogram(edges[lo_idx : hi_idx + 1], refined._densities[lo_idx:hi_idx])

    def rebinned(self, new_edges: Sequence[float] | np.ndarray) -> "Histogram":
        """Conservative (mass-preserving) rebinning onto ``new_edges``.

        ``new_edges`` must cover the support.  Mass falling into each
        new bin is computed exactly from the piecewise-linear cdf.
        """
        edges = _as_edge_array(new_edges)
        if edges[0] > self.lo + _EDGE_ATOL or edges[-1] < self.hi - _EDGE_ATOL:
            raise HistogramError("new edges must cover the support")
        masses = np.diff(np.asarray(self.cdf(edges)))
        return Histogram.from_masses(edges, np.clip(masses, 0.0, None))

    def fold_abs(self, q: float) -> "Histogram":
        """The exact histogram of the distance ``|X - q|``.

        This implements Figure 6 of the paper: mass on both sides of
        ``q`` is reflected onto the positive half-line and summed.  The
        result's breakpoints are ``{|e - q| : e in edges}`` (plus 0 when
        ``q`` lies inside the support), so the output is exact.
        """
        if self._densities.size == 1:
            # Closed form for the ubiquitous uniform case (Figure 6).
            lo = float(self._edges[0])
            hi = float(self._edges[-1])
            d = float(self._densities[0])
            if q <= lo:
                return Histogram._raw(np.asarray([lo - q, hi - q]), np.asarray([d]))
            if q >= hi:
                return Histogram._raw(np.asarray([q - hi, q - lo]), np.asarray([d]))
            near_side = min(q - lo, hi - q)
            far_side = max(q - lo, hi - q)
            if far_side - near_side <= _EDGE_ATOL + _EDGE_RTOL * max(far_side, 1.0):
                return Histogram._raw(
                    np.asarray([0.0, near_side]), np.asarray([2.0 * d])
                )
            return Histogram._raw(
                np.asarray([0.0, near_side, far_side]), np.asarray([2.0 * d, d])
            )
        candidates = np.abs(self._edges - q)
        if self._edges[0] < q < self._edges[-1]:
            candidates = np.concatenate((candidates, [0.0]))
        new_edges = _dedupe_edges(candidates)
        mids = 0.5 * (new_edges[:-1] + new_edges[1:])
        densities = self._pdf_values(q + mids) + self._pdf_values(q - mids)
        return Histogram._raw(new_edges, densities)

    @staticmethod
    def mixture(
        components: Sequence["Histogram"],
        weights: Sequence[float] | None = None,
    ) -> "Histogram":
        """Weighted pointwise sum of histograms on a merged grid."""
        if not components:
            raise HistogramError("mixture requires at least one component")
        if weights is None:
            weights = [1.0 / len(components)] * len(components)
        if len(weights) != len(components):
            raise HistogramError("one weight per component required")
        if any(w < 0 for w in weights):
            raise HistogramError("weights must be non-negative")
        edges = _dedupe_edges(
            np.concatenate([component._edges for component in components])
        )
        mids = 0.5 * (edges[:-1] + edges[1:])
        densities = np.zeros_like(mids)
        for weight, component in zip(weights, components):
            densities += weight * np.asarray(component.pdf(mids))
        return Histogram(edges, densities)
