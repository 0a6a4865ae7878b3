"""Closed-form distance distributions for truncated-Gaussian objects.

For a 1-D value distribution ``X`` with truncated-normal law on
``[lo, hi]`` and a query point ``q``, the distance ``R = |X - q|``
has the exact folded cdf

    D(r) = F(min(hi, q + r)) - F(max(lo, q - r))

where ``F`` is the truncated-normal cdf.  Everything here is a couple
of ``ndtr`` calls per evaluation — no 300-bar histogram, no fold.

:class:`GaussianMixtureDistance` is the weighted sum of component
folds; mixtures model multi-modal sensor error (a reading that is
usually near the truth but occasionally glitches to a biased mode).

Materialisation reproduces the histogram pipeline *exactly*:
``TruncatedGaussianPdf(...).to_histogram().normalized()`` folded about
``q`` is byte-identical to what
:meth:`UncertainObject.distance_distribution` builds, so fallbacks are
bit-for-bit comparable with the histogram engine.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from repro.uncertainty.distance import DistanceDistribution
from repro.uncertainty.parametric.base import (
    ParametricDistance,
    as_float_array,
    register_family,
    scalar_or_array,
)
from repro.uncertainty.pdfs import (
    DEFAULT_GAUSSIAN_BARS,
    MixturePdf,
    TruncatedGaussianPdf,
)

__all__ = ["GaussianMixtureDistance", "TruncatedGaussianDistance"]


@register_family
class TruncatedGaussianDistance(ParametricDistance):
    """Exact ``|X - q|`` distribution for a truncated-Gaussian object."""

    __slots__ = (
        "_q",
        "_lo",
        "_hi",
        "_mean",
        "_sigma",
        "_bars",
        "_phi_lo",
        "_denom",
        "_near",
        "_far",
    )

    family = "truncated_gaussian"

    def __init__(
        self,
        q: float,
        lo: float,
        hi: float,
        mean: float | None = None,
        sigma: float | None = None,
        bars: int = DEFAULT_GAUSSIAN_BARS,
        key: Hashable = None,
    ) -> None:
        super().__init__(key)
        if not hi > lo:
            raise ValueError("truncated Gaussian needs hi > lo")
        self._q = float(q)
        self._lo = float(lo)
        self._hi = float(hi)
        # Same default expressions as TruncatedGaussianPdf, so passing
        # the resolved values back to it materialises identically.
        self._mean = 0.5 * (lo + hi) if mean is None else float(mean)
        self._sigma = (hi - lo) / 6.0 if sigma is None else float(sigma)
        if self._sigma <= 0:
            raise ValueError("sigma must be positive")
        self._bars = int(bars)
        if self._bars < 1:
            raise ValueError("bars must be >= 1")
        self._phi_lo = float(ndtr((self._lo - self._mean) / self._sigma))
        phi_hi = float(ndtr((self._hi - self._mean) / self._sigma))
        self._denom = phi_hi - self._phi_lo
        if self._denom <= 0:
            raise ValueError("truncation interval carries no Gaussian mass")
        self._near = max(self._lo - self._q, self._q - self._hi, 0.0)
        self._far = max(self._q - self._lo, self._hi - self._q)

    # ------------------------------------------------------------------

    @property
    def near(self) -> float:
        return self._near

    @property
    def far(self) -> float:
        return self._far

    @property
    def q(self) -> float:
        return self._q

    def _value_cdf(self, x: np.ndarray) -> np.ndarray:
        """Truncated-normal ``F(x)``, clamped to the interval."""
        z = (np.clip(x, self._lo, self._hi) - self._mean) / self._sigma
        return np.clip((ndtr(z) - self._phi_lo) / self._denom, 0.0, 1.0)

    def cdf(self, r):
        arr, was_scalar = as_float_array(r)
        rr = np.maximum(arr, 0.0)
        values = self._value_cdf(self._q + rr) - self._value_cdf(self._q - rr)
        return scalar_or_array(np.clip(values, 0.0, 1.0), was_scalar)

    def pdf(self, r):
        arr, was_scalar = as_float_array(r)
        values = self._fold_density(self._q + arr) + self._fold_density(self._q - arr)
        values = np.where(arr < 0, 0.0, values)
        return scalar_or_array(values, was_scalar)

    def _fold_density(self, x: np.ndarray) -> np.ndarray:
        inside = (x >= self._lo) & (x <= self._hi)
        z = (x - self._mean) / self._sigma
        dens = np.exp(-0.5 * z * z) / (
            self._sigma * self._denom * np.sqrt(2.0 * np.pi)
        )
        return np.where(inside, dens, 0.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        x = self._mean + self._sigma * ndtri(self._phi_lo + u * self._denom)
        return np.abs(np.clip(x, self._lo, self._hi) - self._q)

    def knots(self) -> np.ndarray:
        pts = np.array([abs(self._q - self._lo), abs(self._q - self._hi)])
        return np.unique(pts[(pts > self._near) & (pts < self._far)])

    # ------------------------------------------------------------------

    def _materialize(self) -> DistanceDistribution:
        pdf = TruncatedGaussianPdf(
            self._lo, self._hi, mean=self._mean, sigma=self._sigma, bars=self._bars
        )
        return DistanceDistribution.from_value_histogram(
            pdf.to_histogram().normalized(), self._q, key=self._key
        )

    def pack_params(self) -> np.ndarray:
        return np.array(
            [self._q, self._lo, self._hi, self._mean, self._sigma, self._bars]
        )

    @classmethod
    def from_params(cls, params: np.ndarray) -> "TruncatedGaussianDistance":
        q, lo, hi, mean, sigma, bars = (float(v) for v in params)
        return cls(q, lo, hi, mean=mean, sigma=sigma, bars=int(bars))

    # ------------------------------------------------------------------
    # Family-level vectorisation: a column block of many rows
    # ------------------------------------------------------------------

    @staticmethod
    def columns(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(block, near, far)`` for the ``(6, n)`` parameter columns
        ``q, lo, hi, mean, sigma, bars`` (:meth:`pack_params`, transposed).

        ``block`` is ``(8, n)``: the parameters plus ``phi_lo`` and
        ``denom``.  Every value is the one :meth:`__init__` computes for
        the same row, bit for bit — two ``ndtr`` calls over all rows
        instead of two per row.
        """
        q, lo, hi, mean, sigma, _ = params
        phi_lo = ndtr((lo - mean) / sigma)
        denom = ndtr((hi - mean) / sigma) - phi_lo
        if np.any(denom <= 0):
            raise ValueError("truncation interval carries no Gaussian mass")
        # Python's max keeps the first of equal arguments; these
        # np.where chains replay it, signed zeros included.
        below, above = lo - q, q - hi
        near = np.where(above > below, above, below)
        near = np.where(0.0 > near, 0.0, near)
        left, right = q - lo, hi - q
        far = np.where(right > left, right, left)
        return np.vstack((params, phi_lo, denom)), near, far

    @staticmethod
    def knot_rows(block: np.ndarray, near: np.ndarray, far: np.ndarray) -> np.ndarray:
        """Every row's :meth:`knots`, pooled (unsorted, not deduplicated)."""
        q, lo, hi = block[:3]
        pts = np.concatenate((np.abs(q - lo), np.abs(q - hi)))
        near, far = np.concatenate((near, near)), np.concatenate((far, far))
        return pts[(pts > near) & (pts < far)]

    @staticmethod
    def cdf_rows(block: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """``(n, len(xs))`` cdf matrix of a :meth:`columns` block in a
        single ``ndtr`` sweep, in place over two buffers.

        Per element: ``F(x) = clip((ndtr((clip(x, lo, hi) − mean) / σ)
        − phi_lo) / denom, 0, 1)`` at ``x = q ± r``, and
        ``clip(F(q + r) − F(q − r), 0, 1)``.
        """
        q, lo, hi, mean, sigma, _, phi_lo, denom = block[:, :, None]
        rr = np.maximum(np.asarray(xs, dtype=float)[None, :], 0.0)
        upper, lower = np.add(q, rr), np.subtract(q, rr)
        for z in (upper, lower):
            np.clip(z, lo, hi, out=z)
            z -= mean
            z /= sigma
            ndtr(z, out=z)
            z -= phi_lo
            z /= denom
            np.clip(z, 0.0, 1.0, out=z)
        upper -= lower
        return np.clip(upper, 0.0, 1.0, out=upper)


@register_family
class GaussianMixtureDistance(ParametricDistance):
    """Weighted sum of truncated-Gaussian folds (multi-modal error)."""

    __slots__ = ("_components", "_weights", "_near", "_far")

    family = "gaussian_mixture"

    def __init__(
        self,
        q: float,
        components: Sequence[TruncatedGaussianPdf | TruncatedGaussianDistance],
        weights: Sequence[float] | None = None,
        key: Hashable = None,
    ) -> None:
        super().__init__(key)
        if not components:
            raise ValueError("a mixture needs at least one component")
        parts = []
        for comp in components:
            if isinstance(comp, TruncatedGaussianDistance):
                parts.append(
                    TruncatedGaussianDistance(
                        q,
                        comp._lo,
                        comp._hi,
                        mean=comp._mean,
                        sigma=comp._sigma,
                        bars=comp._bars,
                    )
                )
            else:
                parts.append(
                    TruncatedGaussianDistance(
                        q,
                        comp.lo,
                        comp.hi,
                        mean=comp.mean_parameter,
                        sigma=comp.sigma,
                        bars=comp.bars,
                    )
                )
        self._components = tuple(parts)
        if weights is None:
            weights = np.ones(len(parts))
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(parts),) or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        self._weights = w / w.sum()
        self._near = min(c.near for c in parts)
        self._far = max(c.far for c in parts)

    # ------------------------------------------------------------------

    @property
    def near(self) -> float:
        return self._near

    @property
    def far(self) -> float:
        return self._far

    @property
    def components(self) -> tuple[TruncatedGaussianDistance, ...]:
        return self._components

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    @property
    def q(self) -> float:
        return self._components[0].q

    def cdf(self, r):
        arr, was_scalar = as_float_array(r)
        total = np.zeros_like(arr)
        for w, comp in zip(self._weights, self._components):
            total += w * comp.cdf(arr)
        return scalar_or_array(np.clip(total, 0.0, 1.0), was_scalar)

    def pdf(self, r):
        arr, was_scalar = as_float_array(r)
        total = np.zeros_like(arr)
        for w, comp in zip(self._weights, self._components):
            total += w * comp.pdf(arr)
        return scalar_or_array(total, was_scalar)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        choices = rng.choice(len(self._components), size=size, p=self._weights)
        out = np.empty(size)
        for i, comp in enumerate(self._components):
            mask = choices == i
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample(rng, count)
        return out

    def knots(self) -> np.ndarray:
        pts = [c.knots() for c in self._components]
        pts.append(np.array([c.near for c in self._components]))
        pts.append(np.array([c.far for c in self._components]))
        merged = np.unique(np.concatenate(pts))
        return merged[(merged > self._near) & (merged < self._far)]

    # ------------------------------------------------------------------

    def _materialize(self) -> DistanceDistribution:
        pdfs = [
            TruncatedGaussianPdf(
                c._lo, c._hi, mean=c._mean, sigma=c._sigma, bars=c._bars
            )
            for c in self._components
        ]
        mixture = MixturePdf(pdfs, self._weights)
        return DistanceDistribution.from_value_histogram(
            mixture.to_histogram().normalized(), self.q, key=self._key
        )

    def pack_params(self) -> np.ndarray:
        rows = [np.array([self.q, float(len(self._components))])]
        for w, c in zip(self._weights, self._components):
            rows.append(
                np.array([w, c._lo, c._hi, c._mean, c._sigma, float(c._bars)])
            )
        return np.concatenate(rows)

    @classmethod
    def from_params(cls, params: np.ndarray) -> "GaussianMixtureDistance":
        q = float(params[0])
        count = int(params[1])
        comps = []
        weights = []
        for i in range(count):
            w, lo, hi, mean, sigma, bars = params[2 + 6 * i : 8 + 6 * i]
            weights.append(float(w))
            comps.append(
                TruncatedGaussianPdf(
                    float(lo),
                    float(hi),
                    mean=float(mean),
                    sigma=float(sigma),
                    bars=int(bars),
                )
            )
        return cls(q, comps, weights)
