"""Sensor-noise and GPS-error scenario generators (DESIGN.md §15).

The paper motivates uncertain data with imprecise sensor readings and
location fixes (Section I).  These generators produce the two concrete
flavours the parametric subsystem models in closed form:

* :func:`sensor_noise_objects` — 1-D readings with truncated-Gaussian
  measurement noise; a fraction of the sensors are *bimodal* (a stale
  calibration mode next to the live one), exercising the mixture
  family.
* :func:`gps_ellipse_objects` — 2-D GPS fixes with anisotropic,
  k-sigma-truncated Gaussian error ellipses.

Both are deterministic given a seed and emit parametric objects by
default, so the engine's analytic fast path applies end-to-end with
zero histogram constructions; ``representation='histogram'`` (sensor
scenario only — the ellipse has no histogram twin) materialises the
equivalent eager objects for paper-faithful comparisons.
"""

from __future__ import annotations

import numpy as np

from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric.objects import (
    GaussianMixtureObject,
    GaussianObject,
    GpsEllipseObject,
)
from repro.uncertainty.pdfs import (
    DEFAULT_GAUSSIAN_BARS,
    MixturePdf,
    TruncatedGaussianPdf,
)
from repro.uncertainty.twod import DEFAULT_DISTANCE_BINS

__all__ = ["sensor_noise_objects", "gps_ellipse_objects"]

#: Default deterministic seed.
DEFAULT_SCENARIO_SEED = 20080199


def sensor_noise_objects(
    n: int,
    domain: tuple[float, float] = (0.0, 10_000.0),
    sigma_range: tuple[float, float] = (0.5, 4.0),
    k: float = 3.0,
    bimodal_fraction: float = 0.25,
    bimodal_offset: float = 6.0,
    bars: int = DEFAULT_GAUSSIAN_BARS,
    representation: str = "parametric",
    rng: np.random.Generator | None = None,
) -> list[UncertainObject]:
    """``n`` sensor readings with truncated-Gaussian noise.

    Each sensor reports a value uniform over ``domain`` with noise
    sigma log-uniform over ``sigma_range``, truncated at ``±k·sigma``.
    A ``bimodal_fraction`` of the sensors drift between two
    calibrations: their pdf is a two-component mixture whose second
    mode sits ``bimodal_offset`` sigmas away with 30% of the mass.

    ``representation='parametric'`` (default) returns
    :class:`GaussianObject` / :class:`GaussianMixtureObject` with
    closed-form distance laws; ``'histogram'`` returns the eager
    :class:`UncertainObject` equivalents.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 <= bimodal_fraction <= 1.0:
        raise ValueError("bimodal_fraction must lie in [0, 1]")
    if representation not in ("parametric", "histogram"):
        raise ValueError("representation must be 'parametric' or 'histogram'")
    rng = rng if rng is not None else np.random.default_rng(DEFAULT_SCENARIO_SEED)
    readings = rng.uniform(domain[0], domain[1], n)
    log_lo, log_hi = np.log(sigma_range[0]), np.log(sigma_range[1])
    sigmas = np.exp(rng.uniform(log_lo, log_hi, n))
    bimodal = rng.random(n) < bimodal_fraction
    objects: list[UncertainObject] = []
    for i in range(n):
        center, sigma = float(readings[i]), float(sigmas[i])
        lo, hi = center - k * sigma, center + k * sigma
        if not bimodal[i]:
            if representation == "parametric":
                objects.append(
                    GaussianObject(i, lo, hi, mean=center, sigma=sigma, bars=bars)
                )
            else:
                objects.append(
                    UncertainObject(
                        i,
                        TruncatedGaussianPdf(
                            lo, hi, mean=center, sigma=sigma, bars=bars
                        ),
                    )
                )
            continue
        stale = center + bimodal_offset * sigma
        components = (
            TruncatedGaussianPdf(lo, hi, mean=center, sigma=sigma, bars=bars),
            TruncatedGaussianPdf(
                stale - k * sigma,
                stale + k * sigma,
                mean=stale,
                sigma=sigma,
                bars=bars,
            ),
        )
        weights = (0.7, 0.3)
        if representation == "parametric":
            objects.append(GaussianMixtureObject(i, components, weights))
        else:
            objects.append(UncertainObject(i, MixturePdf(components, weights)))
    return objects


def gps_ellipse_objects(
    n: int,
    extent: tuple[float, float] = (0.0, 1_000.0),
    sigma_range: tuple[float, float] = (1.0, 12.0),
    anisotropy_range: tuple[float, float] = (0.25, 1.0),
    k: float = 3.0,
    distance_bins: int = DEFAULT_DISTANCE_BINS,
    rng: np.random.Generator | None = None,
) -> list[GpsEllipseObject]:
    """``n`` GPS fixes with anisotropic Gaussian error ellipses.

    Centres are uniform over ``extent`` squared; the major-axis sigma
    is log-uniform over ``sigma_range``, the minor axis shrinks it by
    a factor drawn from ``anisotropy_range`` (HDOP along-track vs
    cross-track asymmetry), and the orientation is uniform over
    ``[0, π)``.  Truncation is at ``k`` sigmas.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = rng if rng is not None else np.random.default_rng(DEFAULT_SCENARIO_SEED)
    centers = rng.uniform(extent[0], extent[1], size=(n, 2))
    log_lo, log_hi = np.log(sigma_range[0]), np.log(sigma_range[1])
    majors = np.exp(rng.uniform(log_lo, log_hi, n))
    minors = majors * rng.uniform(anisotropy_range[0], anisotropy_range[1], n)
    angles = rng.uniform(0.0, np.pi, n)
    return [
        GpsEllipseObject(
            i,
            centers[i],
            float(majors[i]),
            float(minors[i]),
            angle=float(angles[i]),
            k=k,
            distance_bins=distance_bins,
        )
        for i in range(n)
    ]
