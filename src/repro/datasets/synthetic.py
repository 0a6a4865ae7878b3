"""Synthetic interval workloads with controllable overlap structure.

All generators return lists of
:class:`~repro.uncertainty.objects.UncertainObject`; overlap between
uncertainty regions is the primary cost driver for PNN evaluation
(more overlap → larger candidate sets → more verifier/refinement
work), so every generator exposes it directly via interval lengths and
center clustering.
"""

from __future__ import annotations

import numpy as np

from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric.objects import GaussianObject
from repro.uncertainty.pdfs import DEFAULT_GAUSSIAN_BARS

__all__ = [
    "uniform_intervals",
    "clustered_intervals",
    "interval_objects",
    "mixed_pdf_objects",
]

#: Representations an interval generator can emit for Gaussian pdfs.
REPRESENTATIONS = ("parametric", "histogram")


def _lengths(
    n: int,
    mean_length: float,
    min_length: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Skewed (exponential) interval lengths with a hard minimum.

    Road-segment extents in TIGER files are heavily right-skewed;
    an exponential with a floor is the standard surrogate.
    """
    scale = max(mean_length - min_length, 1e-9)
    return min_length + rng.exponential(scale, n)


def interval_objects(
    centers: np.ndarray,
    lengths: np.ndarray,
    pdf: str = "uniform",
    bars: int = DEFAULT_GAUSSIAN_BARS,
    representation: str = "parametric",
) -> list[UncertainObject]:
    """Materialise interval objects with the requested pdf family.

    ``pdf`` is ``'uniform'`` (the Long Beach treatment) or
    ``'gaussian'`` (Section V-B experiment 5: mean at the centre,
    sigma = width / 6, ``bars``-bar histogram).

    ``representation`` selects how Gaussian objects are built:
    ``'parametric'`` (default) yields
    :class:`~repro.uncertainty.parametric.objects.GaussianObject` —
    closed-form distance law, histogram materialised lazily and
    byte-identically on demand — while ``'histogram'`` keeps the
    paper-faithful eager ``bars``-bar construction.  Uniform objects
    are unaffected (their histogram is a single bar either way).
    """
    if pdf not in ("uniform", "gaussian"):
        raise ValueError("pdf must be 'uniform' or 'gaussian'")
    if representation not in REPRESENTATIONS:
        raise ValueError("representation must be 'parametric' or 'histogram'")
    centers = np.asarray(centers)
    lengths = np.asarray(lengths)
    los = (centers - lengths / 2.0).tolist()
    his = (centers + lengths / 2.0).tolist()
    objects = []
    for i, (lo, hi) in enumerate(zip(los, his)):
        if pdf == "uniform":
            objects.append(UncertainObject.uniform(i, lo, hi))
        elif representation == "parametric":
            objects.append(GaussianObject(i, lo, hi, bars=bars))
        else:
            objects.append(UncertainObject.gaussian(i, lo, hi, bars=bars))
    return objects


def uniform_intervals(
    n: int,
    domain: tuple[float, float] = (0.0, 10_000.0),
    mean_length: float = 10.0,
    min_length: float = 0.5,
    pdf: str = "uniform",
    bars: int = DEFAULT_GAUSSIAN_BARS,
    representation: str = "parametric",
    rng: np.random.Generator | None = None,
) -> list[UncertainObject]:
    """``n`` intervals with uniformly distributed centers."""
    rng = rng or np.random.default_rng()
    centers = rng.uniform(domain[0], domain[1], n)
    lengths = _lengths(n, mean_length, min_length, rng)
    return interval_objects(
        centers, lengths, pdf=pdf, bars=bars, representation=representation
    )


def clustered_intervals(
    n: int,
    domain: tuple[float, float] = (0.0, 10_000.0),
    n_clusters: int = 40,
    cluster_spread: float = 120.0,
    mean_length: float = 10.0,
    min_length: float = 0.5,
    pdf: str = "uniform",
    bars: int = DEFAULT_GAUSSIAN_BARS,
    representation: str = "parametric",
    rng: np.random.Generator | None = None,
) -> list[UncertainObject]:
    """``n`` intervals whose centers cluster around random seeds.

    Mimics geographic data, where road segments crowd urban areas; a
    query landing inside a cluster sees a much denser candidate set
    than one landing between clusters.
    """
    rng = rng or np.random.default_rng()
    seeds = rng.uniform(domain[0], domain[1], n_clusters)
    assignment = rng.integers(0, n_clusters, n)
    centers = seeds[assignment] + rng.normal(0.0, cluster_spread, n)
    centers = np.clip(centers, domain[0], domain[1])
    lengths = _lengths(n, mean_length, min_length, rng)
    return interval_objects(
        centers, lengths, pdf=pdf, bars=bars, representation=representation
    )


def mixed_pdf_objects(
    n: int,
    domain: tuple[float, float] = (0.0, 1_000.0),
    mean_length: float = 20.0,
    min_length: float = 1.0,
    bars: int = 48,
    rng: np.random.Generator | None = None,
) -> list[UncertainObject]:
    """Intervals with a rotating mix of pdf families.

    Cycles uniform → Gaussian → random histogram, exercising the
    "arbitrary pdf" claim of the paper; used by integration and
    property tests.
    """
    rng = rng or np.random.default_rng()
    centers = rng.uniform(domain[0], domain[1], n)
    lengths = _lengths(n, mean_length, min_length, rng)
    objects: list[UncertainObject] = []
    for i, (center, length) in enumerate(zip(centers, lengths)):
        lo = float(center - length / 2.0)
        hi = float(center + length / 2.0)
        family = i % 3
        if family == 0:
            objects.append(UncertainObject.uniform(i, lo, hi))
        elif family == 1:
            objects.append(UncertainObject.gaussian(i, lo, hi, bars=bars))
        else:
            n_bins = int(rng.integers(2, 8))
            edges = np.linspace(lo, hi, n_bins + 1)
            masses = rng.uniform(0.05, 1.0, n_bins)
            masses /= masses.sum()
            histogram = Histogram.from_masses(edges, masses)
            objects.append(UncertainObject.from_histogram(i, histogram))
    return objects
