"""Property-based correctness of the parametric subsystem
(DESIGN.md §15): the analytic laws agree with dense histogram replicas
within a tolerance *derived from the replica's own resolution*, and
the uniform-disk fold is exactly the 2-D engine's."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric import (
    GaussianMixtureDistance,
    TruncatedGaussianDistance,
    UniformDiskDistance,
)
from repro.uncertainty.pdfs import MixturePdf, TruncatedGaussianPdf
from repro.uncertainty.twod import UncertainDisk

DENSE_BARS = 256


def replica_tolerance(histogram):
    """Histogram-replica cdf error bound: the fold can split at most
    two bins partially, so the gap to the analytic cdf is at most two
    bin masses of the replica."""
    masses = histogram.densities * np.diff(histogram.edges)
    return 2.0 * float(masses.max()) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    lo=st.floats(-30, 30),
    width=st.floats(0.5, 20),
    q_offset=st.floats(-25, 25),
)
def test_gaussian_cdf_matches_dense_replica(lo, width, q_offset):
    hi = lo + width
    q = lo + q_offset
    analytic = TruncatedGaussianDistance(q, lo, hi, key=0)
    replica = UncertainObject.gaussian(
        0, lo, hi, bars=DENSE_BARS
    ).distance_distribution(q)
    xs = np.linspace(analytic.near, analytic.far, 101)
    tol = replica_tolerance(replica.histogram)
    np.testing.assert_allclose(analytic.cdf(xs), replica.cdf(xs), atol=tol)
    assert replica.near == pytest.approx(analytic.near, abs=1e-9)
    assert replica.far == pytest.approx(analytic.far, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    lo=st.floats(-20, 20),
    widths=st.lists(st.floats(0.5, 8), min_size=2, max_size=4),
    gaps=st.lists(st.floats(0.0, 6), min_size=1, max_size=3),
    weights=st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4),
    q_offset=st.floats(-15, 30),
)
def test_mixture_cdf_matches_dense_replica(lo, widths, gaps, weights, q_offset):
    weights = weights[: len(widths)]
    while len(weights) < len(widths):
        weights.append(0.5)
    components, cursor = [], lo
    for i, width in enumerate(widths):
        components.append(
            TruncatedGaussianPdf(cursor, cursor + width, bars=DENSE_BARS)
        )
        cursor += width + gaps[i % len(gaps)]
    q = lo + q_offset
    analytic = GaussianMixtureDistance(q, components, weights=weights, key=0)
    replica = UncertainObject(
        0, MixturePdf(components, weights=weights)
    ).distance_distribution(q)
    xs = np.linspace(analytic.near, analytic.far, 101)
    tol = replica_tolerance(replica.histogram)
    np.testing.assert_allclose(analytic.cdf(xs), replica.cdf(xs), atol=tol)


@settings(max_examples=40, deadline=None)
@given(
    cx=st.floats(-20, 20),
    cy=st.floats(-20, 20),
    radius=st.floats(0.3, 8.0),
    qx=st.floats(-25, 25),
    qy=st.floats(-25, 25),
    bins=st.integers(8, 64),
)
def test_uniform_disk_fold_exact(cx, cy, radius, qx, qy, bins):
    """The analytic disk law materialises to the *same bytes* as the
    2-D engine's UncertainDisk fold — no new numerics were introduced."""
    analytic = UniformDiskDistance(
        (qx, qy), (cx, cy), radius, distance_bins=bins, key="d"
    )
    reference = UncertainDisk(
        "d", (cx, cy), radius, distance_bins=bins
    ).distance_distribution((qx, qy))
    np.testing.assert_array_equal(
        analytic.materialized().histogram.edges, reference.histogram.edges
    )
    np.testing.assert_array_equal(
        analytic.materialized().histogram.densities,
        reference.histogram.densities,
    )
    assert analytic.near == pytest.approx(reference.near, abs=1e-9)
    assert analytic.far == pytest.approx(reference.far, abs=1e-9)
