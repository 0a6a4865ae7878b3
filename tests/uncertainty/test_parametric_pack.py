"""Mixed-representation columnar pack: kernels and materialisation
(DESIGN.md §15)."""

import numpy as np
import pytest

from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric import (
    GaussianMixtureDistance,
    MixedDistributionPack,
    TruncatedGaussianDistance,
    UniformDiskDistance,
)
from repro.uncertainty.pdfs import TruncatedGaussianPdf


def mixed_rows():
    """Parametric and histogram rows interleaved in one candidate set."""
    q = 5.0
    rows = [
        TruncatedGaussianDistance(q, 2.0, 8.0, bars=24, key=0),
        UncertainObject.uniform(1, 3.0, 9.0).distance_distribution(q),
        GaussianMixtureDistance(
            q,
            [
                TruncatedGaussianPdf(0.0, 3.0, bars=16),
                TruncatedGaussianPdf(6.0, 9.0, bars=16),
            ],
            key=2,
        ),
        UncertainObject.gaussian(3, 1.0, 6.0, bars=20).distance_distribution(q),
        UniformDiskDistance((0.0, 0.0), (3.0, 4.0), 2.0, key=4),
        TruncatedGaussianDistance(q, -2.0, 1.0, bars=12, key=5),
    ]
    return rows


class TestMixedPackKernels:
    def test_partitioning(self):
        pack = MixedDistributionPack(mixed_rows())
        assert pack.size == 6
        assert pack.n_parametric == 4
        assert pack.n_histogram == 2

    def test_cdf_many_matches_per_row(self):
        rows = mixed_rows()
        pack = MixedDistributionPack(rows)
        xs = np.linspace(0.0, 12.0, 57)
        matrix = pack.cdf_many(xs)
        assert matrix.shape == (len(rows), xs.size)
        for i, dist in enumerate(rows):
            np.testing.assert_allclose(matrix[i], dist.cdf(xs), atol=1e-12)

    def test_sf_and_mass_between_many(self):
        rows = mixed_rows()
        pack = MixedDistributionPack(rows)
        xs = np.linspace(0.0, 12.0, 13)
        np.testing.assert_allclose(
            pack.sf_many(xs), 1.0 - pack.cdf_many(xs), atol=1e-12
        )
        masses = pack.mass_between_many(2.0, 7.0)
        for i, dist in enumerate(rows):
            expected = float(dist.cdf(7.0) - dist.cdf(2.0))
            assert masses[i] == pytest.approx(expected, abs=1e-12)

    def test_near_far_columns(self):
        rows = mixed_rows()
        pack = MixedDistributionPack(rows)
        for i, dist in enumerate(rows):
            near = getattr(dist, "near", None)
            if near is not None:
                assert pack.near[i] == pytest.approx(dist.near)
                assert pack.far[i] == pytest.approx(dist.far)

    def test_materialized_is_plain_pack(self):
        pack = MixedDistributionPack(mixed_rows())
        hist = pack.materialized()
        assert isinstance(hist, DistributionPack)
        assert hist is pack.materialized(), "must be memoised"
        xs = np.linspace(0.0, 12.0, 21)
        # Materialised kernels agree with the analytic ones up to the
        # histogram discretisation of the parametric rows.
        np.testing.assert_allclose(
            hist.cdf_many(xs), pack.cdf_many(xs), atol=0.2
        )

