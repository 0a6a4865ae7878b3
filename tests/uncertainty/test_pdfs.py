"""Unit tests for the pdf families."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import repro
from repro.uncertainty.histogram import Histogram, HistogramError
from repro.uncertainty.pdfs import (
    HistogramPdf,
    MixturePdf,
    TriangularPdf,
    TruncatedGaussianPdf,
    UniformPdf,
)


class TestUniformPdf:
    def test_histogram_form_is_exact(self):
        pdf = UniformPdf(1.0, 3.0)
        h = pdf.to_histogram()
        assert h.nbins == 1
        assert h.pdf(2.0) == pytest.approx(0.5)

    def test_explicit_bins(self):
        h = UniformPdf(0.0, 1.0).to_histogram(bins=4)
        assert h.nbins == 4
        assert h.total_mass == pytest.approx(1.0)

    def test_rejects_empty_interval(self):
        with pytest.raises(HistogramError):
            UniformPdf(1.0, 1.0)

    def test_cdf_delegates(self):
        assert UniformPdf(0.0, 2.0).cdf(1.0) == pytest.approx(0.5)


class TestTruncatedGaussianPdf:
    def test_paper_defaults(self):
        # Section V: mean at centre, sigma = width / 6, 300 bars.
        pdf = TruncatedGaussianPdf(0.0, 6.0)
        assert pdf.mean_parameter == pytest.approx(3.0)
        assert pdf.sigma == pytest.approx(1.0)
        assert pdf.bars == 300

    def test_histogram_mass_and_edges_match_phi(self):
        pdf = TruncatedGaussianPdf(0.0, 6.0, bars=50)
        h = pdf.to_histogram()
        assert h.total_mass == pytest.approx(1.0)
        # cdf at interval midpoint must equal the truncated Phi value.
        z = stats.norm.cdf
        expected = (z(0.0) - z(-3.0)) / (z(3.0) - z(-3.0))
        assert h.cdf(3.0) == pytest.approx(expected, abs=1e-12)

    def test_masses_are_the_scipy_stats_masses_bit_for_bit(self):
        """``to_histogram`` reads Phi through ``scipy.special.ndtr`` so
        that importing the package never loads ``scipy.stats``; its bars
        are the ones ``stats.norm.cdf`` gives, bit for bit."""
        rng = np.random.default_rng(183)
        for _ in range(50):
            lo = float(rng.uniform(-100.0, 100.0))
            hi = lo + float(rng.uniform(0.01, 50.0))
            mean = float(rng.uniform(lo - 5.0, hi + 5.0))
            sigma = float(rng.uniform(0.05, 20.0))
            bars = int(rng.integers(1, 400))
            pdf = TruncatedGaussianPdf(lo, hi, mean=mean, sigma=sigma, bars=bars)
            edges = np.linspace(lo, hi, bars + 1)
            cdf = stats.norm.cdf((edges - mean) / sigma)
            want = Histogram.from_masses(edges, np.diff(cdf) / (cdf[-1] - cdf[0]))
            got = pdf.to_histogram()
            assert np.array_equal(got.edges, want.edges)
            assert np.array_equal(got.densities, want.densities)

    def test_importing_the_package_leaves_scipy_stats_unloaded(self):
        code = "import sys, repro; sys.exit('scipy.stats' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_symmetry(self):
        h = TruncatedGaussianPdf(-2.0, 2.0, bars=40).to_histogram()
        assert h.cdf(0.0) == pytest.approx(0.5)
        assert h.pdf(-1.0) == pytest.approx(h.pdf(1.0 - 1e-9), rel=1e-6)

    def test_rejects_bad_sigma(self):
        with pytest.raises(HistogramError):
            TruncatedGaussianPdf(0.0, 1.0, sigma=0.0)

    def test_rejects_bad_bars(self):
        with pytest.raises(HistogramError):
            TruncatedGaussianPdf(0.0, 1.0, bars=0)


class TestHistogramPdf:
    def test_masses_are_normalised(self):
        pdf = HistogramPdf([0, 1, 2], [2.0, 6.0])
        h = pdf.to_histogram()
        assert h.total_mass == pytest.approx(1.0)
        assert h.cdf(1.0) == pytest.approx(0.25)

    def test_densities_mode(self):
        pdf = HistogramPdf([0, 1, 2], [0.5, 0.5], as_masses=False)
        assert pdf.to_histogram().total_mass == pytest.approx(1.0)

    def test_zero_mass_rejected(self):
        with pytest.raises(HistogramError):
            HistogramPdf([0, 1], [0.0])


class TestTriangularPdf:
    def test_cdf_at_mode(self):
        pdf = TriangularPdf(0.0, 2.0, mode=1.0, bars=64)
        h = pdf.to_histogram()
        assert h.cdf(1.0) == pytest.approx(0.5, abs=1e-9)
        assert h.total_mass == pytest.approx(1.0)

    def test_asymmetric_mode(self):
        pdf = TriangularPdf(0.0, 4.0, mode=1.0, bars=128)
        h = pdf.to_histogram()
        # P(X <= mode) = (mode - lo) / (hi - lo)
        assert h.cdf(1.0) == pytest.approx(0.25, abs=1e-9)

    def test_mode_outside_rejected(self):
        with pytest.raises(HistogramError):
            TriangularPdf(0.0, 1.0, mode=2.0)


class TestMixturePdf:
    def test_bimodal_mixture(self):
        mix = MixturePdf([UniformPdf(0.0, 1.0), UniformPdf(3.0, 4.0)], [0.3, 0.7])
        h = mix.to_histogram()
        assert h.total_mass == pytest.approx(1.0)
        assert h.cdf(2.0) == pytest.approx(0.3)
        assert mix.lo == 0.0 and mix.hi == 4.0

    def test_interior_zero_density(self):
        # Mixtures create the interior-gap pdfs our verifier products
        # must remain sound for (DESIGN.md §5).
        mix = MixturePdf([UniformPdf(0.0, 1.0), UniformPdf(3.0, 4.0)])
        h = mix.to_histogram()
        assert h.pdf(2.0) == 0.0

    def test_weight_validation(self):
        with pytest.raises(HistogramError):
            MixturePdf([UniformPdf(0, 1)], [-1.0])
        with pytest.raises(HistogramError):
            MixturePdf([], None)

    def test_sampling_respects_weights(self, rng):
        mix = MixturePdf([UniformPdf(0.0, 1.0), UniformPdf(3.0, 4.0)], [0.2, 0.8])
        samples = mix.sample(rng, 20_000)
        assert np.mean(samples < 2.0) == pytest.approx(0.2, abs=0.02)
