"""Object construction is the ``pdf.to_histogram().normalized()`` chain.

``UncertainObject`` (and the lazy ``histogram`` of the parametric
objects) builds its histogram through ``pdf.normalized_histogram()``,
which the uniform and truncated-Gaussian families compute in one pass.
Every array must ``tobytes()``-equal the chain's, and every input the
chain rejects must be rejected with the same exception type and
message — the first failing check wins on both sides, so inputs with
several faults pin the order of the checks too.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric import TruncatedGaussianDistance
from repro.uncertainty.parametric.objects import (
    GaussianMixtureObject,
    GaussianObject,
)
from repro.uncertainty.pdfs import (
    HistogramPdf,
    MixturePdf,
    TruncatedGaussianPdf,
    UniformPdf,
)


def outcome(build):
    """The histogram's three arrays as bytes, or the exception raised."""
    try:
        # Overflow warnings are not part of the contract; results are.
        with np.errstate(all="ignore"):
            histogram = build()
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    arrays = (histogram._edges, histogram._densities, histogram._cdf_knots)
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def assert_same_outcome(make_pdf, make_object):
    chain = outcome(lambda: make_pdf().to_histogram().normalized())
    assert outcome(lambda: make_pdf().normalized_histogram()) == chain
    assert outcome(lambda: make_object().histogram) == chain


#: Finite and non-finite bounds, ordinary and extreme magnitudes.
EDGE_VALUES = [
    0.0,
    -0.0,
    1.0,
    -3.5,
    1e6,
    1e-310,
    5e-324,
    1e300,
    -1e308,
    1e308,
    math.inf,
    -math.inf,
    math.nan,
]

bounds = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from(EDGE_VALUES),
)
widths = st.one_of(
    st.floats(min_value=1e-6, max_value=1e4),
    st.sampled_from([0.0, -1.0, 1e-310, 5e-324, 1e-12, math.inf, math.nan]),
)


class TestUniform:
    @given(lo=bounds, width=widths)
    def test_object_is_the_chain(self, lo, width):
        hi = lo + width
        assert_same_outcome(
            lambda: UniformPdf(lo, hi), lambda: UncertainObject.uniform(1, lo, hi)
        )

    @pytest.mark.parametrize(
        ("lo", "hi", "message"),
        [
            (2.0, 1.0, "uncertainty region must have positive width"),
            (1.0, 1.0, "uncertainty region must have positive width"),
            (math.nan, 1.0, "uncertainty region must be finite"),
            (0.0, math.inf, "uncertainty region must be finite"),
            # Non-finite beats an empty interval: the finite check runs first.
            (math.inf, -math.inf, "uncertainty region must be finite"),
            (0.0, 1e-310, "densities must be finite"),
        ],
    )
    def test_rejections_match(self, lo, hi, message):
        chain = outcome(lambda: UniformPdf(lo, hi).to_histogram().normalized())
        assert chain[1] == message
        assert outcome(lambda: UncertainObject.uniform(0, lo, hi).histogram) == chain


gaussian_bars = st.integers(min_value=1, max_value=300)


class TestTruncatedGaussian:
    @given(
        lo=st.floats(min_value=-1e4, max_value=1e4),
        width=st.floats(min_value=1e-6, max_value=1e3),
        offset=st.floats(min_value=-3.0, max_value=3.0),
        sigma_share=st.floats(min_value=1e-3, max_value=2.0),
        bars=gaussian_bars,
    )
    def test_object_is_the_chain(self, lo, width, offset, sigma_share, bars):
        hi = lo + width
        assume(hi > lo)
        mean = lo + (0.5 + offset) * width
        sigma = sigma_share * width
        assert_same_outcome(
            lambda: TruncatedGaussianPdf(lo, hi, mean, sigma, bars),
            lambda: UncertainObject.gaussian(0, lo, hi, mean, sigma, bars),
        )
        assert_same_outcome(
            lambda: TruncatedGaussianPdf(lo, hi, mean, sigma, bars),
            lambda: GaussianObject(0, lo, hi, mean, sigma, bars),
        )

    @given(lo=bounds, width=widths, bars=gaussian_bars)
    def test_paper_defaults_and_extreme_bounds(self, lo, width, bars):
        hi = lo + width
        assert_same_outcome(
            lambda: TruncatedGaussianPdf(lo, hi, bars=bars),
            lambda: UncertainObject.gaussian(0, lo, hi, bars=bars),
        )

    @given(
        mean=st.one_of(st.floats(), st.sampled_from([1e3, -1e3, 40.0])),
        sigma=st.one_of(st.floats(), st.sampled_from([1e-3, 1e-300, 0.0])),
        bars=st.integers(min_value=-2, max_value=300),
    )
    def test_any_parameters(self, mean, sigma, bars):
        assert_same_outcome(
            lambda: TruncatedGaussianPdf(2.0, 5.0, mean, sigma, bars),
            lambda: GaussianObject(0, 2.0, 5.0, mean, sigma, bars),
        )

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            ((3.0, 3.0), "uncertainty region must have positive width"),
            ((math.nan, 3.0), "uncertainty region must be finite"),
            ((0.0, 1.0, None, -1.0), "sigma must be positive"),
            ((0.0, 1.0, None, 0.0), "sigma must be positive"),
            # sigma is checked before bars.
            ((0.0, 1.0, None, 0.0, 0), "sigma must be positive"),
            ((0.0, 1.0, None, None, 0), "bars must be >= 1"),
            ((0.0, 1.0, 1e3, 1e-3), "truncation removed all Gaussian mass"),
            ((0.0, 1.0, math.inf, None), "truncation removed all Gaussian mass"),
            ((0.0, 1.0, math.nan, None), "masses must be finite and non-negative"),
            # linspace on a span of a few ulps repeats edges, but the
            # truncated mass is still positive.
            ((1e6, 1e6 + 1e-9), "edges must be strictly increasing"),
            # hi - lo overflows: linspace's edges are not finite, and the
            # truncation check before it sees a NaN total and passes.
            ((-1e308, 1e308), "edges must be finite"),
            ((0.0, 1e-310), "densities must be finite"),
        ],
    )
    def test_rejections_match(self, args, message):
        chain = outcome(
            lambda: TruncatedGaussianPdf(*args).to_histogram().normalized()
        )
        assert chain[1] == message
        assert outcome(lambda: UncertainObject.gaussian(0, *args).histogram) == chain
        assert outcome(lambda: GaussianObject(0, *args).histogram) == chain


class TestDefaultChain:
    @given(
        masses=st.lists(
            st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=12
        ),
        lo=st.floats(min_value=-1e3, max_value=1e3),
    )
    def test_histogram_objects(self, masses, lo):
        assume(sum(masses) > 0)
        edges = lo + np.arange(len(masses) + 1, dtype=float)
        histogram = Histogram.from_masses(edges, masses)
        assert_same_outcome(
            lambda: HistogramPdf.from_histogram(histogram),
            lambda: UncertainObject.from_histogram(0, histogram),
        )

    def test_mixture_objects(self):
        parts = [TruncatedGaussianPdf(0.0, 3.0, bars=16), UniformPdf(2.0, 5.0)]
        assert_same_outcome(
            lambda: MixturePdf(parts, [0.3, 0.7]),
            lambda: UncertainObject(0, MixturePdf(parts, [0.3, 0.7])),
        )
        gaussians = parts[:1] + [TruncatedGaussianPdf(4.0, 9.0, bars=24)]
        assert_same_outcome(
            lambda: MixturePdf(gaussians, [0.25, 0.75]),
            lambda: GaussianMixtureObject(0, gaussians, [0.25, 0.75]),
        )


class TestGaussianParametersFromFloatBounds:
    @pytest.mark.parametrize(
        ("lo", "hi"),
        [
            (np.float32(1.1), np.float32(2.3)),
            (np.float16(-0.7), np.float16(4.1)),
            (1, 4),
            (np.int64(-3), np.int64(8)),
        ],
    )
    def test_parameters_are_the_float_bounds(self, lo, hi):
        flo, fhi = float(lo), float(hi)
        pdf = TruncatedGaussianPdf(lo, hi)
        assert type(pdf.mean_parameter) is float and type(pdf.sigma) is float
        assert pdf.mean_parameter == 0.5 * (flo + fhi)
        assert pdf.sigma == (fhi - flo) / 6.0
        twin = TruncatedGaussianPdf(flo, fhi)
        assert outcome(pdf.normalized_histogram) == outcome(twin.normalized_histogram)
        law = TruncatedGaussianDistance(0.0, lo, hi)
        assert law.pack_params().tobytes() == (
            TruncatedGaussianDistance(
                0.0, flo, fhi, mean=pdf.mean_parameter, sigma=pdf.sigma
            )
            .pack_params()
            .tobytes()
        )

    def test_float_bounds_are_unchanged(self):
        pdf = TruncatedGaussianPdf(1.1, 2.3)
        assert pdf.mean_parameter == 0.5 * (1.1 + 2.3)
        assert pdf.sigma == (2.3 - 1.1) / 6.0
