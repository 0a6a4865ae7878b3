"""Tests for distance pdf/cdf derivation — Figure 6 of the paper."""

import numpy as np
import pytest

from repro.uncertainty.distance import DistanceDistribution
from repro.uncertainty.histogram import Histogram, HistogramError
from repro.uncertainty.objects import UncertainObject


class TestFigureSix:
    """The worked example of Figure 6: X1 uniform on [l, u]."""

    L, U = 2.0, 10.0

    def object(self) -> UncertainObject:
        return UncertainObject.uniform("X1", self.L, self.U)

    def test_query_inside_q1(self):
        # Figure 6(b): q1 in (l, u); n1 = 0, f1 = u - q1.
        q1 = 5.0
        dist = self.object().distance_distribution(q1)
        assert dist.near == pytest.approx(0.0)
        assert dist.far == pytest.approx(self.U - q1)
        width = self.U - self.L
        # [0, q1 - l]: both sides fold, density 2/(u - l).
        assert dist.pdf(1.0) == pytest.approx(2.0 / width)
        # (q1 - l, u - q1]: one side only, density 1/(u - l).
        assert dist.pdf(4.0) == pytest.approx(1.0 / width)
        assert dist.cdf(dist.far) == pytest.approx(1.0)

    def test_query_outside_q2(self):
        # Figure 6(c): q2 < l; support shifts to [l - q2, u - q2].
        q2 = 1.0
        dist = self.object().distance_distribution(q2)
        assert dist.near == pytest.approx(self.L - q2)
        assert dist.far == pytest.approx(self.U - q2)
        assert dist.pdf(5.0) == pytest.approx(1.0 / (self.U - self.L))

    def test_interval_property(self):
        dist = self.object().distance_distribution(5.0)
        assert dist.interval == (dist.near, dist.far)


class TestDistanceDistribution:
    def test_normalises_and_trims(self):
        h = Histogram([0, 1, 2, 3], [0.0, 2.0, 0.0])
        dist = DistanceDistribution(h, key="k")
        assert dist.key == "k"
        assert dist.near == pytest.approx(1.0)
        assert dist.far == pytest.approx(2.0)
        assert dist.cdf(1.5) == pytest.approx(0.5)

    def test_rejects_zero_mass(self):
        with pytest.raises(HistogramError):
            DistanceDistribution(Histogram([0, 1], [0.0]))

    def test_rejects_negative_support(self):
        with pytest.raises(HistogramError):
            DistanceDistribution(Histogram([-1.0, 1.0], [0.5]))

    def test_sf_is_one_minus_cdf(self):
        dist = UncertainObject.uniform("a", 0, 4).distance_distribution(1.0)
        rs = np.linspace(0, 3, 7)
        assert np.allclose(
            np.asarray(dist.sf(rs)) + np.asarray(dist.cdf(rs)), 1.0
        )

    def test_mass_between_is_subregion_probability(self):
        dist = UncertainObject.uniform("a", 0, 4).distance_distribution(0.0)
        assert dist.mass_between(1.0, 2.0) == pytest.approx(0.25)

    def test_overlaps_uses_open_interval(self):
        dist = UncertainObject.uniform("a", 2, 4).distance_distribution(0.0)
        assert dist.overlaps(1.0, 3.0)
        assert not dist.overlaps(4.0, 5.0)
        # Touching only at the boundary is not overlap.
        assert not dist.overlaps(0.0, 2.0)

    def test_from_cdf_matches_at_edges(self):
        dist = DistanceDistribution.from_cdf(
            lambda r: min(max(r / 2.0, 0.0), 1.0), 0.0, 2.0, bins=8
        )
        assert dist.cdf(1.0) == pytest.approx(0.5)

    def test_from_cdf_needs_positive_width(self):
        with pytest.raises(HistogramError):
            DistanceDistribution.from_cdf(lambda r: 1.0, 1.0, 1.0, bins=4)

    def test_sampling_agrees_with_cdf(self, rng):
        dist = UncertainObject.gaussian("g", 0, 6, bars=30).distance_distribution(2.0)
        samples = dist.sample(rng, 100_000)
        for r in (0.5, 1.5, 3.0):
            assert np.mean(samples <= r) == pytest.approx(dist.cdf(r), abs=6e-3)

    def test_gaussian_fold_preserves_mass(self):
        obj = UncertainObject.gaussian("g", 0, 6, bars=120)
        for q in (-1.0, 0.0, 2.0, 3.0, 6.0, 8.5):
            dist = obj.distance_distribution(q)
            assert dist.cdf(dist.far + 1.0) == pytest.approx(1.0, abs=1e-12)


class TestDeferredFold:
    """``from_value_histogram`` records the fold and performs it on first
    use; nothing observable may depend on when that is."""

    def test_unfolded_until_read(self):
        value = Histogram.uniform(2.0, 10.0)
        dist = DistanceDistribution.from_value_histogram(value, 5.0, key="k")
        assert dist._histogram is None
        assert dist.key == "k"
        eager = DistanceDistribution(value.fold_abs(5.0), key="k")
        assert dist.histogram == eager.histogram
        assert dist.interval == eager.interval
        assert dist._histogram is dist.histogram  # folded once, kept

    def test_zero_mass_rejected_at_construction_with_same_message(self):
        empty = Histogram([0.0, 1.0, 2.0], [0.0, 0.0])
        with pytest.raises(HistogramError, match="must carry positive mass"):
            DistanceDistribution.from_value_histogram(empty, 0.5)
        with pytest.raises(HistogramError, match="must carry positive mass"):
            DistanceDistribution(empty.fold_abs(0.5))

    def test_unfolded_row_survives_pickle(self):
        import pickle

        obj = UncertainObject.gaussian("g", 0.0, 6.0, bars=12)
        dist = obj.distance_distribution(2.5)
        clone = pickle.loads(pickle.dumps(dist))
        assert clone._histogram is None and clone.key == "g"
        assert clone.histogram == dist.histogram
        assert pickle.loads(pickle.dumps(dist)).histogram == dist.histogram

    def test_threads_materialising_one_row_agree(self):
        import sys
        import threading

        obj = UncertainObject.gaussian("g", 0.0, 6.0, bars=200)
        reference = DistanceDistribution(obj.histogram.fold_abs(2.5))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                dist = obj.distance_distribution(2.5)
                seen = []
                barrier = threading.Barrier(4)

                def read():
                    barrier.wait(timeout=10)
                    seen.append(dist.histogram)

                threads = [threading.Thread(target=read) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert len(seen) == 4
                for histogram in seen:
                    assert histogram == reference.histogram
                    assert (
                        histogram.cdf_knots.tobytes()
                        == reference.histogram.cdf_knots.tobytes()
                    )
        finally:
            sys.setswitchinterval(previous)
