"""Tests for rectangles and the mindist/maxdist metrics."""

import math

import numpy as np
import pytest

from repro.index.geometry import Rect


class TestConstruction:
    def test_interval(self):
        r = Rect.interval(1.0, 3.0)
        assert r.dim == 1
        assert r.area() == pytest.approx(2.0)

    def test_union_of(self):
        u = Rect.union_of([Rect.interval(0, 1), Rect.interval(5, 6)])
        assert u.lows[0] == 0.0 and u.highs[0] == 6.0

    def test_union_of_empty_raises(self):
        with pytest.raises(ValueError):
            Rect.union_of([])

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Rect([2.0], [1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Rect([0.0], [math.inf])

    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (2.0, 1.0, "must not exceed"),
            (0.0, math.inf, "finite"),
            (math.nan, 1.0, "finite"),
            (math.inf, -math.inf, "finite"),  # finiteness is checked first
        ],
    )
    def test_interval_validates_like_init(self, lo, hi, message):
        for build in (Rect.interval, lambda a, b: Rect([a], [b])):
            with pytest.raises(ValueError, match=message):
                build(lo, hi)

    def test_interval_equals_init(self):
        a, b = Rect.interval(1, 3), Rect([1.0], [3.0])
        assert a == b and hash(a) == hash(b)
        assert a.mindist(5.0) == b.mindist(5.0) == 2.0
        assert a.lows.dtype == b.lows.dtype == np.float64


class TestRelations:
    def test_equality_and_hash(self):
        assert Rect.interval(0, 1) == Rect.interval(0, 1)
        assert hash(Rect.interval(0, 1)) == hash(Rect.interval(0, 1))
        assert Rect.interval(0, 1) != Rect.interval(0, 2)


class TestDistances:
    def test_mindist_1d(self):
        r = Rect.interval(2.0, 5.0)
        assert r.mindist(0.0) == pytest.approx(2.0)
        assert r.mindist(3.0) == 0.0
        assert r.mindist(7.0) == pytest.approx(2.0)

    def test_maxdist_1d(self):
        r = Rect.interval(2.0, 5.0)
        assert r.maxdist(0.0) == pytest.approx(5.0)
        assert r.maxdist(4.0) == pytest.approx(2.0)

    def test_mindist_2d_corner(self):
        r = Rect([1.0, 1.0], [2.0, 2.0])
        assert r.mindist((0.0, 0.0)) == pytest.approx(math.sqrt(2.0))

    def test_maxdist_2d(self):
        r = Rect([0.0, 0.0], [1.0, 1.0])
        assert r.maxdist((0.0, 0.0)) == pytest.approx(math.sqrt(2.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Rect.interval(0, 1).mindist((1.0, 2.0))

    def test_matches_numpy_reference(self, rng):
        # Cross-check the scalar fast path against a vector formula.
        for _ in range(50):
            lows = rng.uniform(-5, 0, 2)
            highs = lows + rng.uniform(0.1, 5, 2)
            r = Rect(lows, highs)
            q = rng.uniform(-8, 8, 2)
            gaps = np.maximum(np.maximum(lows - q, q - highs), 0.0)
            assert r.mindist(q) == pytest.approx(float(np.linalg.norm(gaps)))
            spans = np.maximum(np.abs(q - lows), np.abs(q - highs))
            assert r.maxdist(q) == pytest.approx(float(np.linalg.norm(spans)))

    def test_mindist_never_exceeds_maxdist(self, rng):
        for _ in range(50):
            lo = float(rng.uniform(-10, 10))
            hi = lo + float(rng.uniform(0, 5))
            q = float(rng.uniform(-20, 20))
            r = Rect.interval(lo, hi)
            assert r.mindist(q) <= r.maxdist(q) + 1e-12
