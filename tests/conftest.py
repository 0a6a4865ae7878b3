"""Shared fixtures and workload factories for the test-suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import settings

from repro.core.types import CPNNQuery
from repro.uncertainty.distance import DistanceDistribution
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject

# Property-test effort profiles: the default keeps the suite fast;
# run `pytest --hypothesis-profile=thorough` before releases.
settings.register_profile("default", max_examples=60, deadline=None)
settings.register_profile("thorough", max_examples=600, deadline=None)
settings.load_profile("default")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20080407)


@pytest.fixture
def unit_clock(monkeypatch) -> None:
    """The C-PNN executor's clock advances one unit per reading, so
    every timed span is exactly 1 and phase sums are whole numbers."""
    ticks = itertools.count()
    monkeypatch.setattr(
        "repro.core.engine.pnn.time.perf_counter", lambda: float(next(ticks))
    )


@pytest.fixture
def constructed(monkeypatch) -> list:
    """Every ``DistanceDistribution`` built from now on, by its two
    constructors: ``__init__`` and ``from_value_histogram``.  (Patching
    ``__new__`` instead would leave the class broken after the undo.)"""
    built = []
    init = DistanceDistribution.__init__
    lazy = DistanceDistribution.from_value_histogram

    def counting_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counting_lazy(cls, *args, **kwargs):
        built.append("from_value_histogram")
        return lazy(*args, **kwargs)

    monkeypatch.setattr(DistanceDistribution, "__init__", counting_init)
    monkeypatch.setattr(
        DistanceDistribution, "from_value_histogram", classmethod(counting_lazy)
    )
    return built


@pytest.fixture
def histogram_counter(monkeypatch) -> dict:
    """Counts every ``Histogram`` built from now on, by its two
    constructors: ``__init__`` (validating) and ``_raw`` (the one
    objects and folds build through)."""
    counts = {"n": 0}
    init = Histogram.__init__
    raw = Histogram._raw

    def counting_init(self, *args, **kwargs):
        counts["n"] += 1
        init(self, *args, **kwargs)

    def counting_raw(cls, *args, **kwargs):
        counts["n"] += 1
        return raw(*args, **kwargs)

    monkeypatch.setattr(Histogram, "__init__", counting_init)
    monkeypatch.setattr(Histogram, "_raw", classmethod(counting_raw))
    return counts


def cpnn_specs(
    points, threshold: float = 0.3, tolerance: float = 0.01
) -> list[CPNNQuery]:
    """One C-PNN spec per query point, all under the same constraints."""
    return [CPNNQuery(q, threshold, tolerance) for q in points]


def make_random_objects(
    rng: np.random.Generator,
    n: int,
    domain: tuple[float, float] = (0.0, 60.0),
    max_width: float = 12.0,
    families: tuple[str, ...] = ("uniform", "gaussian", "histogram"),
) -> list[UncertainObject]:
    """Random 1-D objects cycling through pdf families."""
    objects = []
    for i in range(n):
        center = float(rng.uniform(*domain))
        width = float(rng.uniform(0.5, max_width))
        lo, hi = center - width / 2, center + width / 2
        family = families[i % len(families)]
        if family == "uniform":
            objects.append(UncertainObject.uniform(i, lo, hi))
        elif family == "gaussian":
            objects.append(UncertainObject.gaussian(i, lo, hi, bars=24))
        else:
            bins = int(rng.integers(2, 7))
            edges = np.linspace(lo, hi, bins + 1)
            masses = rng.uniform(0.05, 1.0, bins)
            masses /= masses.sum()
            objects.append(
                UncertainObject.from_histogram(i, Histogram.from_masses(edges, masses))
            )
    return objects


def two_object_textbook_case() -> tuple[list[UncertainObject], float]:
    """The hand-solvable example used across the core tests.

    With q = 0: R_A ~ U[0, 1], R_B ~ U[0.5, 1.5]; then (by hand)

    * end-points  [0, 0.5, 1], rightmost subregion [1, 1.5]
    * s_A = (0.5, 0.5 | 0),  s_B = (0, 0.5 | 0.5)
    * L-SR:  p_A.l = 0.75,  p_B.l = 0.125
    * U-SR:  p_A.u = 0.875, p_B.u = 0.125
    * RS:    p_A.u = 1.0,   p_B.u = 0.5
    * exact: p_A = 0.875,   p_B = 0.125
    """
    objects = [
        UncertainObject.uniform("A", 0.0, 1.0),
        UncertainObject.uniform("B", 0.5, 1.5),
    ]
    return objects, 0.0
