"""Property-based soundness of the verifiers: every bound a verifier
produces must contain the exact qualification probability, for
arbitrary pdf shapes, overlaps and query points.  This is the central
correctness claim of the paper (Lemmas 1–2, Equation 5)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refinement import Refiner
from repro.core.subregions import SubregionTable
from repro.core.verifiers import (
    LowerSubregionVerifier,
    RightmostSubregionVerifier,
    UpperSubregionVerifier,
)
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject

TOL = 1e-9


@st.composite
def candidate_sets(draw):
    """2–10 objects with assorted pdfs plus a query point near them."""
    n = draw(st.integers(2, 10))
    objects = []
    for i in range(n):
        lo = draw(st.floats(-30, 30))
        width = draw(st.floats(0.2, 15))
        family = draw(st.sampled_from(["uniform", "gaussian", "histogram", "gap"]))
        if family == "uniform":
            objects.append(UncertainObject.uniform(i, lo, lo + width))
        elif family == "gaussian":
            objects.append(UncertainObject.gaussian(i, lo, lo + width, bars=12))
        elif family == "histogram":
            bins = draw(st.integers(2, 5))
            masses = np.asarray(
                draw(
                    st.lists(
                        st.floats(0.05, 1.0), min_size=bins, max_size=bins
                    )
                )
            )
            edges = np.linspace(lo, lo + width, bins + 1)
            objects.append(
                UncertainObject.from_histogram(
                    i, Histogram.from_masses(edges, masses / masses.sum())
                )
            )
        else:  # interior-zero "gap" pdf — the hard case for products
            third = width / 3
            edges = [lo, lo + third, lo + 2 * third, lo + width]
            objects.append(
                UncertainObject.from_histogram(
                    i, Histogram.from_masses(edges, [0.5, 0.0, 0.5])
                )
            )
    q = draw(st.floats(-40, 40))
    return objects, q


@settings(max_examples=60, deadline=None)
@given(candidate_sets())
def test_verifier_bounds_contain_exact_probability(case):
    objects, q = case
    table = SubregionTable([o.distance_distribution(q) for o in objects])
    exact = Refiner(table).exact_all()
    # The candidate set here is unfiltered, so probabilities still sum to 1.
    assert abs(exact.sum() - 1.0) < 1e-8

    rs = RightmostSubregionVerifier().compute(table)
    lsr = LowerSubregionVerifier().compute(table)
    usr = UpperSubregionVerifier().compute(table)

    assert np.all(exact <= rs.upper + TOL), "RS upper bound violated"
    assert np.all(lsr.lower - TOL <= exact), "L-SR lower bound violated"
    assert np.all(exact <= usr.upper + TOL), "U-SR upper bound violated"
    # U-SR never loosens RS (both are Eq. 4 sums vs. total inner mass).
    assert np.all(usr.upper <= rs.upper + TOL)
    # L-SR and U-SR are consistent with each other.
    assert np.all(lsr.lower <= usr.upper + TOL)


@settings(max_examples=40, deadline=None)
@given(candidate_sets())
def test_subregion_masses_partition(case):
    objects, q = case
    table = SubregionTable([o.distance_distribution(q) for o in objects])
    totals = table.s_inner.sum(axis=1) + table.s_right
    assert np.allclose(totals, 1.0, atol=1e-8)
    assert np.all(table.s_inner >= -1e-12)
    assert np.all(table.Z >= -1e-12) and np.all(table.Z <= 1 + 1e-12)

