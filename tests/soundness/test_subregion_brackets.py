"""Soundness of the subregion brackets: RS, L-SR and U-SR contain the
brute-force probability, row by row and slice by slice.

L-SR's slice is ``s_ij · max(Z_i(e_j)/c_j, Z_i(m_j))``: Lemma 2, or the
exclusion product at the subregion's midpoint, which is a lower bound
because every ``1 − D_k`` is linear on a breakpoint subregion, so
``Z_i`` is convex there (Hermite–Hadamard).  U-SR's slice is the other
side of the same inequality.  Nothing here shares code with the
engine's exact path: rows are held to
:func:`~repro.baselines.basic_pnn_probabilities` (composite Simpson on
the distributions' own cdfs), slices to
:meth:`Refiner.exact_subregion_probability`.

Tolerances are derived per table, never fixed:

* :func:`simpson_atol` — Simpson's error bound on the baseline;
* ``size × survival_atol(table)`` — a cdf may bend inside a subregion
  where the grid merged two breakpoints, and each of ``Z``'s factors may
  then sit that far off its linear read-off;
* :func:`rounding_atol` — float error of products over ``|C|`` factors
  summed over ``M − 1`` slices.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.baselines.basic import basic_pnn_probabilities
from repro.core.engine import UncertainEngine
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery
from repro.core.verifiers import (
    LowerSubregionVerifier,
    RightmostSubregionVerifier,
    UpperSubregionVerifier,
    verify,
)
from repro.datasets.planar import planar_mixed_objects
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject
from tests.property.test_refinement_kernel import survival_atol

#: Subdivisions per breakpoint piece of the Simpson baseline.
SUBDIVISIONS = 16

#: ``fused.py``'s einsum buffer: wider tables take the whole-matrix branch.
EINSUM_BUFFER = 8192

EPS = float(np.finfo(float).eps)


def simpson_atol(table: SubregionTable) -> np.ndarray:
    """Per row, a bound on the baseline's composite Simpson error.

    On a piece of width ``h`` the integrand ``d_i · Π_k (1 − D_k)`` is
    a polynomial whose factors have slopes ``−d_k``, so its fourth
    derivative is at most ``d_i · (Σ_k d_k)^4`` and Simpson errs by at
    most ``h^5 / 2880`` times that.  Over the ``SUBDIVISIONS`` pieces of
    subregion ``j`` (densities ``s_kj / w_j``) the widths cancel:
    ``s_ij · (Σ_k s_kj)^4 / (2880 · SUBDIVISIONS^4)``.
    """
    mass = table.s_inner.sum(axis=0)
    per_slice = table.s_inner * mass[None, :] ** 4
    return per_slice.sum(axis=1) / (2880.0 * SUBDIVISIONS**4)


def rounding_atol(table: SubregionTable) -> float:
    """Float error of a bracket or an exact value: products of ``|C|``
    factors, each an ulp off, summed over ``M − 1`` slices."""
    return 8.0 * EPS * (table.size + table.n_inner)


def row_atol(table: SubregionTable) -> np.ndarray:
    return (
        simpson_atol(table)
        + table.size * survival_atol(table)
        + rounding_atol(table)
    )


def table_of(objects, q) -> SubregionTable:
    return SubregionTable([o.distance_distribution(q) for o in objects])


def brute_force(table: SubregionTable) -> np.ndarray:
    """The baseline's probabilities, row-aligned with ``table``."""
    p = basic_pnn_probabilities(table.distributions, subdivisions=SUBDIVISIONS)
    return np.asarray([p[key] for key in table.keys])


def assert_rows_bracketed(table: SubregionTable) -> None:
    """RS / L-SR / U-SR per row, through the reference verifiers and
    through the engine's fused pass, contain the baseline."""
    truth = brute_force(table)
    atol = row_atol(table)
    lower = LowerSubregionVerifier().compute(table).lower
    upper = UpperSubregionVerifier().compute(table).upper
    rs = RightmostSubregionVerifier().compute(table).upper
    assert np.all(lower - atol <= truth), (lower - truth).max()
    assert np.all(truth <= upper + atol), (truth - upper).max()
    assert np.all(truth <= rs + atol), (truth - rs).max()
    # The engine's fused pass, with P at the median row's probability
    # and Δ = 0 so that row (at least) meets all three verifiers.
    states = CandidateStates(table.keys)
    verify(table, states, float(np.median(truth)), 0.0)
    assert np.all(states.lower - atol <= truth)
    assert np.all(truth <= states.upper + atol)


def assert_slices_bracketed(table: SubregionTable, columns=None) -> None:
    """``s_ij q_ij.l ≤ p_ij ≤ s_ij q_ij.u`` against the refiner's exact
    slice (the same linear read-off, so only rounding separates them)."""
    refiner = Refiner(table)
    atol = rounding_atol(table)
    s = table.s_inner
    lo, up = s * table.q_lower, s * table.q_upper
    columns = range(table.n_inner) if columns is None else columns
    for j in columns:
        for i in np.flatnonzero(s[:, j] > 0.0):
            p_ij = refiner.exact_subregion_probability(int(i), int(j))
            assert lo[i, j] - atol <= p_ij <= up[i, j] + atol, (i, j)


# ----------------------------------------------------------------------
# Candidate sets
# ----------------------------------------------------------------------

FAMILIES = ("uniform", "multi-bar", "gaussian", "gap", "coincident")


def _histogram(family: str, lo: float, width: float, masses) -> Histogram:
    if family == "uniform":
        return Histogram.from_masses([lo, lo + width], [1.0])
    if family == "gaussian":
        return UncertainObject.gaussian(None, lo, lo + width, bars=12).histogram
    if family == "gap":  # a two-component mixture, nothing in between
        edges = lo + width * np.asarray([0.0, 0.3, 0.6, 1.0])
        return Histogram.from_masses(edges, [0.4, 0.0, 0.6])
    masses = np.asarray(masses)
    edges = np.linspace(lo, lo + width, masses.size + 1)
    return Histogram.from_masses(edges, masses / masses.sum())


@st.composite
def histogram_sets(draw, max_size=10):
    """``(objects, q)``: 1-D uniform, multi-bar (equal-width bars of
    random mass, or a 12-bar Gaussian) and interior-zero objects, some
    coincident with an earlier one, and ``q`` anywhere or on an
    object's centre."""
    histograms = []
    for _ in range(draw(st.integers(2, max_size))):
        family = draw(st.sampled_from(FAMILIES))
        if histograms and family == "coincident":
            histograms.append(draw(st.sampled_from(histograms)))
            continue
        family = "uniform" if family == "coincident" else family
        lo, width = draw(st.floats(-30, 30)), draw(st.floats(0.2, 15))
        masses = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
        histograms.append(_histogram(family, lo, width, masses))
    objects = [UncertainObject.from_histogram(i, h) for i, h in enumerate(histograms)]
    if draw(st.booleans()):
        centre = draw(st.sampled_from(objects))
        q = 0.5 * (centre.lo + centre.hi)
    else:
        q = draw(st.floats(-40, 40))
    return objects, q


@st.composite
def planar_sets(draw):
    """``(objects, q)``: disks, segments and rectangles in a small
    square, ``q`` anywhere in it or on an object's MBR centre."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objects = planar_mixed_objects(
        draw(st.integers(2, 7)),
        domain=(0.0, 20.0),
        max_extent=8.0,
        distance_bins=draw(st.sampled_from([8, 24])),
        rng=rng,
    )
    if draw(st.booleans()):
        mbr = draw(st.sampled_from(objects)).mbr
        q = tuple(0.5 * (np.asarray(mbr.lows) + np.asarray(mbr.highs)))
    else:
        q = (draw(st.floats(0.0, 20.0)), draw(st.floats(0.0, 20.0)))
    return objects, q


def _textbook():
    """Two uniforms: ``S_1`` holds A alone (``c_1 = 1``)."""
    objects = [
        UncertainObject.uniform("A", 0.0, 1.0),
        UncertainObject.uniform("B", 0.5, 1.5),
    ]
    return objects, 0.0


def _gap_alone():
    """A mixture's gap leaves B alone in a subregion while A's first
    component already lies inside it: ``c_j = 1`` with ``Z < 1``."""
    gap = Histogram.from_masses([0.0, 1.0, 2.0, 3.0], [0.5, 0.0, 0.5])
    return [
        UncertainObject.from_histogram("A", gap),
        UncertainObject.uniform("B", 1.2, 4.0),
    ], 0.0


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@given(histogram_sets())
@example(_textbook())
@example(_gap_alone())
def test_1d_rows_bracket_brute_force(case):
    assert_rows_bracketed(table_of(*case))


@given(histogram_sets())
@example(_textbook())
@example(_gap_alone())
def test_1d_slices_bracket_exact(case):
    assert_slices_bracketed(table_of(*case))


@given(planar_sets())
def test_2d_rows_bracket_brute_force(case):
    assert_rows_bracketed(table_of(*case))


@given(planar_sets())
def test_2d_slices_bracket_exact(case):
    assert_slices_bracketed(table_of(*case))


@given(histogram_sets(max_size=8), st.floats(0.01, 1.0), st.floats(0.0, 0.2))
def test_engine_records_bracket_brute_force(case, threshold, tolerance):
    """End to end: every record ``execute`` returns (verified or
    refined) contains the baseline, and the answer keeps the contract
    ``{p ≥ P} ⊆ answer ⊆ {p ≥ P − Δ}``."""
    objects, q = case
    result = UncertainEngine(objects).execute(CPNNQuery(q, threshold, tolerance))
    records = result.records
    table = table_of(objects, q)
    truth = dict(zip(table.keys, brute_force(table)))
    atol = dict(zip(table.keys, row_atol(table)))
    for key, lower, upper in zip(records.keys, records.lower, records.upper):
        assert lower - atol[key] <= truth[key] <= upper + atol[key], key
    answers = set(result.answers)
    assert {k for k, p in truth.items() if p >= threshold + atol[k]} <= answers
    floor = threshold - tolerance
    assert answers <= {k for k, p in truth.items() if p >= floor - atol[k]}


# ----------------------------------------------------------------------
# Edge cases
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", [_textbook, _gap_alone], ids=["textbook", "gap"])
def test_single_object_subregions(case):
    table = table_of(*case())
    assert 1 in table.counts.tolist()
    assert_rows_bracketed(table)
    assert_slices_bracketed(table)


def test_coincident_objects_share_their_bracket():
    objects = [
        UncertainObject.gaussian(i, 2.0, 9.0, bars=30) for i in range(4)
    ] + [UncertainObject.uniform(4, 3.0, 12.0)]
    table = table_of(objects, 0.0)
    twins = [table.index_of(i) for i in range(4)]
    for matrix in (table.q_lower, table.q_upper):
        assert all(np.array_equal(matrix[twins[0]], matrix[t]) for t in twins)
    assert_rows_bracketed(table)
    assert_slices_bracketed(table)


def test_query_on_an_object_centre():
    objects = [
        UncertainObject.gaussian(0, -4.0, 4.0, bars=16),
        UncertainObject.uniform(1, 1.0, 6.0),
        UncertainObject.uniform(2, -7.0, -2.5),
    ]
    table = table_of(objects, 0.0)
    assert table.edges[0] == 0.0
    assert_rows_bracketed(table)
    assert_slices_bracketed(table)


def test_wide_table():
    """More inner subregions than the fused pass's einsum buffer, so it
    takes its whole-matrix branch; slices are checked on a stride."""
    rng = np.random.default_rng(41)
    objects = [
        UncertainObject.gaussian(i, lo, lo + 10.0, bars=1000)
        for i, lo in enumerate(rng.uniform(0.0, 0.5, 10))
    ]
    table = table_of(objects, -1.0)
    assert table.n_inner > EINSUM_BUFFER
    assert_rows_bracketed(table)
    assert_slices_bracketed(table, columns=range(0, table.n_inner, 97))
