"""The verifier pass equals the chain it replaced, bit for bit.

:func:`repro.core.verifiers.verify` runs Figure 5's loop in one pass
that bounds only the candidates still UNKNOWN; ``default_chain().run``
bounds every candidate with each verifier and is kept as the oracle.
Both must leave the same ``lower`` / ``upper`` bits, the same labels
and the same ``unknown_after`` series — on histogram subregion tables
and on analytic tables through the escalation loop — and refinement
fed the pass's bracket rows must equal refinement reading the table.

The candidate sets reach the ``exclusion_products`` zero branch (every
table's last edge is ``f_min``, where one candidate's survival is 0;
tied far points put two zeros in that column), ties, Δ = 0, and
thresholds near 0 and near 1.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import CPNNQuery
from repro.core.verifiers import default_chain, verify
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric import AnalyticTable, GaussianObject

THRESHOLDS = st.one_of(
    st.sampled_from([1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-9, 1.0]),
    st.floats(1e-9, 1.0),
)
TOLERANCES = st.one_of(
    st.sampled_from([0.0, 1e-12, 0.01, 0.2, 1.0]), st.floats(0.0, 1.0)
)


def bits(array):
    return np.asarray(array, dtype=float).view(np.int64)


def assert_same_states(got, want):
    assert np.array_equal(bits(got.lower), bits(want.lower))
    assert np.array_equal(bits(got.upper), bits(want.upper))
    assert np.array_equal(got.labels, want.labels)


def run_both(table, threshold, tolerance):
    query = CPNNQuery(0.0, threshold, tolerance)
    got, want = CandidateStates(table.keys), CandidateStates(table.keys)
    verified = verify(table, got, threshold, tolerance)
    outcome = default_chain().run(table, want, query)
    assert_same_states(got, want)
    assert verified.unknown_after == outcome.unknown_after
    assert np.array_equal(verified.rows, want.unknown_indices())
    return query, got, verified


def assert_same_refinement(table, query, states, verified):
    """Refinement seeded with the pass's rows == reading the table."""
    if not verified.rows.size:
        assert verified.q_lower is None or not len(verified.q_lower)
        return
    twin = CandidateStates(table.keys)
    for name in ("lower", "upper", "labels"):
        getattr(twin, name)[:] = getattr(states, name)
    sliced, whole = Refiner(table), Refiner(table)
    for i, q_lower, q_upper in zip(
        verified.rows.tolist(), verified.q_lower, verified.q_upper
    ):
        assert np.array_equal(bits(q_lower), bits(table.q_lower[i]))
        assert np.array_equal(bits(q_upper), bits(table.q_upper[i]))
        a = sliced.refine_object(i, states, query, q_lower=q_lower, q_upper=q_upper)
        b = whole.refine_object(i, twin, query)
        assert a == b
    assert_same_states(states, twin)


@st.composite
def histogram_tables(draw, max_size=16):
    """A subregion table over 1–16 uniform / Gaussian-histogram objects,
    some sharing an earlier object's support (ties in near and far)."""
    supports, objects = [], []
    for i in range(draw(st.integers(1, max_size))):
        if supports and draw(st.booleans()):
            lo, width = draw(st.sampled_from(supports))
        else:
            lo, width = draw(st.floats(-30, 30)), draw(st.floats(0.5, 15))
        supports.append((lo, width))
        if draw(st.booleans()):
            objects.append(UncertainObject.uniform(i, lo, lo + width))
        else:
            bars = draw(st.sampled_from([3, 12, 40]))
            objects.append(UncertainObject.gaussian(i, lo, lo + width, bars=bars))
    q = draw(st.floats(-40, 40))
    try:
        return SubregionTable([o.distance_distribution(q) for o in objects])
    except ValueError:  # degenerate: f_min at the smallest near point
        assume(False)


@settings(max_examples=300, deadline=None)
@given(histogram_tables(), THRESHOLDS, TOLERANCES)
def test_pass_is_the_chain_on_subregion_tables(table, threshold, tolerance):
    query, states, verified = run_both(table, threshold, tolerance)
    assert_same_refinement(table, query, states, verified)


@st.composite
def gaussian_packs(draw, max_size=12):
    rows = []
    for _ in range(draw(st.integers(1, max_size))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))  # a tie: same support
            continue
        lo, width = draw(st.floats(-40, 40)), draw(st.floats(0.5, 20))
        sigma = draw(st.one_of(st.none(), st.floats(0.1 * width, width)))
        rows.append((lo, lo + width, sigma))
    objects = [
        GaussianObject(i, lo, hi, sigma=sigma)
        for i, (lo, hi, sigma) in enumerate(rows)
    ]
    return objects, draw(st.floats(-60, 60))


@settings(max_examples=150, deadline=None)
@given(gaussian_packs(), THRESHOLDS, TOLERANCES)
def test_pass_is_the_chain_on_analytic_tables_with_escalation(pack, threshold, tolerance):
    """The engine's escalation: the same states across ×4 finer grids."""
    objects, q = pack
    try:
        table = AnalyticTable([o.parametric_distance(q) for o in objects], grid=16)
    except ValueError:  # degenerate, as above
        assume(False)
    query = CPNNQuery(0.0, threshold, tolerance)
    got, want = CandidateStates(table.keys), CandidateStates(table.keys)
    got_series, want_series = {}, {}
    for _ in range(4):
        verified = verify(table, got, threshold, tolerance)
        got_series.update(verified.unknown_after)
        want_series.update(default_chain().run(table, want, query).unknown_after)
        assert_same_states(got, want)
        assert got_series == want_series
        if not verified.rows.size:
            break
        table = table.refined(table.grid * 4)


def wide_tables():
    """Tables with more than 8 192 inner subregions.  ``dense``: 60
    overlapping 300-bar histograms, some left for refinement.
    ``lone``: one uniform row below 80 narrow histograms, the only row
    RS leaves UNKNOWN at P = 0.9, so L-SR sums a single row."""
    rng = np.random.default_rng(5)
    dense = [
        UncertainObject.gaussian(i, lo, lo + 30.0, bars=300)
        for i, lo in enumerate(rng.uniform(0.0, 30.0, 60))
    ]
    rng = np.random.default_rng(2)
    lone = [UncertainObject.uniform(0, 0.0, 30.0)] + [
        UncertainObject.gaussian(i, lo, 30.1, bars=300)
        for i, lo in enumerate(rng.uniform(29.85, 29.95, 80), 1)
    ]
    return {
        name: SubregionTable([o.distance_distribution(0.0) for o in objects])
        for name, objects in (("dense", dense), ("lone", lone))
    }


@pytest.mark.parametrize(
    "name, threshold",
    [("dense", 0.01), ("dense", 0.05), ("lone", 0.3), ("lone", 0.9)],
)
def test_pass_is_the_chain_on_tables_wider_than_the_einsum_buffer(name, threshold):
    table = wide_tables()[name]
    assert table.n_inner > 8192
    query, states, verified = run_both(table, threshold, 0.0)
    assert "L-SR" in verified.unknown_after
    assert_same_refinement(table, query, states, verified)


def test_pass_leaves_the_full_matrices_unbuilt():
    """Only rows still UNKNOWN get brackets: the table's cached ``Z`` /
    ``q_lower`` / ``q_upper`` are never computed."""
    objects = [UncertainObject.uniform(i, i * 0.5, i * 0.5 + 10.0) for i in range(30)]
    table = SubregionTable([o.distance_distribution(3.0) for o in objects])
    states = CandidateStates(table.keys)
    verified = verify(table, states, 0.3, 0.0)
    assert "L-SR" in verified.unknown_after
    assert not {"Z", "q_lower", "q_upper"} & set(vars(table))
