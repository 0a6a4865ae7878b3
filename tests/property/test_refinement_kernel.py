"""Property tests for the identity the refinement kernel rests on.

:class:`~repro.core.refinement.Refiner` never evaluates a cdf: inside
an inner subregion every ``D_k`` is linear, so survival at a quadrature
node is ``1 − (cdf_at_edges[k, j] + s_inner[k, j]·t)``.  That holds
only while the end-point grid contains every pdf breakpoint below
``f_min`` — the invariant :mod:`repro.core.subregions` documents — so
these tests pit the table-derived values against the distributions
themselves on the candidate sets most likely to break it: zero-density
gaps, coincident supports, breakpoints closer than the grid's
deduplication threshold, subdivided grids, and both the small-set and
the columnar table construction.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.basic import basic_pnn_probabilities
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import _SMALL_SET, SubregionTable
from repro.core.types import CPNNQuery
from repro.numerics.quadrature import gauss_legendre_nodes
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject

#: Table-derived vs evaluated survival, per node.
SURVIVAL_ATOL = 1e-12

#: ``exact_all`` vs composite Simpson — the tolerance of
#: ``tests/baselines/test_basic.py``.
BASELINE_ATOL = 5e-6

#: Well inside ``_EDGE_RTOL`` × scale (≥ 1e-12), so the grid keeps only
#: one of two breakpoints this far apart.
NEAR_DUPLICATE = 1e-13

#: pdf shapes, and the two ways a draw may instead reuse an earlier
#: object's support.
SHAPES = ("uniform", "gaussian", "gap")
FAMILIES = SHAPES + ("coincident", "near-duplicate")


def _make(i: int, family: str, lo: float, width: float) -> UncertainObject:
    if family == "gaussian":
        return UncertainObject.gaussian(i, lo, lo + width, bars=12)
    if family == "gap":  # a two-component mixture, nothing in between
        edges = lo + width * np.asarray([0.0, 0.3, 0.6, 1.0])
        return UncertainObject.from_histogram(
            i, Histogram.from_masses(edges, [0.4, 0.0, 0.6])
        )
    return UncertainObject.uniform(i, lo, lo + width)


@st.composite
def candidate_tables(draw, max_size=14):
    """A subregion table over 2–14 assorted objects (so both sides of
    ``_SMALL_SET``), on the plain or the 3-way subdivided grid."""
    n = draw(st.integers(2, max_size))
    objects, supports = [], []
    for i in range(n):
        family = draw(st.sampled_from(FAMILIES))
        lo, width = draw(st.floats(-30, 30)), draw(st.floats(1.0, 15))
        if supports and family == "coincident":
            lo, width = draw(st.sampled_from(supports))
            family = draw(st.sampled_from(SHAPES))
        elif supports and family == "near-duplicate":
            lo = draw(st.sampled_from(supports))[0] + NEAR_DUPLICATE
            family = draw(st.sampled_from(SHAPES))
        supports.append((lo, width))
        objects.append(_make(i, family, lo, width))
    q = draw(st.floats(-40, 40))
    return SubregionTable(
        [o.distance_distribution(q) for o in objects],
        grid_refinement=draw(st.sampled_from([1, 3])),
    )


@settings(max_examples=80, deadline=None)
@given(candidate_tables())
def test_table_survival_equals_evaluated_survival(table):
    refiner = Refiner(table)
    xs_unit, _ = gauss_legendre_nodes(refiner.nodes_per_subregion)
    t = 0.5 * (1.0 + xs_unit)
    every = np.arange(table.n_inner)
    derived = refiner._node_survival(every, t)

    edges = table.edges
    nodes = edges[:-1, None] + np.diff(edges)[:, None] * t
    evaluated = table.pack.sf_many(nodes.reshape(-1)).reshape(derived.shape)
    np.testing.assert_allclose(derived, evaluated, rtol=0.0, atol=SURVIVAL_ATOL)


@settings(max_examples=60, deadline=None)
@given(candidate_tables())
def test_exact_all_equals_brute_force(table):
    exact = Refiner(table).exact_all()
    # 64 Simpson panels per piece: coincident supports make one piece a
    # degree-13 polynomial, which the baseline tests' 12 cannot resolve
    # to BASELINE_ATOL.
    brute = basic_pnn_probabilities(table.distributions, subdivisions=64)
    for p, dist in zip(exact, table.distributions):
        assert abs(p - brute[dist.key]) <= BASELINE_ATOL


@settings(max_examples=40, deadline=None)
@given(candidate_tables(max_size=_SMALL_SET), st.floats(0.05, 0.9))
def test_small_table_refines_without_its_pack(table, threshold):
    refiner = Refiner(table)
    states = CandidateStates(table.keys)
    query = CPNNQuery(0.0, threshold=threshold, tolerance=0.0)
    for i in range(table.size):
        refiner.refine_object(i, states, query)
    assert states.n_unknown == 0
    assert table._pack is None
