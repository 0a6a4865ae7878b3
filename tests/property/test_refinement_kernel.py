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

They also hold :meth:`Refiner.refine_object`'s prefix scan to the
per-subregion loop it replaced, kept here as the oracle.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.basic import basic_pnn_probabilities
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import _EDGE_RTOL, _SMALL_SET, SubregionTable
from repro.core.types import CPNNQuery
from repro.core.verifiers.chain import default_chain
from repro.numerics.quadrature import gauss_legendre_nodes
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject

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


def survival_atol(table) -> float:
    """How far the table's linear read-off may sit from an evaluated cdf.

    The grid merges breakpoints closer than ``_EDGE_RTOL × scale``, so a
    cdf may bend up to that far inside a subregion it is read linearly
    across: off by at most that gap times the largest density.  A chain
    of merges can leave a breakpoint further from every edge, so the gap
    is the larger of the threshold and the furthest one actually left.
    """
    edges = table.edges
    scale = max(abs(float(edges[0])), abs(float(edges[-1])), 1.0)
    breakpoints = table.pack.edges_flat
    inside = breakpoints[(breakpoints > edges[0]) & (breakpoints < edges[-1])]
    right = np.searchsorted(edges, inside)
    left_out = np.minimum(inside - edges[right - 1], edges[right] - inside)
    gap = max(_EDGE_RTOL * scale, float(left_out.max(initial=0.0)))
    return gap * float(table.pack.densities_flat.max())


#: Two supports 0.99e-12 apart on a grid of scale 1: one object's near
#: point merges into the other's, and the read-off lands 1.17e-12 off —
#: past a fixed 1e-12, inside the gap × density bound of 1.5e-12.
NEAR_DUPLICATE_PAIR = SubregionTable(
    [
        _make(i, "gap", lo, 1.0).distance_distribution(0.0)
        for i, lo in enumerate((0.0, 9.9e-13))
    ]
)


@settings(max_examples=80, deadline=None)
@given(candidate_tables())
@example(NEAR_DUPLICATE_PAIR)
def test_table_survival_equals_evaluated_survival(table):
    refiner = Refiner(table)
    xs_unit, _ = gauss_legendre_nodes(refiner.nodes_per_subregion)
    t = 0.5 * (1.0 + xs_unit)
    every = np.arange(table.n_inner)
    derived = refiner._node_survival(every, t)

    edges = table.edges
    nodes = edges[:-1, None] + np.diff(edges)[:, None] * t
    evaluated = table.pack.sf_many(nodes.reshape(-1)).reshape(derived.shape)
    np.testing.assert_allclose(
        derived, evaluated, rtol=0.0, atol=survival_atol(table)
    )


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


def loop_refine(refiner, i, states, query, use_verifier_slices):
    """``refine_object`` as a per-subregion Python loop (warming eight
    subregions at a time): the oracle for the prefix scan."""
    table = refiner.table
    s = np.asarray(table.s_inner[i], dtype=float)
    if use_verifier_slices:
        lo = s * table.q_lower[i]
        up = s * table.q_upper[i]
    else:
        lo = np.zeros_like(s)
        up = s.copy()
    cur_lo = float(lo.sum())
    cur_up = float(up.sum())
    pad = states.pad
    relevant = np.flatnonzero((s > 0.0) | (up > lo))
    if refiner._order == "widest":
        relevant = relevant[np.argsort(-(up - lo)[relevant], kind="stable")]
    best_lo = float(states.lower[i])
    best_up = float(states.upper[i])
    threshold, tolerance = query.threshold, query.tolerance
    integrated, label = 0, 0
    for start in range(0, relevant.size, 8):
        if label:
            break
        chunk = relevant[start : start + 8]
        refiner._ensure_weighted_excl(chunk)
        for j in chunk.tolist():
            p_ij = 0.5 * float(s[j]) * float(refiner._weighted[i, j])
            cur_lo += p_ij - float(lo[j])
            cur_up += p_ij - float(up[j])
            integrated += 1
            best_lo = max(best_lo, min(max(cur_lo - pad, 0.0), 1.0))
            best_up = min(best_up, min(max(cur_up + pad, 0.0), 1.0))
            if best_lo > best_up:
                best_lo = best_up = 0.5 * (best_lo + best_up)
            if best_up < threshold:
                label = 2
            elif best_lo >= threshold or best_up - best_lo <= tolerance:
                label = 1
            if label:
                break
    refiner.integrations += integrated
    if not label:
        exact = min(max(cur_lo, 0.0), 1.0)
        best_lo = min(max(exact - pad, 0.0), 1.0)
        best_up = min(max(exact + pad, 0.0), 1.0)
        label = 1 if exact >= threshold else 2
    states.lower[i] = best_lo
    states.upper[i] = best_up
    states.labels[i] = label
    return integrated


def _twin(states):
    twin = CandidateStates(states.keys, pad=states.pad)
    twin.lower[:] = states.lower
    twin.upper[:] = states.upper
    twin.labels[:] = states.labels
    return twin


def assert_scan_is_loop(refiner, i, states, query, use_verifier_slices):
    """Scan and loop on one refiner (so the same ``W``): equal bits."""
    scanned, looped = _twin(states), _twin(states)
    before = refiner.integrations
    got = refiner.refine_object(i, scanned, query, use_verifier_slices)
    scan_integrations = refiner.integrations - before
    want = loop_refine(refiner, i, looped, query, use_verifier_slices)
    assert got == want == refiner.integrations - before - scan_integrations
    assert scanned.labels[i] == looped.labels[i]
    assert scanned.lower[i] == looped.lower[i]
    assert scanned.upper[i] == looped.upper[i]


@settings(max_examples=60, deadline=None)
@given(
    candidate_tables(),
    st.floats(0.01, 0.95),
    st.sampled_from([0.0, 0.005, 0.05]),
    st.sampled_from(["widest", "left"]),
    st.booleans(),
)
def test_scan_equals_per_subregion_loop(table, threshold, tolerance, order, slices):
    refiner = Refiner(table, order=order)
    query = CPNNQuery(0.0, threshold=threshold, tolerance=tolerance)
    states = CandidateStates(table.keys)
    if slices:  # start from the verifier chain's bounds, as the engine does
        default_chain().run(table, states, query)
    for i in range(table.size):
        assert_scan_is_loop(refiner, i, states, query, slices)


def test_scan_equals_loop_through_the_collapse():
    # A state lower bound above the object's true probability makes the
    # running upper bound cross it: the midpoint collapse decides.
    objects = [UncertainObject.uniform(i, 0.1 * i, 4 + 0.3 * i) for i in range(12)]
    table = SubregionTable([o.distance_distribution(0.0) for o in objects])
    refiner = Refiner(table)
    exact = Refiner(table).exact_all()
    query = CPNNQuery(0.0, threshold=0.97, tolerance=0.0)
    collapsed = 0
    for i in range(table.size):
        states = CandidateStates(table.keys)
        states.lower[i] = min(exact[i] + 0.2, 0.95)
        assert_scan_is_loop(refiner, i, states, query, True)
        refiner.refine_object(i, states, query)
        collapsed += states.lower[i] == states.upper[i]
    assert collapsed
