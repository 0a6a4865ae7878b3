"""The survivor-order quadrature rule and the candidate-shaped records,
pinned independently of the code that uses them.

:func:`repro.core.knn._segment_rule` takes the Gauss–Legendre order
from ``active = #{j : near_j < f_min^k}`` instead of the object count.
The claim is that this loses nothing: on every segment between
breakpoints the integrand is a polynomial of degree ≤ ``active − 1``.
These tests check it three ways that do not go through the rule's own
arithmetic — against the census-order node count (reproduced through
``quadrature_margin``, with ``active`` recounted here), against the
model-free identity Σ_i p_i(k) = k, and bit for bit against the routed
``execute(CKNNQuery)`` path — on the object sets most likely to break
it: Gaussian histograms, coincident supports, duplicate near points,
and crowds far beyond ``f_min^k`` so that ``active < n``.

The degenerate cases at the bottom pin the new record shape of range
and k-NN results: one record per candidate, nothing for the rest.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import scalar_knn_query, scalar_range_query
from repro.baselines.scalar import assert_covers
from repro.core.engine import UncertainEngine
from repro.core.knn import knn_qualification_probabilities
from repro.core.types import CKNNQuery, CRangeQuery, Label
from repro.numerics.quadrature import nodes_for_degree
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.twod import UncertainDisk, UncertainRectangle

#: New rule vs census-order node count, per object.
RULE_ATOL = 1e-12

#: Σ_i p_i(k) = k.
SUM_ATOL = 1e-9

FAMILIES = ("uniform", "gaussian", "coincident", "same-near", "far")


def _make_1d(i, family, lo, width, previous):
    if family == "coincident" and previous:
        lo, width = previous[0].lo, previous[0].hi - previous[0].lo
    elif family == "same-near" and previous:
        lo = previous[0].lo  # ties in `near` whenever q lies below both
    elif family == "far":
        lo += 500.0
    if family == "gaussian":
        return UncertainObject.gaussian(i, lo, lo + width, bars=8)
    return UncertainObject.uniform(i, lo, lo + width)


def _make_2d(i, family, lo, width, previous):
    x, y = lo, 0.5 * lo + 1.0
    if family in ("coincident", "same-near") and previous:
        x, y = np.asarray(previous[0].mbr.lows, dtype=float)
        if family == "coincident":
            width = float(previous[0].mbr.highs[0] - x)
    elif family == "far":
        x += 500.0
    if family == "gaussian":  # a disk: its distance pdf is a many-bar histogram
        return UncertainDisk(i, (x + width / 2, y + width / 2), width / 2)
    return UncertainRectangle.from_bounds(
        i, x, y, x + width, y + width, distance_bins=16
    )


@st.composite
def knn_cases(draw):
    dim = draw(st.sampled_from(["1d", "2d"]))
    n = draw(st.integers(3, 9))
    make = _make_1d if dim == "1d" else _make_2d
    objects = []
    for i in range(n):
        family = draw(st.sampled_from(FAMILIES))
        lo = draw(st.floats(0.0, 20.0))
        width = draw(st.floats(0.5, 8.0))
        objects.append(make(i, family, lo, width, objects))
    q = draw(st.floats(-5.0, 25.0))
    k = draw(st.sampled_from([1, 2, 3, n - 1]))
    return objects, (q if dim == "1d" else (q, 3.0)), min(k, n - 1)


def census_margin(objects, q, k) -> int:
    """The ``quadrature_margin`` that makes the survivor-order rule use
    the old census-order node count, ``nodes_for_degree(n − 1) + 1``."""
    distributions = [obj.distance_distribution(q) for obj in objects]
    fmin_k = sorted(d.far for d in distributions)[k - 1]
    active = sum(d.near < fmin_k for d in distributions)
    return (
        nodes_for_degree(len(objects) - 1) + 1 - nodes_for_degree(max(active - 1, 0))
    )


@settings(max_examples=60, deadline=None)
@given(knn_cases())
def test_survivor_order_rule_agrees_with_census_order(case):
    objects, q, k = case
    margin = census_margin(objects, q, k)
    assert margin >= 1
    new = knn_qualification_probabilities(objects, q, k=k)
    old = knn_qualification_probabilities(objects, q, k=k, quadrature_margin=margin)
    assert new.keys() == old.keys()
    for key in new:
        assert abs(new[key] - old[key]) <= RULE_ATOL, (key, margin)


@settings(max_examples=60, deadline=None)
@given(knn_cases())
def test_probabilities_sum_to_k(case):
    objects, q, k = case
    probs = knn_qualification_probabilities(objects, q, k=k)
    assert abs(sum(probs.values()) - k) <= SUM_ATOL


@settings(max_examples=60, deadline=None)
@given(knn_cases(), st.sampled_from([0.05, 0.3, 0.6, 0.9]))
def test_routed_exact_values_are_the_oracles(case, threshold):
    objects, q, k = case
    result = UncertainEngine(objects).execute(CKNNQuery(q, threshold=threshold, k=k))
    oracle = knn_qualification_probabilities(objects, q, k=k)
    for record in result.records:
        if record.exact is not None:
            assert record.exact == oracle[record.key]  # bit for bit
        assert record.lower - 1e-9 <= oracle[record.key] <= record.upper + 1e-9
    omitted = oracle.keys() - {r.key for r in result.records}
    assert all(oracle[key] == 0.0 for key in omitted)
    assert_covers(result, *scalar_knn_query(objects, q, k, threshold))


def test_far_crowd_does_not_set_the_order():
    """40 objects beyond ``f_min^k`` leave the node count, and the exact
    values, where 3 active objects put them."""
    near = [UncertainObject.gaussian(i, 0.5 * i, 0.5 * i + 4.0, bars=8) for i in range(3)]
    crowd = [UncertainObject.uniform(f"far-{i}", 100.0 + i, 101.0 + i) for i in range(40)]
    alone = knn_qualification_probabilities(near, 1.0, k=2)
    crowded = knn_qualification_probabilities(near + crowd, 1.0, k=2)
    assert {key: crowded[key] for key in alone} == alone  # same nodes, same bits
    assert census_margin(near + crowd, 1.0, 2) == nodes_for_degree(42) + 1 - nodes_for_degree(2)


def test_k_plus_one_survivors_integrate_like_the_oracle():
    """m == k + 1: the smallest survivor set an exact integral sees, and
    the edge of ``prob_at_most_vectorized``'s ``threshold >= n``
    shortcut now that the object's own row is zeroed, not deleted."""
    objects = [
        UncertainObject.uniform("a", 0.0, 2.0),
        UncertainObject.uniform("b", 0.5, 2.5),
        UncertainObject.gaussian("c", 0.2, 2.2, bars=8),
        UncertainObject.uniform("far", 50.0, 51.0),
    ]
    for k in (1, 2):
        keep = objects[: k + 1] + objects[-1:]
        result = UncertainEngine(keep).execute(CKNNQuery(1.0, threshold=0.5, k=k))
        assert len(result.records) == k + 1
        assert result.refined_objects > 0
        assert_covers(result, *scalar_knn_query(keep, 1.0, k, 0.5))


# ----------------------------------------------------------------------
# Degenerate inputs for the candidate-shaped record contract
# ----------------------------------------------------------------------


def line():
    return [UncertainObject.uniform(i, 10.0 * i, 10.0 * i + 2.0) for i in range(5)]


def test_range_with_no_candidates_is_empty_and_finished():
    objects = line()
    result = UncertainEngine(objects).execute(CRangeQuery(-50.0, threshold=0.5, radius=3.0))
    assert result.records == [] and result.answers == ()
    assert result.finished_after_verification
    assert_covers(result, *scalar_range_query(objects, -50.0, 3.0, 0.5))


def test_range_radius_zero_on_an_object_centre():
    objects = line()
    result = UncertainEngine(objects).execute(CRangeQuery(11.0, threshold=0.5, radius=0.0))
    (record,) = result.records  # the one object whose region holds q
    assert (record.key, record.label, record.lower, record.upper) == (1, Label.FAIL, 0.0, 0.0)
    assert record.exact == 0.0  # evaluated, not implied: cdf(0) of a straddler
    assert result.answers == ()
    assert_covers(result, *scalar_range_query(objects, 11.0, 0.0, 0.5))


def test_range_every_object_certainly_inside():
    objects = line()
    result = UncertainEngine(objects).execute(CRangeQuery(20.0, threshold=1.0, radius=100.0))
    assert result.answers == tuple(range(5))
    assert all((r.lower, r.upper, r.exact) == (1.0, 1.0, None) for r in result.records)
    assert result.finished_after_verification
    assert_covers(result, *scalar_range_query(objects, 20.0, 100.0, 1.0))


@pytest.mark.parametrize("k", [5, 9])
def test_knn_k_at_least_n_lists_everyone(k):
    objects = line()
    result = UncertainEngine(objects).execute(CKNNQuery(0.0, threshold=0.5, k=k))
    assert result.answers == tuple(range(5))
    assert [r.key for r in result.records] == list(range(5))
    assert_covers(result, *scalar_knn_query(objects, 0.0, k, 0.5))


def test_disk_whose_mbr_touches_the_ball_has_no_record():
    # MBR mindist from the origin is sqrt(8) ~ 2.83, the disk's own is
    # sqrt(18) - 1 ~ 3.24: a radius between them reaches the box only.
    objects = [UncertainDisk("corner", (3.0, 3.0), 1.0), UncertainDisk("hit", (1.0, 0.0), 0.5)]
    result = UncertainEngine(objects).execute(
        CRangeQuery((0.0, 0.0), threshold=0.5, radius=3.0)
    )
    assert [r.key for r in result.records] == ["hit"]
    assert result.answers == ("hit",)
    assert_covers(result, *scalar_range_query(objects, (0.0, 0.0), 3.0, 0.5))
