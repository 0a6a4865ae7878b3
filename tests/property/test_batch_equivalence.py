"""Property tests: execute_batch ≡ a sequential execute() loop.

The batch path puts cache tiers (one filtering sweep, shared
distributions, cached tables, replayed snapshots) around the very
phases ``execute`` runs, so the two must return identical results —
bit for bit, record by record — and at tolerance 0 both must agree
with the exact ``{i : p_i ≥ P}`` semantics.  Exercised across 1-D and
2-D object mixes, and on a refinement-heavy Gaussian dataset where
several candidates per query survive verification.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import EngineConfig, UncertainEngine
from repro.core.types import CPNNQuery
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.twod import UncertainDisk, UncertainRectangle, UncertainSegment
from tests.conftest import cpnn_specs


@st.composite
def batch_cases_1d(draw):
    n = draw(st.integers(2, 10))
    objects = []
    for i in range(n):
        lo = draw(st.floats(-20, 20))
        width = draw(st.floats(0.2, 10))
        if draw(st.booleans()):
            objects.append(UncertainObject.uniform(i, lo, lo + width))
        else:
            objects.append(UncertainObject.gaussian(i, lo, lo + width, bars=8))
    n_points = draw(st.integers(1, 6))
    points = [draw(st.floats(-25, 25)) for _ in range(n_points)]
    threshold = draw(st.floats(0.05, 0.95))
    return objects, points, threshold


@st.composite
def batch_cases_2d(draw):
    n = draw(st.integers(2, 6))
    objects = []
    for i in range(n):
        cx = draw(st.floats(-8, 8))
        cy = draw(st.floats(-8, 8))
        kind = draw(st.sampled_from(["disk", "segment", "rectangle"]))
        if kind == "disk":
            objects.append(
                UncertainDisk(i, (cx, cy), draw(st.floats(0.3, 3)), distance_bins=24)
            )
        elif kind == "segment":
            dx = draw(st.floats(0.3, 4))
            dy = draw(st.floats(0.3, 4))
            objects.append(
                UncertainSegment(i, (cx, cy), (cx + dx, cy + dy), distance_bins=24)
            )
        else:
            w = draw(st.floats(0.3, 4))
            h = draw(st.floats(0.3, 4))
            objects.append(
                UncertainRectangle.from_bounds(
                    i, cx, cy, cx + w, cy + h, distance_bins=24
                )
            )
    n_points = draw(st.integers(1, 4))
    points = [
        (draw(st.floats(-10, 10)), draw(st.floats(-10, 10))) for _ in range(n_points)
    ]
    threshold = draw(st.floats(0.05, 0.95))
    return objects, points, threshold


@settings(max_examples=40, deadline=None)
@given(batch_cases_1d())
def test_batch_equals_sequential_1d(case):
    objects, points, threshold = case
    engine = UncertainEngine(objects)
    batch = engine.execute_batch(cpnn_specs(points, threshold=threshold, tolerance=0.0))
    for q, result in zip(points, batch):
        reference = engine.execute(CPNNQuery(q, threshold=threshold, tolerance=0.0))
        assert set(result.answers) == set(reference.answers)


@settings(max_examples=20, deadline=None)
@given(batch_cases_2d())
def test_batch_equals_sequential_2d(case):
    objects, points, threshold = case
    engine = UncertainEngine(objects)
    batch = engine.execute_batch(cpnn_specs(points, threshold=threshold, tolerance=0.0))
    for q, result in zip(points, batch):
        reference = engine.execute(CPNNQuery(q, threshold=threshold, tolerance=0.0))
        assert set(result.answers) == set(reference.answers)


@settings(max_examples=25, deadline=None)
@given(batch_cases_1d(), st.floats(0.0, 0.3))
def test_batch_answers_satisfy_cpnn_contract(case, tolerance):
    """Batch answers obey Definition 1 against exact probabilities."""
    objects, points, threshold = case
    engine = UncertainEngine(objects)
    batch = engine.execute_batch(
        cpnn_specs(points, threshold=threshold, tolerance=tolerance)
    )
    slack = 1e-7
    for q, result in zip(points, batch):
        exact = engine.pnn(q)
        answers = set(result.answers)
        must = {k for k, p in exact.items() if p >= threshold + slack}
        may = {k for k, p in exact.items() if p >= threshold - tolerance - slack}
        assert must <= answers <= may


@settings(max_examples=20, deadline=None)
@given(batch_cases_1d())
def test_batch_repeat_is_deterministic(case):
    """Cache warm-up must not change any answer."""
    objects, points, threshold = case
    engine = UncertainEngine(objects)
    first = engine.execute_batch(cpnn_specs(points, threshold=threshold, tolerance=0.0))
    second = engine.execute_batch(
        cpnn_specs(points, threshold=threshold, tolerance=0.0)
    )
    assert first.answers == second.answers


@settings(max_examples=15, deadline=None)
@given(batch_cases_1d())
def test_batch_linear_and_rtree_engines_agree(case):
    objects, points, threshold = case
    rtree = UncertainEngine(objects)
    linear = UncertainEngine(objects, EngineConfig(use_rtree=False))
    a = rtree.execute_batch(cpnn_specs(points, threshold=threshold, tolerance=0.0))
    b = linear.execute_batch(cpnn_specs(points, threshold=threshold, tolerance=0.0))
    assert [set(x.answers) for x in a] == [set(x.answers) for x in b]


def refine_shaped_objects():
    """Overlapping many-bar Gaussians, the shape of ``pnn_refine``, each
    with a coincident twin: with P at a candidate's exact p and Δ = 0
    no bound settles it or its twin, so refinement runs on both."""
    rng = np.random.default_rng(7)
    supports = list(zip(rng.uniform(0.0, 100.0, 80), rng.uniform(6.0, 18.0, 80)))
    return [
        UncertainObject.gaussian(i, lo, lo + width, bars=60)
        for i, (lo, width) in enumerate(supports + supports)
    ]


def assert_same_result(got, want):
    assert got.answers == want.answers
    assert got.records == want.records  # key, label, lower, upper, exact
    assert got.fmin == want.fmin
    assert got.unknown_after_verifier == want.unknown_after_verifier
    assert got.finished_after_verification == want.finished_after_verification
    assert got.refined_objects == want.refined_objects


def test_batch_is_execute_bit_for_bit():
    engine = UncertainEngine(refine_shaped_objects())
    points = [float(q) for q in np.random.default_rng(11).uniform(5.0, 110.0, 8)]
    constraints = [(0.05, 0.0), (0.3, 0.01), (0.5, 0.0), (0.05, 0.02)]
    # Refinement-heavy specs first (P at the top candidate's exact p),
    # then the same points again (duplicate points, some duplicate
    # specs) under several (P, Δ) pairs.
    specs = [CPNNQuery(q, max(engine.pnn(q).values()), 0.0) for q in points] + [
        CPNNQuery(q, *constraints[i % len(constraints)])
        for i, q in enumerate(points + points[:4])
    ]
    cold = engine.execute_batch(specs)
    warm = engine.execute_batch(specs)
    for spec, first, again in zip(specs, cold.results, warm.results):
        reference = engine.execute(spec)
        assert_same_result(first, reference)
        assert_same_result(again, reference)
    assert warm.result_hits == len(specs)
    survivors = [r.refined_objects for r in cold.results[: len(points)]]
    assert max(survivors) >= 2, "the dataset must exercise refinement"
