"""Property-based engine contract tests over random workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import UncertainEngine
from repro.core.types import CPNNQuery
from repro.experiments.strategies import STRATEGIES
from repro.uncertainty.objects import UncertainObject

SLACK = 1e-7


@st.composite
def engine_cases(draw):
    n = draw(st.integers(2, 12))
    objects = []
    for i in range(n):
        lo = draw(st.floats(-20, 20))
        width = draw(st.floats(0.2, 10))
        objects.append(UncertainObject.uniform(i, lo, lo + width))
    q = draw(st.floats(-25, 25))
    threshold = draw(st.floats(0.05, 0.95))
    tolerance = draw(st.floats(0.0, 0.3))
    return objects, q, threshold, tolerance


@settings(max_examples=40, deadline=None)
@given(engine_cases(), st.sampled_from(list(STRATEGIES.values())))
def test_answer_set_contract(case, answer):
    objects, q, threshold, tolerance = case
    engine = UncertainEngine(objects)
    exact = engine.pnn(q)
    answers = set(
        answer(engine, CPNNQuery(q, threshold=threshold, tolerance=tolerance)).answers
    )
    must = {k for k, p in exact.items() if p >= threshold + SLACK}
    may = {k for k, p in exact.items() if p >= threshold - tolerance - SLACK}
    assert must <= answers <= may


@settings(max_examples=30, deadline=None)
@given(engine_cases())
def test_strategies_agree_at_zero_tolerance(case):
    objects, q, threshold, _ = case
    engine = UncertainEngine(objects)
    spec = CPNNQuery(q, threshold=threshold, tolerance=0.0)
    results = [set(answer(engine, spec).answers) for answer in STRATEGIES.values()]
    assert results[0] == results[1] == results[2]


@settings(max_examples=30, deadline=None)
@given(engine_cases())
def test_exact_probabilities_sum_to_one(case):
    objects, q, _, _ = case
    pnn = UncertainEngine(objects).pnn(q)
    assert abs(sum(pnn.values()) - 1.0) < 1e-8
    assert all(-1e-12 <= p <= 1 + 1e-12 for p in pnn.values())


@settings(max_examples=30, deadline=None)
@given(engine_cases())
def test_answers_monotone_in_threshold(case):
    objects, q, _, _ = case
    engine = UncertainEngine(objects)
    previous = None
    for threshold in (0.1, 0.3, 0.5, 0.8):
        answers = set(
            engine.execute(CPNNQuery(q, threshold=threshold, tolerance=0.0)).answers
        )
        if previous is not None:
            assert answers <= previous
        previous = answers


@settings(max_examples=25, deadline=None)
@given(engine_cases(), st.integers(0, 2**32 - 1))
def test_vr_bounds_contain_monte_carlo_estimate(case, seed):
    """VR's reported bounds must be consistent with sampled reality."""
    objects, q, threshold, tolerance = case
    engine = UncertainEngine(objects)
    result = engine.execute(CPNNQuery(q, threshold=threshold, tolerance=tolerance))
    exact = engine.pnn(q)
    for record in result.records:
        assert record.lower - SLACK <= exact[record.key] <= record.upper + SLACK
