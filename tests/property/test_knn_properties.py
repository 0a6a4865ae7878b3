"""Property-based tests for the k-NN extension."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import scalar_knn_query
from repro.core.knn import knn_qualification_probabilities
from repro.uncertainty.objects import UncertainObject


@st.composite
def knn_cases(draw):
    n = draw(st.integers(2, 8))
    objects = []
    for i in range(n):
        lo = draw(st.floats(-15, 15))
        width = draw(st.floats(0.3, 8))
        objects.append(UncertainObject.uniform(i, lo, lo + width))
    q = draw(st.floats(-20, 20))
    k = draw(st.integers(1, n))
    return objects, q, k


@settings(max_examples=40, deadline=None)
@given(knn_cases())
def test_knn_probabilities_sum_to_k(case):
    objects, q, k = case
    probs = knn_qualification_probabilities(objects, q, k=k)
    assert abs(sum(probs.values()) - min(k, len(objects))) < 1e-7
    assert all(-1e-9 <= p <= 1 + 1e-9 for p in probs.values())


@settings(max_examples=25, deadline=None)
@given(knn_cases())
def test_knn_monotone_in_k(case):
    objects, q, k = case
    if k >= len(objects):
        return
    pk = knn_qualification_probabilities(objects, q, k=k)
    pk1 = knn_qualification_probabilities(objects, q, k=k + 1)
    for key in pk:
        assert pk[key] <= pk1[key] + 1e-8


@settings(max_examples=25, deadline=None)
@given(knn_cases(), st.floats(0.05, 0.95))
def test_scalar_knn_answers_match_exact_thresholding(case, threshold):
    objects, q, k = case
    answers, records = scalar_knn_query(objects, q, k, threshold)
    exact = knn_qualification_probabilities(objects, q, k=k)
    for key, p in exact.items():
        if p >= threshold + 1e-7:
            assert key in answers
        elif p <= threshold - 1e-7:
            assert key not in answers
    # Records carry sound upper bounds.
    for record in records:
        assert exact[record.key] <= record.upper + 1e-7
