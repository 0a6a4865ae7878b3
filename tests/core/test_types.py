"""Tests for query/result types."""

import math

import pytest

from repro.core.types import (
    AnswerRecord,
    CKNNQuery,
    CPNNQuery,
    CRangeQuery,
    Label,
    PhaseTimings,
    QueryResult,
)


class TestCPNNQuery:
    def test_defaults_match_paper(self):
        # Section V-A: default P = 0.3, Δ = 0.01.
        q = CPNNQuery(q=5.0)
        assert q.threshold == 0.3
        assert q.tolerance == 0.01

    def test_threshold_range(self):
        CPNNQuery(0.0, threshold=1.0)
        with pytest.raises(ValueError):
            CPNNQuery(0.0, threshold=0.0)
        with pytest.raises(ValueError):
            CPNNQuery(0.0, threshold=1.5)

    def test_tolerance_range(self):
        CPNNQuery(0.0, tolerance=0.0)
        CPNNQuery(0.0, tolerance=1.0)
        with pytest.raises(ValueError):
            CPNNQuery(0.0, tolerance=-0.1)

    def test_frozen(self):
        q = CPNNQuery(0.0)
        with pytest.raises(AttributeError):
            q.threshold = 0.5


FAMILIES = {
    "cpnn": lambda q: CPNNQuery(q),
    "knn": lambda q: CKNNQuery(q, k=2),
    "range": lambda q: CRangeQuery(q, radius=1.0),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize(
    "q", [math.nan, math.inf, -math.inf, (1.0, math.nan)], ids=repr
)
def test_non_finite_query_point_rejected_at_construction(family, q):
    """A NaN or infinite coordinate never reaches the filtering kernels,
    where each family used to fail differently (or answer nothing)."""
    with pytest.raises(ValueError, match="q must be finite"):
        FAMILIES[family](q)
    FAMILIES[family]((1.0, 2.0) if isinstance(q, tuple) else 1.0)


def test_nan_radius_rejected_at_construction():
    with pytest.raises(ValueError, match="radius"):
        CRangeQuery(1.0, radius=math.nan)
    CRangeQuery(1.0, radius=0.0)


class TestPhaseTimings:
    def test_total(self):
        t = PhaseTimings(filtering=1.0, initialization=0.5, verification=2.0, refinement=3.0)
        assert t.total == pytest.approx(6.5)


class TestResultTypes:
    def test_record_for(self):
        record = AnswerRecord(key="a", label=Label.SATISFY, lower=0.4, upper=0.6)
        result = QueryResult(answers=("a",), records=[record])
        assert result.record_for("a") is record
        with pytest.raises(KeyError):
            result.record_for("missing")

    def test_bound_width(self):
        record = AnswerRecord(key="a", label=Label.UNKNOWN, lower=0.2, upper=0.5)
        assert record.bound_width == pytest.approx(0.3)
