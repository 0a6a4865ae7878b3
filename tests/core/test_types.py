"""Tests for query/result types."""

import pytest

from repro.core.types import (
    AnswerRecord,
    CPNNQuery,
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
