"""The records view: a result's per-candidate columns, seen as records.

``QueryResult.records`` is an :class:`AnswerRecords` view over read-only
columns whose :class:`AnswerRecord` objects are built on first access.
It must read exactly as the list the engine used to build — kept here as
the reference — for every family, and it must stay read-only, pickle as
columns and keep replayed snapshots apart.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from repro.core.batch import point_key
from repro.core.engine import UncertainEngine
from repro.core.refinement import Refiner
from repro.core.state import CandidateStates
from repro.core.subregions import SubregionTable
from repro.core.types import (
    AnswerRecord,
    AnswerRecords,
    CKNNQuery,
    CPNNQuery,
    CRangeQuery,
    Label,
    QueryResult,
)
from repro.core.verifiers import default_chain
from repro.datasets.longbeach import LONG_BEACH_DOMAIN, long_beach_surrogate
from repro.uncertainty.parametric import GaussianObject
from tests.conftest import make_random_objects


def reference_records(engine, spec) -> list[AnswerRecord]:
    """The list the engine built before its records became columns:
    chain, refinement, then one record per candidate."""
    filtered = engine._filter(spec.q)
    table = SubregionTable([o.distance_distribution(spec.q) for o in filtered.candidates])
    states = CandidateStates(table.keys)
    default_chain().run(table, states, spec)
    refiner = Refiner(table)
    for i in states.unknown_indices():
        refiner.refine_object(int(i), states, spec)
    records = []
    for i, key in enumerate(table.keys):
        exact = None
        if states.upper[i] - states.lower[i] <= 3 * states.pad:
            exact = 0.5 * (states.upper[i] + states.lower[i])
        records.append(
            AnswerRecord(
                key, states.label_of(i), float(states.lower[i]), float(states.upper[i]), exact
            )
        )
    return records


@pytest.fixture
def engine(rng):
    return UncertainEngine(make_random_objects(rng, 300, domain=(0.0, 200.0)))


@pytest.fixture
def specs(rng):
    return [
        CPNNQuery(float(q), threshold, tolerance)
        for q in rng.uniform(0.0, 200.0, 10)
        for threshold, tolerance in ((0.3, 0.01), (0.05, 0.0))
    ]


class TestAgainstTheList:
    def test_equals_the_reference_list(self, engine, specs):
        refined = 0
        for spec in specs:
            result = engine.execute(spec)
            want = reference_records(engine, spec)
            assert result.records == want
            assert want == result.records
            assert result.answers == tuple(
                r.key for r in want if r.label is Label.SATISFY
            )
            for got, ref in zip(result.records, want):
                assert (got.lower, got.upper) == (ref.lower, ref.upper)
            refined += result.refined_objects
        assert refined, "some candidate reached refinement"

    def test_sequence_surface(self, engine, specs):
        records = engine.execute(specs[0]).records
        built = list(records)
        assert len(records) == len(built) > 1
        assert records[0] == built[0] and records[-1] == built[-1]
        assert records[1:3] == built[1:3]
        assert list(iter(records)) == built
        assert built[0] in records
        assert records.keys == tuple(r.key for r in built)
        empty = UncertainEngine([]).execute(CPNNQuery(1.0))
        assert empty.records == [] and [] == empty.records
        assert len(empty.records) == 0

    def test_read_only(self, engine, specs):
        records = engine.execute(specs[0]).records
        with pytest.raises(AttributeError):
            records.append(records[0])
        with pytest.raises(TypeError):
            records[0] = records[1]
        for column in (records.codes, records.lower, records.upper, records.exact):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_a_list_of_records_is_wrapped(self):
        record = AnswerRecord("a", Label.SATISFY, 0.4, 0.6)
        result = QueryResult(answers=("a",), records=[record])
        assert isinstance(result.records, AnswerRecords)
        assert result.records[0] is record
        assert result.records.keys == ("a",)
        assert math.isnan(result.records.exact[0])


class TestFamilies:
    def test_every_family_fills_the_same_view(self, engine, specs):
        gaussian = UncertainEngine(
            [GaussianObject(i, 3.0 * i, 3.0 * i + 10.0) for i in range(40)]
        )
        results = {
            "histogram": next(
                r for r in map(engine.execute, specs) if r.refined_objects
            ),
            "parametric": gaussian.execute(CPNNQuery(50.0, 0.3, 0.01)),
            "range": engine.execute(CRangeQuery(100.0, threshold=0.5, radius=6.0)),
            "knn": engine.execute(CKNNQuery(100.0, threshold=0.3, k=2)),
            "knn-trivial": UncertainEngine(engine.objects[:3]).execute(
                CKNNQuery(1.0, threshold=0.3, k=5)
            ),
        }
        for family, result in results.items():
            assert isinstance(result.records, AnswerRecords), family
            assert len(result.records), family
            for record in result.records:
                # one exact type: a Python float or None, never np.float64
                assert type(record.exact) in (float, type(None)), family
                assert type(record.lower) is float and type(record.upper) is float
            assert "np.float64" not in repr(list(result.records)), family
        for family in ("range", "knn-trivial"):
            assert any(r.exact is not None for r in results[family].records), family


class TestTransport:
    def test_pickle_round_trip(self, engine, specs):
        result = engine.execute(specs[1])
        back = pickle.loads(pickle.dumps(result))
        assert back.records == result.records
        assert back.answers == result.answers
        for name in ("codes", "lower", "upper"):
            assert np.array_equal(getattr(back.records, name), getattr(result.records, name))
        assert np.array_equal(back.records.exact, result.records.exact, equal_nan=True)
        assert not back.records.lower.flags.writeable

    def test_result_equality_does_not_raise(self, engine, specs):
        result = engine.execute(specs[0])
        assert result == copy.deepcopy(result)
        other = engine.execute(specs[2])
        assert (result == other) is False

    def test_batch_pickles_smaller_than_the_list_form(self):
        """A 128-query uniform batch: columns vs one dataclass per
        candidate (≥ 1.5x smaller)."""
        objects = long_beach_surrogate(n=20_000, mean_length=42.0, seed=7)
        engine = UncertainEngine(objects)
        points = np.random.default_rng(3).uniform(*LONG_BEACH_DOMAIN, 128)
        batch = engine.execute_batch([CPNNQuery(float(q), 0.3, 0.01) for q in points])
        as_lists = copy.deepcopy(batch)
        for result in as_lists.results:
            result.records = list(result.records)
        columns = len(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL))
        lists = len(pickle.dumps(as_lists, protocol=pickle.HIGHEST_PROTOCOL))
        assert lists >= 1.5 * columns, (lists, columns)


class TestSnapshots:
    def test_mutating_a_replayed_record_leaves_the_snapshot_alone(self, engine, specs):
        engine.execute_batch(specs[:4])
        first = engine.execute_batch(specs[:4])
        assert first.result_hits == 4
        record = first.results[0].records[0]
        original = (record.lower, record.label)
        record.lower, record.label = -1.0, Label.UNKNOWN
        again = engine.execute_batch(specs[:4])
        assert again.result_hits == 4
        assert (again.results[0].records[0].lower, again.results[0].records[0].label) == original
        entry = engine._table_cache.peek(point_key(specs[0].q))
        stored = entry.results[(CPNNQuery, specs[0].threshold, specs[0].tolerance)]
        assert (stored.records[0].lower, stored.records[0].label) == original
