"""The staged replay ``bench/`` times equals ``execute``, bit for bit.

``bench/workloads/pnn.py``'s traced pass answers each query twice: by
``execute``, and by a replay through the public class of every stage —
the reference ``PnnFilter`` over an STR tree, one
``distance_distribution`` per candidate, ``SubregionTable``, the
``default_chain()`` verifiers, and ``Refiner`` — and counts any
disagreement as a failed op.  These tests pin that contract on the two
``pnn_*`` corpora at a small number of queries, so a change to the
engine that breaks it fails here and not only in a traced run.
"""

import numpy as np
import pytest

from repro import CPNNQuery, Label, UncertainEngine
from repro.core import CandidateStates, Refiner, SubregionTable, default_chain
from repro.datasets.longbeach import LONG_BEACH_DOMAIN, long_beach_surrogate
from repro.index.filtering import PnnFilter
from repro.index.str_pack import str_bulk_load


def staged(pnn_filter, spec):
    """The replay: every stage through its public class."""
    filtered = pnn_filter(spec.q)
    table = SubregionTable([obj.distance_distribution(spec.q) for obj in filtered.candidates])
    states = CandidateStates(table.keys)
    refiner = Refiner(table)
    states.classify(spec.threshold, spec.tolerance)
    for verifier in default_chain().verifiers:
        if states.n_unknown == 0:
            break
        update = verifier.compute(table)
        states.tighten(lower=update.lower, upper=update.upper)
        states.classify(spec.threshold, spec.tolerance)
    for j in states.unknown_indices():
        refiner.refine_object(int(j), states, spec)
    return filtered, table.keys, states


CORPORA = {
    # pnn_verify: uniform pdfs, ~96 candidates, P = 0.3, Δ = 0.01
    "pnn_verify": (dict(n=20_000, mean_length=42.0), 0.3, 0.01, 200),
    # pnn_refine: 300-bar Gaussian histograms, P = 0.05, Δ = 0
    "pnn_refine": (
        dict(n=10_000, mean_length=36.0, pdf="gaussian", bars=300, representation="histogram"),
        0.05,
        0.0,
        100,
    ),
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_execute_equals_the_staged_replay(name):
    dataset, threshold, tolerance, count = CORPORA[name]
    objects = long_beach_surrogate(seed=7, **dataset)
    engine = UncertainEngine(objects)
    pnn_filter = PnnFilter(str_bulk_load([(obj.mbr, obj) for obj in objects], max_entries=16))
    points = np.random.default_rng(8).uniform(*LONG_BEACH_DOMAIN, count)
    for q in points:
        spec = CPNNQuery(float(q), threshold, tolerance)
        result = engine.execute(spec)
        filtered, keys, states = staged(pnn_filter, spec)
        assert result.fmin == filtered.fmin
        assert result.records.keys == keys
        assert result.records.lower.tobytes() == states.lower.tobytes()
        assert result.records.upper.tobytes() == states.upper.tobytes()
        assert [r.label for r in result.records] == [states.label_of(k) for k in range(len(keys))]
        assert result.answers == tuple(
            key for k, key in enumerate(keys) if states.label_of(k) is Label.SATISFY
        )
