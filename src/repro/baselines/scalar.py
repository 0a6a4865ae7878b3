"""Scalar reference evaluators for the k-NN and range query families.

The engine answers :class:`~repro.core.types.CKNNQuery` and
:class:`~repro.core.types.CRangeQuery` specs through MBR filtering,
cached distributions and columnar kernels; these two functions are the
unfiltered per-object loops those routed paths are checked against.
They stay N-shaped — one record per object — because they are the
oracle: the routed results list only the filtered candidates, and
:func:`assert_covers` states what "the same result" then means.  They
are the yardstick the property suites and
``benchmarks/test_batch_throughput.py`` compare against, not an entry
point: every object's distance distribution is rebuilt on every call.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.core.knn import knn_probability_bounds, knn_qualification_probabilities
from repro.core.types import AnswerRecord, CPNNQuery, Label

__all__ = ["assert_covers", "scalar_knn_query", "scalar_range_query"]


def _fields(record: AnswerRecord) -> tuple:
    return (record.key, record.label, record.lower, record.upper, record.exact)


def assert_covers(result, oracle_answers: tuple, oracle_records: Sequence) -> None:
    """The strict two-tier contract between a candidate-shaped result
    (the cheap tier) and an oracle that lists every object.

    * the answers are equal, in order;
    * every record the result emits equals the oracle's record for that
      key bit for bit (``key, label, lower, upper, exact``), in the
      oracle's order — so the result names no key the oracle lacks;
    * every oracle record the result omits is the implied one: ``FAIL``
      with ``lower == upper == 0.0`` and no exact value — nothing the
      filter dropped would have been kept, or even scored, by the oracle.

    Raises :class:`AssertionError` naming the first breach.
    """
    if tuple(result.answers) != tuple(oracle_answers):
        raise AssertionError(
            f"answers differ: {result.answers!r} != {tuple(oracle_answers)!r}"
        )
    emitted = {record.key for record in result.records}
    got = [_fields(record) for record in result.records]
    want = [_fields(record) for record in oracle_records if record.key in emitted]
    if got != want:
        breach = next((pair for pair in zip(got, want) if pair[0] != pair[1]), None)
        raise AssertionError(
            f"emitted records differ from the oracle's ({len(got)} emitted, "
            f"{len(want)} matched by key): first mismatch {breach!r}"
        )
    for record in oracle_records:
        if record.key not in emitted and _fields(record)[1:] != (
            Label.FAIL, 0.0, 0.0, None,
        ):
            raise AssertionError(f"omitted record is not an implied FAIL 0/0: {record}")


def scalar_knn_query(
    objects: Sequence,
    q,
    k: int,
    threshold: float,
    tolerance: float = 0.0,
) -> tuple[tuple, list[AnswerRecord]]:
    """Objects among the ``k`` nearest neighbours of ``q`` with
    probability ≥ ``threshold``; returns ``(answer keys, records)``.

    The verification stage uses the RS-style bound pair of
    :func:`~repro.core.knn.knn_probability_bounds`; objects that survive
    it are resolved with the exact integral.  (Tolerance only matters
    in the verifier stage: exact values have zero bound width.)
    """
    if not objects:
        raise ValueError("need at least one object")
    if k < 1:
        raise ValueError("k must be at least 1")
    query = CPNNQuery(q, threshold, tolerance)
    distributions = [obj.distance_distribution(q) for obj in objects]
    k = min(int(k), len(distributions))
    records: list[AnswerRecord] = []
    if k >= len(distributions):
        answers = tuple(d.key for d in distributions)
        records = [
            AnswerRecord(key=d.key, label=Label.SATISFY, lower=1.0, upper=1.0, exact=1.0)
            for d in distributions
        ]
        return answers, records
    # RS-style verification on both sides (no integration):
    # fail when the upper bound misses P, satisfy when the lower
    # bound clears it, integrate exactly only for the rest.
    bounds = knn_probability_bounds(distributions, k)
    needs_exact = [
        i
        for i, (lower, upper) in enumerate(bounds)
        if lower < query.threshold <= upper
    ]
    exact_probs: dict[Hashable, float] = {}
    if needs_exact:
        exact_probs = knn_qualification_probabilities(
            distributions, q, k
        )
    answers = []
    for i, dist in enumerate(distributions):
        lower, upper = bounds[i]
        if upper < query.threshold:
            records.append(
                AnswerRecord(
                    key=dist.key,
                    label=Label.FAIL,
                    lower=lower,
                    upper=upper,
                    exact=None,
                )
            )
            continue
        if lower >= query.threshold:
            records.append(
                AnswerRecord(
                    key=dist.key,
                    label=Label.SATISFY,
                    lower=lower,
                    upper=upper,
                    exact=None,
                )
            )
            answers.append(dist.key)
            continue
        p = exact_probs[dist.key]
        label = Label.SATISFY if p >= query.threshold else Label.FAIL
        records.append(
            AnswerRecord(
                key=dist.key, label=label, lower=p, upper=p, exact=p
            )
        )
        if label is Label.SATISFY:
            answers.append(dist.key)
    return tuple(answers), records


def scalar_range_query(
    objects: Sequence,
    q,
    radius: float,
    threshold: float,
    tolerance: float = 0.0,
) -> tuple[tuple, list[AnswerRecord]]:
    """Objects within ``radius`` of ``q`` with probability ≥ ``threshold``.

    Returns ``(answer keys, per-object records)``.  Objects decided by
    their bounding boxes never touch their pdfs; the records show
    which path decided each object (bound width 0 for MBR decisions
    and exact evaluations alike — range probabilities are cheap enough
    that no partial bounds are ever needed).
    """
    if not objects:
        raise ValueError("need at least one object")
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    if not 0.0 <= tolerance <= 1.0:
        raise ValueError("tolerance must lie in [0, 1]")
    answers = []
    records: list[AnswerRecord] = []
    for obj in objects:
        if obj.maxdist(q) <= radius:
            p, exact = 1.0, None
        elif obj.mindist(q) > radius:
            p, exact = 0.0, None
        else:
            p = float(obj.distance_distribution(q).cdf(radius))
            exact = p
        label = Label.SATISFY if p >= threshold else Label.FAIL
        records.append(
            AnswerRecord(key=obj.key, label=label, lower=p, upper=p, exact=exact)
        )
        if label is Label.SATISFY:
            answers.append(obj.key)
    return tuple(answers), records
