"""Reference checks for the answers the workloads time.

Everything here runs outside the timed regions.  The checks recompute an
answer by a path that shares no code with the one measured: brute-force
integration from :mod:`repro.baselines` for C-PNN, the distance cdf for
range, and the plain ``execute`` loop for batches (the engine's own
batch == loop contract).
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from repro.baselines import basic_pnn_probabilities

__all__ = [
    "IntervalIndex",
    "check_against_golden",
    "check_pnn",
    "check_range",
    "digest",
    "same_result",
]

#: Slack for comparing a bound with a probability integrated another way.
EPS = 1e-6

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


class IntervalIndex:
    """The 1-D objects' endpoints as arrays: near / far distances of
    every object from ``q`` in two numpy expressions."""

    def __init__(self, objects) -> None:
        self.objects = list(objects)
        self.lo = np.array([obj.lo for obj in self.objects])
        self.hi = np.array([obj.hi for obj in self.objects])

    def near_far(self, q: float) -> tuple[np.ndarray, np.ndarray]:
        near = np.maximum(np.maximum(self.lo - q, q - self.hi), 0.0)
        far = np.maximum(q - self.lo, self.hi - q)
        return near, far


def check_pnn(index: IntervalIndex, spec, result, subdivisions: int) -> str | None:
    """``{p >= P} ⊆ answers ⊆ {p >= P − Δ}`` and ``lower <= p <= upper``
    per record, against brute-force probabilities; ``None`` when sound."""
    q = float(spec.q)
    near, far = index.near_far(q)
    candidates = [index.objects[i] for i in np.flatnonzero(near <= far.min())]
    exact = basic_pnn_probabilities(candidates, q, subdivisions=subdivisions)
    answers = set(result.answers)
    if {r.key for r in result.records} != set(exact):
        return f"q={q}: records do not cover the candidate set"
    for record in result.records:
        p = exact[record.key]
        if not record.lower - EPS <= p <= record.upper + EPS:
            return (
                f"q={q} key={record.key}: p={p} outside "
                f"[{record.lower}, {record.upper}]"
            )
        if p >= spec.threshold + EPS and record.key not in answers:
            return f"q={q} key={record.key}: p={p} >= P but not answered"
        if record.key in answers and p < spec.threshold - spec.tolerance - EPS:
            return f"q={q} key={record.key}: answered with p={p} < P - Δ"
    return None


def _within_probability(obj, q: float, radius: float) -> float:
    """``Pr[|X - q| <= radius]`` from the object's own model: the
    truncated-Gaussian closed form when it has one, else the cdf of its
    folded histogram."""
    pdf = obj.pdf
    if not hasattr(pdf, "sigma"):
        return float(obj.distance_distribution(q).cdf(radius))

    def phi(x: float) -> float:
        return 0.5 * (1.0 + math.erf((x - pdf.mean_parameter) / (pdf.sigma * math.sqrt(2.0))))

    inside = phi(min(q + radius, pdf.hi)) - phi(max(q - radius, pdf.lo))
    return inside / (phi(pdf.hi) - phi(pdf.lo))


def check_range(index: IntervalIndex, spec, result) -> str | None:
    """Range answers against the exact ``cdf(radius)`` of each object
    (object keys are positions in the Long Beach surrogate)."""
    q, radius = float(spec.q), float(spec.radius)
    near, far = index.near_far(q)
    answers = set(result.answers)
    for i in np.flatnonzero(near <= radius):
        p = 1.0 if far[i] <= radius else _within_probability(index.objects[i], q, radius)
        if abs(p - spec.threshold) > EPS and (p >= spec.threshold) != (int(i) in answers):
            return f"range q={q} key={i}: cdf(radius)={p} against P={spec.threshold}"
    if any(near[key] > radius for key in answers):
        return f"range q={q}: an answer lies wholly outside the radius"
    return None


def same_result(a, b) -> bool:
    """Bit-level agreement of two results for one spec: the engine's
    batch == loop == sharded contract."""
    if a.answers != b.answers or len(a.records) != len(b.records):
        return False
    return all(
        (x.key, x.label, x.lower, x.upper) == (y.key, y.label, y.lower, y.upper)
        for x, y in zip(a.records, b.records)
    )


def digest(answer_stream) -> str:
    """SHA-256 of a sequence of answer tuples (keys only: discrete, so
    the digest does not hang on the last bit of a probability)."""
    payload = json.dumps([list(map(str, answers)) for answers in answer_stream])
    return hashlib.sha256(payload.encode()).hexdigest()


def check_against_golden(workload: str, seed: int, digests: dict) -> str | None:
    """Compare answer-stream digests with ``golden/<workload>.json``.

    Only for the recorded seed, and only when numpy's major.minor
    matches the recorded one; other runs rest on the reference checks.
    """
    path = os.path.join(GOLDEN_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as source:
        golden = json.load(source)
    if golden["seed"] != seed:
        return None
    if golden["numpy"] != ".".join(np.__version__.split(".")[:2]):
        return None
    for name, value in digests.items():
        if name in golden["digests"] and golden["digests"][name] != value:
            return f"{workload}: answer digest {name!r} differs from golden"
    return None
