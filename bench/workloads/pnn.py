"""``pnn_verify`` and ``pnn_refine``: one client, closed loop, ``execute``.

Both run the paper's pipeline one query at a time over distinct uniform
query points and differ only in which phase does the work:

* ``pnn_verify`` — uniform pdfs, ~96 candidates, P=0.3, Δ=0.01 (the
  paper's main setting): the verifiers settle almost every query, so the
  time goes to filtering and building the subregion table.
* ``pnn_refine`` — 300-bar Gaussian histograms, P=0.05, Δ=0 (Fig. 14's
  setting): ~5 candidates per query stay UNKNOWN and are refined, which
  takes three quarters of the time.

A change to one phase should move one of them and leave the other alone.
"""

from __future__ import annotations

import time

import numpy as np

from bench import reference
from bench.harness import Measurements, percentile_ms
from repro import CPNNQuery, Label, QueryResult, UncertainEngine
from repro.core import (
    AnswerRecord,
    CandidateStates,
    Refiner,
    SubregionTable,
    default_chain,
)
from repro.datasets.longbeach import LONG_BEACH_DOMAIN, long_beach_surrogate
from repro.index.filtering import PnnFilter
from repro.index.str_pack import str_bulk_load

__all__ = ["PnnRefine", "PnnVerify", "query_points"]

#: Queries per alternating block of the traced pass.
BLOCK = 16

#: Every this-many-th timed query is checked against brute force.
VERIFY_EVERY = 50

#: Answers of the first this-many timed queries feed the golden digest
#: (a prefix, so the digest does not depend on ``--scale``).
DIGEST_PREFIX = 128


def query_points(seed: int, count: int) -> np.ndarray:
    """The seeded query stream; a longer stream extends a shorter one."""
    return np.random.default_rng(seed + 1).uniform(*LONG_BEACH_DOMAIN, count)


class _PnnLoop:
    name = ""
    dataset: dict = {}
    threshold = 0.3
    tolerance = 0.01
    warmup = 0
    ops = 0  # timed queries at --scale 1.0
    brute_force_subdivisions = 1

    def __init__(self, seed: int, scale: float, out_dir: str) -> None:
        self.seed = seed
        self.n_ops = max(int(round(self.ops * scale)), 8)
        self.n_warmup = max(int(round(self.warmup * min(scale, 1.0))), 2)
        self.setup_parts: dict[str, float] = {}
        self.engine = None
        self.objects = None

    def _spec(self, q: float) -> CPNNQuery:
        return CPNNQuery(float(q), self.threshold, self.tolerance)

    def setup(self) -> None:
        tick = time.perf_counter()
        self.objects = long_beach_surrogate(seed=self.seed, **self.dataset)
        generated = time.perf_counter()
        self.engine = UncertainEngine(self.objects)
        built = time.perf_counter()
        self.points = query_points(self.seed, self.n_ops)
        warm = np.random.default_rng([self.seed, 1])
        for q in warm.uniform(*LONG_BEACH_DOMAIN, self.n_warmup):
            self.engine.execute(self._spec(q))
        self.setup_parts = {
            "datasets.generate_s": generated - tick,
            "core.engine.build_s": built - generated,
        }

    def teardown(self) -> None:
        if self.engine is not None:
            self.engine.close()
        self.engine = None

    # ------------------------------------------------------------------
    # Untraced pass: the end-to-end numbers
    # ------------------------------------------------------------------

    def _closed_loop(self, points, keep_every: int):
        """Time ``execute`` per query; keeps every ``keep_every``-th
        result (and the digest prefix's answers) for the checks."""
        execute, spec = self.engine.execute, self._spec
        latencies = np.empty(len(points))
        kept: dict[int, object] = {}
        answers: list[tuple] = []
        start = time.perf_counter()
        for i, q in enumerate(points):
            tick = time.perf_counter()
            result = execute(spec(q))
            latencies[i] = time.perf_counter() - tick
            if i % keep_every == 0:
                kept[i] = result
            if i < DIGEST_PREFIX:
                answers.append(result.answers)
        return latencies, time.perf_counter() - start, kept, answers

    def run(self, m: Measurements) -> None:
        latencies, wall, kept, answers = self._closed_loop(self.points, VERIFY_EVERY)
        m.ops(len(latencies))
        m.set("latency_p50_ms", percentile_ms(latencies, 50))
        m.set("latency_p90_ms", percentile_ms(latencies, 90))
        m.set("throughput_ops_s", len(latencies) / wall)
        m.notes["samples"] = len(latencies)
        self._verify(m, kept, answers)

    def _verify(self, m: Measurements, kept: dict, answers: list) -> None:
        index = reference.IntervalIndex(self.objects)
        for i, result in kept.items():
            problem = reference.check_pnn(
                index, self._spec(self.points[i]), result,
                self.brute_force_subdivisions,
            )
            if problem:
                m.fail(problem)
        m.notes["verified"] = len(kept)
        if len(answers) == DIGEST_PREFIX:
            m.digests(self.name, self.seed, {"answers": reference.digest(answers)})

    # ------------------------------------------------------------------
    # Traced pass: the same pipeline, stage by stage
    # ------------------------------------------------------------------

    def run_traced(self, m: Measurements, tracer) -> None:
        """A quarter of the ops, each answered twice: by ``execute`` with
        tracing off (the reference) and replayed through the public class
        of each stage with a span around every call."""
        points = self.points[: max(len(self.points) // 4, 4)]
        n = len(points)
        m.ops(n)
        pnn_filter = PnnFilter(
            str_bulk_load([(obj.mbr, obj) for obj in self.objects], max_entries=16)
        )
        chain = default_chain()
        short = {"RS": "rs", "L-SR": "lsr", "U-SR": "usr"}
        unknown_after = {name: 0.0 for name in short.values()}
        counts = {"candidates": 0, "subregions": 0}

        def replay(i: int, spec: CPNNQuery) -> QueryResult:
            with tracer.span("core.engine.replay", op_id=i):
                with tracer.span("index.filter"):
                    filtered = pnn_filter(spec.q)
                with tracer.span("uncertainty.distance"):
                    distributions = [
                        obj.distance_distribution(spec.q)
                        for obj in filtered.candidates
                    ]
                with tracer.span("core.subregions.table"):
                    table = SubregionTable(distributions)
                    states = CandidateStates(table.keys)
                    refiner = Refiner(table)
                with tracer.span("core.verifiers.chain"):
                    states.classify(spec.threshold, spec.tolerance)
                    for verifier in chain.verifiers:
                        if states.n_unknown == 0:
                            break
                        with tracer.span("core.verifiers." + short[verifier.name]):
                            update = verifier.compute(table)
                        states.tighten(lower=update.lower, upper=update.upper)
                        states.classify(spec.threshold, spec.tolerance)
                        unknown_after[short[verifier.name]] += states.unknown_fraction
                with tracer.span("core.refinement.refine"):
                    for j in states.unknown_indices():
                        refiner.refine_object(int(j), states, spec)
                with tracer.span("core.engine.assemble"):
                    # what the façade does after the last phase: one
                    # record per candidate, the answers, the result
                    records = []
                    for k, key in enumerate(table.keys):
                        lower, upper = float(states.lower[k]), float(states.upper[k])
                        settled = upper - lower <= 3 * states.pad
                        records.append(AnswerRecord(
                            key=key, label=states.label_of(k), lower=lower,
                            upper=upper, exact=0.5 * (upper + lower) if settled else None,
                        ))
                    result = QueryResult(
                        answers=tuple(
                            r.key for r in records if r.label is Label.SATISFY
                        ),
                        records=records, fmin=filtered.fmin, spec=spec,
                    )
            counts["candidates"] += len(filtered.candidates)
            counts["subregions"] += table.n_subregions
            return result

        latencies = np.empty(n)
        results: list = [None] * n
        replayed: list = [None] * n
        specs = [self._spec(q) for q in points]

        def untraced(block) -> None:
            for i in block:
                tick = time.perf_counter()
                results[i] = self.engine.execute(specs[i])
                latencies[i] = time.perf_counter() - tick

        def staged(block) -> None:
            for i in block:
                replayed[i] = replay(i, specs[i])

        # Short alternating blocks (untraced, staged | staged, untraced):
        # each side runs a block with its tree and tables warm, and a
        # slow spell of the machine hits both sides of the same queries.
        for b, first in enumerate(range(0, n, BLOCK)):
            block = range(first, min(first + BLOCK, n))
            order = (untraced, staged) if b % 2 == 0 else (staged, untraced)
            for side in order:
                side(block)
        for i in range(n):
            if not reference.same_result(replayed[i], results[i]):
                m.fail(f"q={points[i]}: staged replay disagrees with execute")

        def per_query_ms(name: str) -> float:
            return tracer.seconds(name) / n * 1e3

        layers = (
            "index.filter", "uncertainty.distance", "core.subregions.table",
            "core.verifiers.chain", "core.refinement.refine", "core.engine.assemble",
        )
        # Coverage pairs each query's layer spans with its own execute
        # wall and takes the median ratio, so a collector pause or a slow
        # spell that hits one side of a few queries cannot tilt it.
        staged_s, traced_s = np.zeros(n), np.zeros(n)
        for name, start, end, _, op_id in tracer.spans:
            if name in layers:
                staged_s[op_id] += end - start
            elif name == "core.engine.replay":
                traced_s[op_id] = end - start
        coverage = float(np.median(staged_s / latencies))
        overhead = float(np.median(traced_s / latencies))
        execute_ms = float(latencies.mean() * 1e3)
        m.set("index.filter_ms", per_query_ms("index.filter"))
        m.set("index.candidates_per_query", counts["candidates"] / n)
        m.set("uncertainty.distance_ms", per_query_ms("uncertainty.distance"))
        m.set("core.subregions.table_ms", per_query_ms("core.subregions.table"))
        m.set("core.subregions.subregions_per_query", counts["subregions"] / n)
        m.set("core.verifiers.chain_ms", per_query_ms("core.verifiers.chain"))
        for name in short.values():
            m.set(f"core.verifiers.{name}_ms", per_query_ms("core.verifiers." + name))
            m.set(f"core.verifiers.unknown_after_{name}", unknown_after[name] / n)
        m.set("core.refinement.refine_ms", per_query_ms("core.refinement.refine"))
        m.set("core.engine.execute_ms", execute_ms)
        m.set("core.engine.replay_coverage", coverage)
        m.set("core.engine.assemble_ms", per_query_ms("core.engine.assemble"))

        m.set(
            "core.verifiers.finished_share",
            sum(r.finished_after_verification for r in results) / n,
        )
        m.set(
            "core.refinement.refined_per_query",
            sum(r.refined_objects for r in results) / n,
        )
        phases = ("filtering", "initialization", "verification", "refinement")
        totals = [sum(getattr(r.timings, p) for r in results) for p in phases]
        for short_name, total in zip(("filter", "init", "verify", "refine"), totals):
            m.set(f"core.engine.timings_{short_name}_share", total / sum(totals))
        m.set("client.latency_p90_ms", percentile_ms(latencies, 90))
        m.set("client.latency_p99_ms", percentile_ms(latencies, 99))
        m.set("client.samples", n)
        m.set("trace.overhead_ratio", overhead)
        m.notes["noisy"] = overhead > 1.25


class PnnVerify(_PnnLoop):
    name = "pnn_verify"
    dataset = dict(n=20_000, mean_length=42.0)
    threshold, tolerance = 0.3, 0.01
    warmup, ops = 200, 9_000
    # One-bar pdfs leave ~26 wide pieces under f_min, each a polynomial
    # of degree ~95: Simpson needs 16 panels per piece to reach ~1e-8.
    brute_force_subdivisions = 16


class PnnRefine(_PnnLoop):
    name = "pnn_refine"
    dataset = dict(
        n=10_000, mean_length=36.0, pdf="gaussian", bars=300,
        representation="histogram",
    )
    threshold, tolerance = 0.05, 0.0
    warmup, ops = 20, 850
    # 44 candidates x 300 bars put ~13k breakpoints under f_min: one
    # Simpson panel per piece already integrates to ~1e-12.
    brute_force_subdivisions = 1
