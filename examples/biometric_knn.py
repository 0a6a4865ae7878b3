#!/usr/bin/env python3
"""Biometric identification with Gaussian feature uncertainty.

Section I cites biometric databases ([4], the Gauss-tree) where stored
feature values are Gaussian-distributed around their enrollment
measurement.  Identification then asks: given a probe measurement,
which enrolled identities are probably the nearest match?

This example enrolls identities with truncated-Gaussian uncertainty on
a 1-D feature, then runs — all through the one ``execute`` façade:

* a C-PNN spec ("who is the single best match with ≥50% confidence?"),
* a k-NN spec ("which identities are in the top 3?"), and
* a comparison of the engine's VR pipeline with the Basic and Refine
  references (:mod:`repro.experiments.strategies`), echoing the paper's
  Figure 14 observation that verifiers help *most* on Gaussian pdfs.

Run:  python examples/biometric_knn.py
"""

import time

import numpy as np

from repro import CKNNQuery, CPNNQuery, UncertainEngine, UncertainObject
from repro.experiments.strategies import STRATEGIES


def enroll_population(rng: np.random.Generator, n: int = 40):
    """Identities with Gaussian-uncertain feature values (paper's
    setting: mean at interval centre, sigma = width / 6, 300 bars)."""
    identities = []
    for i in range(n):
        center = rng.uniform(0.0, 100.0)
        width = rng.uniform(3.0, 9.0)
        identities.append(
            UncertainObject.gaussian(
                f"id-{i:03d}", center - width / 2, center + width / 2, bars=300
            )
        )
    return identities


def main() -> None:
    rng = np.random.default_rng(42)
    identities = enroll_population(rng)
    engine = UncertainEngine(identities)
    probe = 47.3

    print(f"=== Probe measurement: {probe} ===")
    result = engine.execute(CPNNQuery(probe, threshold=0.5, tolerance=0.01))
    if result.answers:
        print(f"  confident identification: {result.answers}")
    else:
        print("  no identity clears 50% — reporting the top candidates:")
        probabilities = engine.pnn(probe)
        for key, p in sorted(probabilities.items(), key=lambda kv: -kv[1])[:3]:
            print(f"    {key}: {p:6.1%}")

    print()
    print("=== Top-3 candidate identities (probabilistic 3-NN) ===")
    knn = engine.execute(CKNNQuery(probe, threshold=0.5, k=3))
    scored = [r for r in knn.records if r.exact is not None]
    for record in sorted(scored, key=lambda r: -r.exact)[:5]:
        marker = "*" if record.key in knn.answers else " "
        print(f" {marker} {record.key}: P[in top-3] = {record.exact:6.1%}")
    print(
        f"  ({len(engine)} identities, {len(engine) - knn.refined_objects} "
        "settled without exact integration)"
    )

    print()
    print("=== Strategy comparison on the Gaussian workload ===")
    spec = CPNNQuery(probe, threshold=0.5, tolerance=0.01)
    for strategy, answer in STRATEGIES.items():
        tick = time.perf_counter()
        res = answer(engine, spec)
        elapsed = 1e3 * (time.perf_counter() - tick)
        print(
            f"  {strategy:6s}: {elapsed:7.2f} ms, answers={list(res.answers)}, "
            f"refined={res.refined_objects}"
        )
    print("  (the paper's Figure 14: verifiers avoid expensive Gaussian")
    print("   integrations, so VR wins by more than in the uniform case)")


if __name__ == "__main__":
    main()
