#!/usr/bin/env python3
"""Alternated parent/change benchmark pairs (PR 15's protocol).

Checks a parent revision out into a temporary directory, then runs::

    python3 bench/run.py --workload W --seed S --seconds N --trace 0

alternately in that tree and in this one for ``--pairs`` pairs, flipping
which side goes first each pair, and prints — per workload, one row per
end-to-end metric of ``BENCHMARK.json`` — each side's median and
quartiles and how many pairs the change won (ties count for neither).
A gain is claimable when the change wins at least nine pairs in ten and
the medians differ by more than the parent's own interquartile range
(``/opt/skills/guides/choosing-metrics``, §8); this script prints the
numbers and judges nothing.

    python scripts/paired_bench.py --workload pnn_verify --pairs 10
    python scripts/paired_bench.py --pairs 1 --seconds 3      # CI smoke

The parent tree is materialised with ``git archive`` rather than ``git
worktree``: same files, but nothing is registered in ``.git`` that a
killed run would leave behind.  ``--parent-dir`` skips the checkout and
uses a tree that already exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def checkout(rev: str, target: str) -> None:
    """Materialise ``rev`` of this repository under ``target``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev],
        cwd=ROOT, check=True, capture_output=True,
    )
    subprocess.run(["tar", "-x", "-C", target], input=archive.stdout, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float, out: str) -> dict:
    """One untraced run in ``tree``; the driver's result line, parsed."""
    # Each tree must measure its own src/, also where an installed
    # ``repro`` would otherwise be found first.
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run(
        [
            sys.executable, os.path.join(tree, "bench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0", "--out", out,
        ],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(workload: str, metrics: list[dict], runs: dict[str, list[dict]]) -> None:
    pairs = len(runs["parent"])
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    print(f"\n{workload}: {pairs} pair(s); failed ops parent={failed['parent']} "
          f"change={failed['change']}")
    print(f"  {'metric':<18} {'parent med [q1, q3]':<34} "
          f"{'change med [q1, q3]':<34} change wins")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {
            side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs
        }
        wins = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(sides["parent"], sides["change"])
        )
        cells = []
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(sides[side])
            cells.append(f"{median:10.4g} [{q1:.4g}, {q3:.4g}] {metric['unit']}")
        print(f"  {name:<18} {cells[0]:<34} {cells[1]:<34} {wins}/{pairs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD", help="revision to compare "
                        "this working tree against (default HEAD)")
    parser.add_argument("--parent-dir", help="an existing checkout of the parent")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="repeatable; default every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=20080407)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
        benchmark = json.load(source)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]

    with tempfile.TemporaryDirectory(prefix="paired_bench_") as scratch:
        parent = args.parent_dir
        if parent is None:
            parent = os.path.join(scratch, "parent")
            os.mkdir(parent)
            checkout(args.parent, parent)
        trees = {"parent": os.path.abspath(parent), "change": ROOT}
        for workload in workloads:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    out = os.path.join(scratch, f"{workload}.{side}.{pair}")
                    result = run_once(
                        trees[side], workload, args.seed, args.seconds, out
                    )
                    runs[side].append(result)
                    print(f"{workload} pair {pair + 1} {side}: " + " ".join(
                        f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                        for m in benchmark["end_to_end"]
                    ), flush=True)
            report(workload, benchmark["end_to_end"], runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
