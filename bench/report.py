"""The parent side of ``python bench/run.py``: run every workload in a
fresh interpreter, print the metrics, judge spreads and comparisons.

A *summary* is what one benchmark run leaves in ``<out>/summary.json``:
``{"runs": [{workload: {metric: value}}, ...], ...provenance}`` — one
entry in ``runs`` per repetition (``--aa N`` leaves N).  ``--compare``
reads two of them.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from bench import catalogue

__all__ = ["compare", "main_parent"]


def _run_child(script: str, name: str, args, trace: int, out_dir: str) -> dict:
    """One workload in a fresh interpreter; returns its result file."""
    command = [
        sys.executable, script,
        "--workload", name, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(trace), "--out", out_dir,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"bench: {name} (trace {trace}) exited {done.returncode}")
    json.loads(done.stdout.strip().splitlines()[-1])  # the driver's line parses
    with open(os.path.join(out_dir, f"{name}.trace{trace}.json")) as source:
        return json.load(source)


def _end_to_end(result: dict) -> dict[str, float]:
    return {
        m.name: result["metrics"][m.name]
        for m in catalogue.end_to_end_for(result["workload"])
    }


def _print_result(untraced: dict, traced: dict | None) -> None:
    name = untraced["workload"]
    print(f"\n== {name}: {catalogue.WORKLOADS[name]}")
    print(
        f"   {untraced['attempted']} ops, {untraced['failed']} failed, "
        f"{untraced['notes'].get('samples', 0)} latency samples, "
        f"{untraced['wall_s']:.1f} s wall"
        + (" [noisy]" if untraced["noisy"] else "")
    )
    for metric in catalogue.end_to_end_for(name):
        bound = f"+{metric.bound:g} abs" if metric.absolute else f"{metric.bound:.0%}"
        print(
            f"   {metric.name:<24}{untraced['metrics'][metric.name]:>14.4f} "
            f"{metric.unit:<9} ({metric.better} is better, bound {bound})"
        )
    for failure in untraced["failures"]:
        print(f"   FAILED: {failure}")
    if traced is None:
        return
    print(
        f"   -- per layer (traced pass, {traced['attempted']} ops"
        + (", noisy" if traced["noisy"] else "")
        + ")"
    )
    for metric, (unit, _) in catalogue.PER_LAYER.items():
        if metric in traced["metrics"]:
            print(f"   {metric:<46}{traced['metrics'][metric]:>14.4f} {unit}")
    for failure in traced["failures"]:
        print(f"   FAILED (traced): {failure}")


def _spread_rows(runs: list[dict]) -> list[tuple]:
    """Per (workload, metric): min, median, max and spread ÷ bound over
    the repetitions in ``runs``."""
    rows = []
    for name in runs[0]:
        for metric in catalogue.end_to_end_for(name):
            values = [run[name][metric.name] for run in runs]
            low, mid, high = min(values), statistics.median(values), max(values)
            spread = high - low if metric.absolute else (high - low) / mid
            ratio = spread / metric.bound if metric.bound else float(spread > 0)
            rows.append((name, metric, low, mid, high, spread, ratio))
    return rows


def main_parent(args, root: str, script: str) -> int:
    names = args.workload or list(catalogue.ALL)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    out_dir = args.out or os.path.join(root, "bench", "results", f"{stamp}-s{args.seed}")
    repeats = args.aa or 1
    runs, traces, ok = [], {}, True
    for repeat in range(repeats):
        run_dir = os.path.join(out_dir, f"aa{repeat}") if args.aa else out_dir
        run = {}
        for name in names:
            untraced = _run_child(script, name, args, 0, run_dir)
            traced = None if args.aa else _run_child(script, name, args, 1, run_dir)
            if not args.aa:
                _print_result(untraced, traced)
                traces[name] = traced["metrics"]
                ok &= traced["correct"]
            ok &= untraced["correct"]
            ok &= untraced["metrics"].get("late_share", 0.0) <= 0.01
            run[name] = _end_to_end(untraced)
            last = untraced
        runs.append(run)
    summary = {
        "runs": runs,
        "per_layer": traces,
        **{k: last[k] for k in ("seed", "scale", "nproc", "python", "numpy",
                                "git_commit", "executor_auto")},
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as sink:
        json.dump(summary, sink, indent=1, sort_keys=True)
    if args.aa:
        print(f"A/A over {repeats} runs (spread = max - min, as a share of the median):")
        for name, metric, low, mid, high, spread, ratio in _spread_rows(runs):
            verdict = "ok" if ratio <= 1.0 else "EXCEEDS BOUND"
            ok &= ratio <= 1.0
            print(
                f"  {name:<15}{metric.name:<22}{low:>12.4f}{mid:>12.4f}{high:>12.4f} "
                f"{metric.unit:<9} spread/bound {ratio:5.2f}  {verdict}"
            )
    print(f"\nresults in {out_dir}; {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def compare(path_a: str, path_b: str) -> int:
    """One row per workload per metric: base, new, ratio and a verdict.

    ``regressed`` / ``improved``: the medians differ by more than the
    metric's bound.  ``unresolved``: either side's own spread is wider
    than the bound, so the difference cannot be told from noise.
    """
    with open(path_a) as a, open(path_b) as b:
        base, new = json.load(a), json.load(b)
    regressed = False
    print(f"{'workload':<15}{'metric':<22}{'base':>12}{'new':>12}{'new/base':>10}  verdict")
    rows_b = {(n, m.name): row for n, m, *row in _spread_rows(new["runs"])}
    for name, metric, _, mid_a, _, spread_a, ratio_a in _spread_rows(base["runs"]):
        if (name, metric.name) not in rows_b:
            continue
        _, mid_b, _, spread_b, ratio_b = rows_b[(name, metric.name)]
        change = mid_b - mid_a if metric.absolute else (mid_b - mid_a) / mid_a
        worse = change if metric.better == "lower" else -change
        if max(ratio_a, ratio_b) > 1.0:
            verdict = "unresolved"
        elif worse > metric.bound:
            verdict, regressed = "regressed", True
        elif -worse > metric.bound:
            verdict = "improved"
        else:
            verdict = "within bound"
        ratio = mid_b / mid_a if mid_a else float("nan")
        print(
            f"{name:<15}{metric.name:<22}{mid_a:>12.4f}{mid_b:>12.4f}{ratio:>10.3f}  "
            f"{verdict} ({metric.unit}, bound {metric.bound:g})"
        )
    return 1 if regressed else 0
