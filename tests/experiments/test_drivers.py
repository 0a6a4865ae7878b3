"""Smoke tests: every experiment driver runs end-to-end on a tiny
configuration and produces the series its figure needs."""

import os

import pytest

from repro.experiments import fig09_basic_vs_filtering as fig09
from repro.experiments import fig10_time_vs_threshold as fig10
from repro.experiments import fig11_vr_breakdown as fig11
from repro.experiments import fig12_verifier_comparison as fig12
from repro.experiments import fig13_tolerance as fig13
from repro.experiments import fig14_gaussian as fig14
from repro.experiments import strategies
from repro.experiments import table3_verifier_costs as table3

TINY = dict(n_queries=2, dataset_size=3000)


class TestDrivers:
    def test_fig09(self):
        result = fig09.run(fig09.Fig09Params(sizes=(500, 1500), n_queries=2))
        assert result.experiment_id == "fig9"
        assert len(result.series_by_name("basic_ms").ys) == 2
        assert all(y > 0 for y in result.series_by_name("filtering_ms").ys)

    def test_fig10(self):
        result = fig10.run(fig10.Fig10Params(thresholds=(0.3, 0.7), **TINY))
        for name in ("basic_ms", "refine_ms", "vr_ms"):
            assert len(result.series_by_name(name).ys) == 2

    def test_fig11(self):
        result = fig11.run(fig11.Fig11Params(thresholds=(0.1, 0.9), **TINY))
        assert len(result.series_by_name("refinement_ms").ys) == 2
        # Refinement work shrinks (weakly) as P grows.
        refined = result.series_by_name("avg_refined_objects").ys
        assert refined[1] <= refined[0] + 1e-9

    @pytest.mark.parametrize("figure", ["fig10", "fig11"])
    def test_vr_builds_its_table_at_every_threshold(self, monkeypatch, figure):
        """Every VR query times the whole pipeline: none reads a table
        or a result an earlier query left in the engine's cache, even
        when the same points come back under the same threshold."""
        seen = []

        def recording(engine, spec):
            result = strategies.vr(engine, spec)
            seen.append((spec.threshold, result.timings.initialization))
            return result

        if figure == "fig10":
            monkeypatch.setitem(strategies.STRATEGIES, "vr", recording)
            params = fig10.Fig10Params(thresholds=(0.3, 0.7), **TINY)
            runs = fig10.run
        else:
            monkeypatch.setattr(fig11, "vr", recording)
            params = fig11.Fig11Params(thresholds=(0.3, 0.7), **TINY)
            runs = fig11.run
        runs(params)
        runs(params)
        assert len(seen) == 2 * 2 * TINY["n_queries"]
        assert {threshold for threshold, _ in seen} == {0.3, 0.7}
        assert all(seconds > 0.0 for _, seconds in seen)

    def test_fig12(self):
        result = fig12.run(fig12.Fig12Params(thresholds=(0.1, 0.3), **TINY))
        rs = result.series_by_name("after_RS").ys
        usr = result.series_by_name("after_U-SR").ys
        assert all(0.0 <= y <= 1.0 for y in rs + usr)
        # Later verifiers never increase the unknown fraction.
        for a, b in zip(rs, usr):
            assert b <= a + 1e-12

    def test_fig13(self):
        result = fig13.run(fig13.Fig13Params(tolerances=(0.0, 0.2), **TINY))
        finished = result.series_by_name("finished_fraction").ys
        assert all(0.0 <= y <= 1.0 for y in finished)
        assert finished[1] >= finished[0] - 1e-12  # Δ helps, never hurts

    def test_fig14(self):
        """VR wins on Gaussian workloads.

        Deflaked: the old single-shot ``basic[0] > vr[0]`` compared two
        one-query wall-clock samples, which a scheduler hiccup could
        flip.  Now the claim is best-of-3 (the driver's engine is
        memoised, so retries only re-run the queries) against an
        env-overridable floor (``FIG14_SPEEDUP_FLOOR``), and shape
        checks stay single-shot.
        """
        floor = float(os.environ.get("FIG14_SPEEDUP_FLOOR", "1.0"))
        params = fig14.Fig14Params(
            thresholds=(0.3, 1.0), n_queries=1, dataset_size=3000, bars=40
        )
        best = 0.0
        for _ in range(3):
            result = fig14.run(params)
            vr = result.series_by_name("vr_ms").ys
            basic = result.series_by_name("basic_ms").ys
            assert all(v > 0 for v in vr)
            best = max(best, basic[0] / vr[0])
            if best > floor:
                break
        assert best > floor, (
            f"VR should beat Basic on the Gaussian workload: best-of-3 "
            f"speedup {best:.2f}x <= floor {floor}"
        )

    def test_table3(self):
        result = table3.run(table3.Table3Params(sizes=(8, 16), repeats=2))
        assert len(result.series_by_name("exact_ms").ys) == 2
        assert result.series_by_name("M").ys[1] > result.series_by_name("M").ys[0]


class TestCli:
    def test_main_single_experiment(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        out = tmp_path / "out.txt"
        code = main(["table3", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "table3" in captured
        assert out.read_text().strip()
