"""AnalyticTable: the histogram-free subregion table (DESIGN.md §15).

The table must duck-type :class:`SubregionTable` closely enough for
the unmodified RS/L-SR/U-SR verifiers, and its Riemann brackets must
be *sound* — the exact qualification probability always lies inside
``[einsum(s_inner, q_lower), einsum(s_inner, q_upper) + (1 - ...)]``
style bounds the verifiers derive — at every grid resolution.
"""

import numpy as np
import pytest

from repro.core.refinement import Refiner
from repro.core.subregions import SubregionTable
from repro.core.verifiers import (
    LowerSubregionVerifier,
    RightmostSubregionVerifier,
    UpperSubregionVerifier,
)
from repro.uncertainty.parametric import AnalyticTable, TruncatedGaussianDistance

TOL = 1e-9


def gaussian_candidates(q=5.0, n=6, seed=3):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        lo = float(rng.uniform(0.0, 8.0))
        width = float(rng.uniform(1.0, 6.0))
        rows.append(
            TruncatedGaussianDistance(q, lo, lo + width, bars=32, key=i)
        )
    return rows


def exact_probabilities(rows):
    """Exact (histogram-grid) probabilities of the materialised twin."""
    table = SubregionTable([r.materialized() for r in rows])
    exact = Refiner(table).exact_all()
    return dict(zip(table.keys, exact))


def true_probabilities(rows, n_nodes=400_001):
    """Ground-truth qualification probabilities of the *analytic* laws.

    Dense trapezoid integration of ``pdf_i(r) · Π_{k≠i} sf_k(r)`` over
    ``[n_min, f_min]`` (beyond ``f_min`` some candidate's cdf is 1, so
    the integrand vanishes) — independent of both table
    implementations, accurate to well below the assertion tolerance.
    """
    fmin = min(r.far for r in rows)
    nmin = min(r.near for r in rows)
    xs = np.linspace(nmin, fmin, n_nodes)
    sf = np.vstack([1.0 - np.asarray(r.cdf(xs)) for r in rows])
    np.clip(sf, 0.0, 1.0, out=sf)
    out = {}
    for i, row in enumerate(rows):
        others = np.prod(np.delete(sf, i, axis=0), axis=0)
        integrand = np.asarray(row.pdf(xs)) * others
        out[row.key] = float(np.trapezoid(integrand, xs))
    return out


class TestTableSurface:
    def test_mirrors_subregion_table_ordering(self):
        rows = gaussian_candidates()
        analytic = AnalyticTable(rows, grid=32)
        histogram = SubregionTable([r.materialized() for r in rows])
        assert analytic.keys == histogram.keys
        assert analytic.size == histogram.size
        assert analytic.fmin == pytest.approx(histogram.fmin)
        assert analytic.fmax == pytest.approx(histogram.fmax)

    def test_masses_partition(self):
        analytic = AnalyticTable(gaussian_candidates(), grid=48)
        totals = analytic.s_inner.sum(axis=1) + analytic.s_right
        np.testing.assert_allclose(totals, 1.0, atol=1e-8)
        assert np.all(analytic.s_inner >= -1e-12)
        assert np.all(analytic.q_lower <= analytic.q_upper + 1e-12)

    def test_grid_controls_inner_subregions(self):
        rows = gaussian_candidates()
        coarse = AnalyticTable(rows, grid=16)
        fine = coarse.refined(256)
        assert coarse.n_inner >= 16
        assert fine.n_inner >= 256
        assert fine.grid == 256
        assert fine.keys == coarse.keys

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            AnalyticTable([], grid=8)
        with pytest.raises(ValueError):
            AnalyticTable(gaussian_candidates(n=2), grid=0)


class TestSoundness:
    @pytest.mark.parametrize("grid", [8, 64, 512])
    def test_verifier_bounds_contain_true_probability(self, grid):
        rows = gaussian_candidates()
        analytic = AnalyticTable(rows, grid=grid)
        truth = true_probabilities(rows)
        true_vec = np.array([truth[k] for k in analytic.keys])

        rs = RightmostSubregionVerifier().compute(analytic)
        lsr = LowerSubregionVerifier().compute(analytic)
        usr = UpperSubregionVerifier().compute(analytic)

        assert np.all(true_vec <= rs.upper + TOL), "RS upper violated"
        assert np.all(lsr.lower - TOL <= true_vec), "L-SR lower violated"
        assert np.all(true_vec <= usr.upper + TOL), "U-SR upper violated"

    def test_histogram_exact_within_coarse_brackets(self):
        """At a coarse grid the analytic bracket also contains the
        materialised histogram engine's exact probabilities — the
        discretisation error of a 32-bar histogram is smaller than the
        coarse Riemann gap, which is what lets the fast path hand
        unsettled candidates to the histogram pipeline unchanged."""
        rows = gaussian_candidates()
        analytic = AnalyticTable(rows, grid=8)
        exact = exact_probabilities(rows)
        exact_vec = np.array([exact[k] for k in analytic.keys])
        lsr = LowerSubregionVerifier().compute(analytic)
        usr = UpperSubregionVerifier().compute(analytic)
        assert np.all(lsr.lower - 1e-3 <= exact_vec)
        assert np.all(exact_vec <= usr.upper + 1e-3)

    def test_refinement_tightens_brackets(self):
        rows = gaussian_candidates(n=5, seed=11)
        lsr, usr = LowerSubregionVerifier(), UpperSubregionVerifier()
        widths = []
        for grid in (8, 64, 512):
            table = AnalyticTable(rows, grid=grid)
            gap = usr.compute(table).upper - lsr.compute(table).lower
            widths.append(float(gap.mean()))
        assert widths[1] <= widths[0] + 1e-12
        assert widths[2] <= widths[1] + 1e-12

    def test_histogram_bracket_at_matched_grid_at_least_as_tight(self):
        """At a fine grid each table brackets its own model: the
        analytic bracket the true probability (no discretisation error
        in the cdf columns), the histogram's the materialised model's
        exact one.  The histogram's is the tighter: its cells are
        linear, so L-SR takes the midpoint bound, which smooth cells
        cannot."""
        rows = gaussian_candidates(n=4, seed=23)
        analytic = AnalyticTable(rows, grid=512)
        histogram = SubregionTable([r.materialized() for r in rows])
        truth = true_probabilities(rows)
        true_vec = np.array([truth[k] for k in analytic.keys])
        exact = Refiner(histogram).exact_all()
        lsr, usr = LowerSubregionVerifier(), UpperSubregionVerifier()
        a_lo, a_up = lsr.compute(analytic).lower, usr.compute(analytic).upper
        h_lo, h_up = lsr.compute(histogram).lower, usr.compute(histogram).upper
        assert np.all((a_lo - TOL <= true_vec) & (true_vec <= a_up + TOL))
        assert np.all((h_lo - TOL <= exact) & (exact <= h_up + TOL))
        assert (h_up - h_lo).mean() <= (a_up - a_lo).mean()
