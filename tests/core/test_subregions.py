"""Tests for the subregion machinery (Section IV-A, Figure 7)."""

import numpy as np
import pytest

from repro.core.subregions import SubregionTable
from repro.uncertainty.objects import UncertainObject
from tests.conftest import make_random_objects, two_object_textbook_case


def table_for(objects, q):
    return SubregionTable([o.distance_distribution(q) for o in objects])


class TestTextbookCase:
    """Hand-solved two-object example (see conftest for the numbers)."""

    @pytest.fixture
    def table(self):
        objects, q = two_object_textbook_case()
        return table_for(objects, q)

    def test_ordering_by_near_point(self, table):
        assert table.keys == ("A", "B")

    def test_fmin_fmax(self, table):
        assert table.fmin == pytest.approx(1.0)
        assert table.fmax == pytest.approx(1.5)

    def test_endpoints(self, table):
        assert np.allclose(table.edges, [0.0, 0.5, 1.0])
        assert table.n_inner == 2
        assert table.n_subregions == 3  # the paper's M counts S_M too

    def test_subregion_probabilities(self, table):
        assert np.allclose(table.s_inner[0], [0.5, 0.5])  # A
        assert np.allclose(table.s_inner[1], [0.0, 0.5])  # B
        assert np.allclose(table.s_right, [0.0, 0.5])

    def test_named_accessors(self, table):
        assert table.subregion_probability(0, 0) == pytest.approx(0.5)
        assert table.subregion_probability(1, 2) == pytest.approx(0.5)  # rightmost
        assert table.cdf_at_edge(0, 1) == pytest.approx(0.5)
        assert table.index_of("B") == 1
        with pytest.raises(KeyError):
            table.index_of("missing")

    def test_counts(self, table):
        assert list(table.counts) == [1, 2]

    def test_Y_products(self, table):
        # Y_j = prod_k (1 - D_k(e_j)).
        assert np.allclose(table.Y, [1.0, 0.5 * 1.0, 0.0 * 0.5])

    def test_Z_exclusion_products(self, table):
        assert np.allclose(table.Z[0], [1.0, 1.0, 0.5])  # excluding A
        assert np.allclose(table.Z[1], [1.0, 0.5, 0.0])  # excluding B

    def test_q_bounds(self, table):
        # q_l = max(Z(e_j)/c_j, Z(m_j)).  For A in S_2: Lemma 2 gives
        # 0.5/2, the midpoint B's survival at 0.75, 1 − 0.25.  That
        # survival is linear, so the midpoint is exact and meets q_u.
        assert np.allclose(table.q_lower[0], [1.0, 0.75])
        assert np.allclose(table.q_upper[0], [1.0, 0.75])
        # B has no mass in S_1, so its conditional bounds there are
        # zeroed (the paper leaves them undefined); S_2 is the real one:
        # Lemma 2 gives 0.5/2, the midpoint A's survival there, 0.25.
        assert np.allclose(table.q_lower[1], [0.0, 0.25])
        assert np.allclose(table.q_upper[1], [0.0, 0.25])


class TestStructuralInvariants:
    def test_mass_partition(self, rng):
        for _ in range(10):
            objects = make_random_objects(rng, int(rng.integers(2, 15)))
            q = float(rng.uniform(0, 60))
            table = table_for(objects, q)
            totals = table.s_inner.sum(axis=1) + table.s_right
            assert np.allclose(totals, 1.0, atol=1e-9)

    def test_keys_follow_row_order_in_both_branches(self, rng):
        for n in (5, 20):  # the plain-loop branch and the columnar one
            table = table_for(make_random_objects(rng, n), 30.0)
            assert table.keys == tuple(d.key for d in table.distributions)
            assert table.keys is table.keys  # built once per table
            nears = [d.near for d in table.distributions]
            assert nears == sorted(nears)

    def test_cdf_matrix_monotone(self, rng):
        objects = make_random_objects(rng, 10)
        table = table_for(objects, 30.0)
        assert np.all(np.diff(table.cdf_at_edges, axis=1) >= -1e-12)

    def test_edges_sorted_ending_at_fmin(self, rng):
        objects = make_random_objects(rng, 10)
        table = table_for(objects, 30.0)
        assert np.all(np.diff(table.edges) > 0)
        assert table.edges[-1] == pytest.approx(table.fmin)

    def test_q_lower_never_exceeds_q_upper(self, rng):
        for _ in range(5):
            objects = make_random_objects(rng, 12)
            table = table_for(objects, float(rng.uniform(0, 60)))
            assert np.all(table.q_lower <= table.q_upper + 1e-12)

    def test_edges_include_every_breakpoint_below_fmin(self, rng):
        objects = make_random_objects(rng, 8)
        q = 30.0
        dists = [o.distance_distribution(q) for o in objects]
        table = SubregionTable(dists)
        for dist in dists:
            inner = dist.breakpoints[
                (dist.breakpoints > table.edges[0] + 1e-9)
                & (dist.breakpoints < table.fmin - 1e-9)
            ]
            for point in inner:
                assert np.min(np.abs(table.edges - point)) < 1e-9

    def test_single_candidate(self):
        obj = UncertainObject.uniform("only", 2.0, 4.0)
        table = table_for([obj], 0.0)
        assert table.size == 1
        assert np.allclose(table.s_right, [0.0])
        assert table.s_inner.sum() == pytest.approx(1.0)
        assert np.all(table.Z == 1.0)

    def test_empty_candidate_set_rejected(self):
        with pytest.raises(ValueError):
            SubregionTable([])

    def test_zero_probability_candidate_all_mass_right(self):
        # B's near point equals f_min: everything lands in S_M.
        a = UncertainObject.uniform("A", 0.0, 2.0)
        b = UncertainObject.uniform("B", 2.0, 5.0)
        table = table_for([a, b], 0.0)
        idx = table.index_of("B")
        assert table.s_right[idx] == pytest.approx(1.0)
        assert np.allclose(table.s_inner[idx], 0.0)

    def test_interior_zero_density_pdf(self):
        # A mixture-like object with a gap: products must stay exact.
        from repro.uncertainty.histogram import Histogram

        gap = UncertainObject.from_histogram(
            "gap", Histogram([0.0, 1.0, 3.0, 4.0], [0.5, 0.0, 0.5])
        )
        solid = UncertainObject.uniform("solid", 0.0, 5.0)
        table = table_for([gap, solid], 0.0)
        i = table.index_of("gap")
        # D_gap(2) = 0.5 even though the gap object has no mass at 2.
        edge_idx = int(np.argmin(np.abs(table.edges - 2.0)))
        if abs(table.edges[edge_idx] - 2.0) < 1e-9:
            assert table.cdf_at_edges[i, edge_idx] == pytest.approx(0.5)
