"""Bit identity of the parametric column block against per-row laws.

:class:`~repro.uncertainty.parametric.pack.MixedDistributionPack`
evaluates plain truncated-Gaussian candidates as one column block —
``phi_lo``/``denom`` in two ``ndtr`` calls, supports by ``np.where``,
the ``(near, far)`` order by ``np.lexsort``, pooled knots without a
per-row ``np.unique`` — and the engine's fast path hands it candidate
*objects*, so no per-candidate distance law is ever built.  The
per-row construction it replaced is kept here as the oracle
(:class:`RowPack`, :class:`RowTable`: ``sorted`` +
``TruncatedGaussianDistance`` + ``knots()`` + seven per-row gathers),
and every matrix the verifiers read must equal it bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from repro.core.engine import UncertainEngine
from repro.core.types import CKNNQuery, CPNNQuery, CRangeQuery
from repro.numerics.poisson_binomial import exclusion_products
from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.objects import UncertainObject
from repro.uncertainty.parametric import (
    AnalyticTable,
    GaussianMixtureObject,
    GaussianObject,
    MixedDistributionPack,
    ParametricDistance,
    TruncatedGaussianDistance,
    UniformDiskDistance,
)
from repro.uncertainty.parametric.table import _EDGE_RTOL
from repro.uncertainty.pdfs import TruncatedGaussianPdf

# ----------------------------------------------------------------------
# The per-row oracle
# ----------------------------------------------------------------------


def row_cdf_rows(rows, xs):
    """One ndtr sweep over per-row laws, gathering seven fields a row."""
    q = np.array([d._q for d in rows])[:, None]
    lo = np.array([d._lo for d in rows])[:, None]
    hi = np.array([d._hi for d in rows])[:, None]
    mean = np.array([d._mean for d in rows])[:, None]
    sigma = np.array([d._sigma for d in rows])[:, None]
    phi_lo = np.array([d._phi_lo for d in rows])[:, None]
    denom = np.array([d._denom for d in rows])[:, None]
    rr = np.maximum(np.asarray(xs, dtype=float)[None, :], 0.0)
    z_hi = (np.clip(q + rr, lo, hi) - mean) / sigma
    z_lo = (np.clip(q - rr, lo, hi) - mean) / sigma
    upper = np.clip((ndtr(z_hi) - phi_lo) / denom, 0.0, 1.0)
    lower = np.clip((ndtr(z_lo) - phi_lo) / denom, 0.0, 1.0)
    return np.clip(upper - lower, 0.0, 1.0)


class RowPack:
    """The pack over one distance law per row."""

    def __init__(self, laws):
        self.laws = tuple(laws)
        self.near = np.array([_support(d)[0] for d in self.laws])
        self.far = np.array([_support(d)[1] for d in self.laws])

    def cdf_many(self, xs):
        arr = np.asarray(xs, dtype=float)
        points = np.atleast_1d(arr)
        out = np.empty((len(self.laws), points.size))
        kinds = list(map(type, self.laws))
        gauss = [i for i, k in enumerate(kinds) if k is TruncatedGaussianDistance]
        hist = [i for i, k in enumerate(kinds) if not issubclass(k, ParametricDistance)]
        if gauss:
            out[gauss] = row_cdf_rows([self.laws[i] for i in gauss], points)
        for i, d in enumerate(self.laws):
            if i not in gauss and i not in hist:
                out[i] = d.cdf(points)
        if hist:
            inner = DistributionPack([self.laws[i] for i in hist])
            out[hist] = np.atleast_2d(inner.cdf_many(points)).reshape(len(hist), -1)
        return out[:, 0] if arr.ndim == 0 else out


def _support(dist):
    near = getattr(dist, "near", None)
    if near is not None:
        return float(near), float(dist.far)
    return float(dist.lo), float(dist.hi)


class RowTable:
    """The per-row analytic table: sort laws, pool their knots, one
    cdf matrix — the construction the column block replaced."""

    def __init__(self, laws, grid=64):
        if isinstance(laws, RowPack):
            laws = laws.laws
        self.laws = tuple(sorted(laws, key=lambda d: (d.near, d.far)))
        self.grid = grid
        self.keys = tuple(d.key for d in self.laws)
        self.size = len(self.laws)
        pack = RowPack(self.laws)
        self.fmin, self.fmax = float(pack.far.min()), float(pack.far.max())
        n_min = float(pack.near.min())
        if not self.fmin > n_min:
            raise ValueError("degenerate candidate set")
        pool = [np.asarray([n_min, self.fmin])]
        for dist in self.laws:
            parametric = isinstance(dist, ParametricDistance)
            knots = dist.knots() if parametric else np.empty(0)
            pool.append(knots[(knots > n_min) & (knots < self.fmin)])
        pool.append(pack.near[(pack.near > n_min) & (pack.near < self.fmin)])
        merged = np.sort(np.concatenate(pool))
        scale = max(abs(float(merged[0])), abs(float(merged[-1])), 1.0)
        keep = np.empty(merged.size, dtype=bool)
        keep[0] = True
        np.greater(np.diff(merged), _EDGE_RTOL * scale, out=keep[1:])
        edges = merged[keep]
        edges[-1] = self.fmin
        inner = edges.size - 1
        if inner < grid:
            parts = -(-grid // inner)
            steps = np.linspace(0.0, 1.0, parts + 1)[:-1]
            widths = np.diff(edges)
            fine = (edges[:-1, None] + widths[:, None] * steps[None, :]).reshape(-1)
            edges = np.concatenate((fine, edges[-1:]))
        self.edges = edges
        self.n_inner = edges.size - 1
        self.n_subregions = self.n_inner + 1
        cdf = np.clip(pack.cdf_many(edges), 0.0, 1.0)
        np.maximum.accumulate(cdf, axis=1, out=cdf)
        self.cdf_at_edges = cdf
        self.s_inner = np.clip(np.diff(cdf, axis=1), 0.0, 1.0)
        self.s_right = np.clip(1.0 - cdf[:, -1], 0.0, 1.0)
        self.Z = np.clip(exclusion_products(1.0 - cdf), 0.0, 1.0)
        self.q_lower = self.q_lower_of(self.Z, self.s_inner)
        self.q_upper = self.q_upper_of(self.Z, self.s_inner)

    def refined(self, grid):
        return RowTable(self.laws, grid=grid)

    # The row-wise surface the verifier pass reads.
    def inner_rows(self, rows):
        return self.s_inner[rows]

    def exclusion_rows(self, rows):
        return self.Z[rows]

    @staticmethod
    def q_lower_of(z, s, rows=None):
        q = np.array(z[:, 1:])
        q[s <= 0.0] = 0.0
        return q

    @staticmethod
    def q_upper_of(z, s):
        q = np.array(z[:, :-1])
        q[s <= 0.0] = 0.0
        return q


def assert_same_table(got, want):
    assert got.keys == want.keys
    assert (got.fmin, got.fmax, got.grid) == (want.fmin, want.fmax, want.grid)
    for name in ("edges", "cdf_at_edges", "Z", "q_lower", "q_upper", "s_right"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


# ----------------------------------------------------------------------
# Candidate sets
# ----------------------------------------------------------------------

#: Offsets that put a near point on, or within ``_EDGE_RTOL``, of a knot.
KNOT_OFFSETS = (0.0, 1e-13, 4e-13, 3e-12)


@st.composite
def gaussian_sets(draw, max_size=10):
    """``(objects, q)``: GaussianObjects with tied and duplicated
    supports, ``q`` on an endpoint, a mean, outside every support or
    anywhere, and near points pinned onto earlier objects' knots."""
    rows = []
    for _ in range(draw(st.integers(1, max_size))):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))  # same support, new key
            continue
        lo = draw(st.floats(-40, 40))
        width = draw(st.floats(0.5, 20))
        mean = draw(st.one_of(st.none(), st.floats(lo, lo + width)))
        sigma = draw(st.one_of(st.none(), st.floats(0.1 * width, width)))
        bars = draw(st.sampled_from([1, 7, 48]))
        rows.append((lo, lo + width, mean, sigma, bars))
    where = draw(st.sampled_from(["anywhere", "endpoint", "mean", "outside"]))
    if where == "endpoint":
        q = draw(st.sampled_from([r[0] for r in rows] + [r[1] for r in rows]))
    elif where == "mean":
        means = [0.5 * (r[0] + r[1]) if r[2] is None else r[2] for r in rows]
        q = draw(st.sampled_from(means))
    elif where == "outside":
        gap = draw(st.floats(0.0, 30))
        left, right = min(r[0] for r in rows), max(r[1] for r in rows)
        q = draw(st.sampled_from([left - gap, right + gap]))
    else:
        q = draw(st.floats(-60, 60))
    for _ in range(draw(st.integers(0, 2))):
        # A new object whose near point sits on an earlier knot |q - hi|.
        hi = draw(st.sampled_from(rows))[1]
        lo = q + abs(q - hi) + draw(st.sampled_from(KNOT_OFFSETS))
        rows.append((lo, lo + draw(st.floats(0.5, 10)), None, None, 12))
    objects = [
        GaussianObject(i, lo, hi, mean=mean, sigma=sigma, bars=bars)
        for i, (lo, hi, mean, sigma, bars) in enumerate(rows)
    ]
    return objects, q


def mixed_laws(q, objects, extra):
    """Gaussian laws plus mixture / disk / histogram rows."""
    laws = [o.parametric_distance(q) for o in objects]
    n = len(laws)
    if "mixture" in extra:
        laws.append(mixture_object(n, q).parametric_distance(q))
    if "disk" in extra:
        disk = UniformDiskDistance((0.0, 0.0), (3.0, abs(q) % 7), 2.0, key=n + 1)
        laws.append(disk)
    if "histogram" in extra:
        uniform = UncertainObject.uniform(n + 2, q - 4.0, q + 9.0)
        laws.append(uniform.distance_distribution(q))
    return laws


def mixture_object(key, q):
    return GaussianMixtureObject(
        key,
        [
            TruncatedGaussianPdf(q - 6.0, q - 1.0, bars=16),
            TruncatedGaussianPdf(q + 2.0, q + 5.0, bars=16),
        ],
        [0.3, 0.7],
    )


ONE_CANDIDATE = ([GaussianObject("only", 2.0, 9.0, bars=24)], 4.0)
TIED = (
    [GaussianObject(k, 1.0, 5.0) for k in "cab"] + [GaussianObject("d", 0.0, 6.0)],
    3.0,
)


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(gaussian_sets(), st.sampled_from([1, 8, 64]))
@example(ONE_CANDIDATE, 8)
@example(TIED, 8)
def test_column_table_equals_per_row_table(case, grid):
    objects, q = case
    laws = [o.parametric_distance(q) for o in objects]
    want = RowTable(laws, grid)
    got = AnalyticTable(MixedDistributionPack.from_objects(objects, q), grid=grid)
    assert_same_table(got, want)
    assert_same_table(AnalyticTable(laws, grid=grid), want)
    # Escalation reuses the sorted columns and the pinned edges.
    assert_same_table(got.refined(grid * 4), want.refined(grid * 4))
    # Laws built lazily from the columns are the per-row laws.
    for built, law in zip(got.distributions, want.laws):
        assert type(built) is TruncatedGaussianDistance
        assert built.key == law.key
        assert np.array_equal(built.pack_params(), law.pack_params())


@settings(max_examples=80, deadline=None)
@given(
    gaussian_sets(max_size=6),
    st.sets(st.sampled_from(["mixture", "disk", "histogram"]), min_size=1),
    st.sampled_from([1, 16]),
)
def test_mixed_table_equals_per_row_table(case, extra, grid):
    objects, q = case
    laws = mixed_laws(q, objects, extra)
    assert_same_table(AnalyticTable(laws, grid=grid), RowTable(laws, grid))
    if "mixture" in extra:
        candidates = objects + [mixture_object(len(objects), q)]
        pack = MixedDistributionPack.from_objects(candidates, q)
        got = AnalyticTable(pack, grid=grid)
        want = RowTable([o.parametric_distance(q) for o in candidates], grid)
        assert_same_table(got, want)


@settings(max_examples=80, deadline=None)
@given(gaussian_sets(), st.floats(-5, 80))
def test_object_order_kernels_equal_per_row(case, radius):
    """The range / k-NN legs read the pack in candidate order."""
    objects, q = case
    got = MixedDistributionPack.from_objects(objects, q)
    want = RowPack([o.parametric_distance(q) for o in objects])
    assert np.array_equal(got.near, want.near)
    assert np.array_equal(got.far, want.far)
    assert np.array_equal(got.cdf_many(radius), want.cdf_many(radius))
    xs = np.linspace(-1.0, 90.0, 17)
    assert np.array_equal(got.cdf_many(xs), want.cdf_many(xs))


def test_degenerate_set_raises_both_ways():
    # At q = 1e20 a 1e-5-wide support rounds to near == far.
    objects, q = [GaussianObject(0, 0.0, 1e-5)], 1e20
    with pytest.raises(ValueError):
        RowTable([o.parametric_distance(q) for o in objects])
    with pytest.raises(ValueError):
        AnalyticTable(MixedDistributionPack.from_objects(objects, q))


# ----------------------------------------------------------------------
# Engine records
# ----------------------------------------------------------------------


class RowPacks:
    """Stands in for MixedDistributionPack on the engine's legs."""

    @staticmethod
    def from_objects(objects, q):
        return RowPack([o.parametric_distance(q) for o in objects])


def engine_objects(seed=5):
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(60):
        center, width = rng.uniform(0.0, 300.0), rng.uniform(2.0, 18.0)
        lo, hi = center - width / 2, center + width / 2
        objects.append(GaussianObject(i, lo, hi, bars=48))
    return objects


def engine_specs():
    rng = np.random.default_rng(99)
    points = rng.uniform(0.0, 300.0, 12)
    specs = [CPNNQuery(float(q), 0.3, tol) for q in points for tol in (0.01, 0.0)]
    specs += [CRangeQuery(float(q), threshold=0.5, radius=6.0) for q in points]
    specs += [
        CKNNQuery(float(q), threshold=0.4, k=1 + i % 3) for i, q in enumerate(points)
    ]
    return specs


def records(results):
    return [
        (
            r.answers,
            r.refined_objects,
            [(x.key, x.label, x.lower, x.upper, x.exact) for x in r.records],
        )
        for r in results
    ]


@pytest.mark.parametrize(
    "grids",
    [{}, dict(ANALYTIC_GRID=8, ANALYTIC_MAX_GRID=32), dict(ANALYTIC_MAX_GRID=64)],
    ids=["default", "escalate", "fallback"],
)
def test_engine_records_equal_per_row_replica(monkeypatch, grids):
    specs = engine_specs()
    for name, value in grids.items():
        monkeypatch.setattr(f"repro.core.engine.pnn.{name}", value)

    def run():
        engine = UncertainEngine(engine_objects())
        return records(engine.execute_batch(specs).results) + records(
            engine.execute(s) for s in specs
        )

    got = run()
    with monkeypatch.context() as patch:
        for leg in ("pnn", "ranges", "knn"):
            patch.setattr(f"repro.core.engine.{leg}.MixedDistributionPack", RowPacks)
        patch.setattr("repro.core.engine.pnn.AnalyticTable", RowTable)
        want = run()
    assert got == want
