"""Property: a pack of *unfolded* rows ≡ a pack of eagerly folded rows.

``DistanceDistribution.from_value_histogram`` records ``(value
histogram, q)`` and ``DistributionPack`` folds the rows itself — one-bar
rows by a closed-form kernel over ``(lo, hi, d, q)`` columns, the rest
through the scalar ``Histogram.fold_abs`` path.  The contract is that
nobody can tell: every flat column of the pack equals, bit for bit, the
pack of ``DistanceDistribution(h.fold_abs(q), key)`` rows — in every
case of Figure 6, on both sides of the fold's merge tolerance, across
fifteen decades of width, and in packs that mix kernel rows with rows
that arrive folded.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.uncertainty import columnar
from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.distance import DistanceDistribution
from repro.uncertainty.histogram import Histogram

COLUMNS = (
    "edges_flat", "knots_flat", "densities_flat", "offsets", "near", "far", "totals",
)

#: Where the query point sits relative to a one-bar pdf on [lo, hi].
PLACEMENTS = (
    "left", "far_left", "at_lo", "at_hi", "right", "inside", "centre",
    "inside_tolerance", "outside_tolerance",
)


def place(lo: float, hi: float, placement: str, fraction: float) -> float:
    width = hi - lo
    centre = 0.5 * (lo + hi)
    # fold_abs merges the two bins when far - near = 2·δ is within
    # 1e-15 + 1e-12 · max(far, 1) of zero.
    tolerance = 1e-15 + 1e-12 * max(0.5 * width, 1.0)
    return {
        "left": lo - (0.1 + fraction) * width,
        # far enough that narrow bars fold to a mass off 1 by > 1e-12 and
        # take the renormalising scalar path
        "far_left": lo - 1e6 * (1.0 + fraction),
        "at_lo": lo,
        "at_hi": hi,
        "right": hi + (0.1 + fraction) * width,
        "inside": lo + fraction * width,
        "centre": centre,
        "inside_tolerance": centre + 0.25 * tolerance,
        "outside_tolerance": centre + 2.0 * tolerance,
    }[placement]


@st.composite
def one_bar_rows(draw):
    lo = draw(st.floats(-1e3, 1e3))
    width = 10.0 ** draw(st.floats(-9.0, 6.0))
    hi = lo + width
    q = place(lo, hi, draw(st.sampled_from(PLACEMENTS)), draw(st.floats(0.0, 1.0)))
    return ("lazy", Histogram.uniform(lo, hi), q)


@st.composite
def multi_bar_rows(draw):
    """2–6 bars, some of them empty, so trimming and normalisation run."""
    lo = draw(st.floats(-50.0, 50.0))
    widths = draw(st.lists(st.floats(0.1, 5.0), min_size=2, max_size=6))
    edges = lo + np.concatenate(([0.0], np.cumsum(widths)))
    densities = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.05, 2.0)),
            min_size=len(widths), max_size=len(widths),
        ).filter(lambda ds: any(d > 0 for d in ds))
    )
    q = draw(st.floats(float(edges[0]) - 5.0, float(edges[-1]) + 5.0))
    return ("lazy", Histogram(edges, densities).normalized(), q)


@st.composite
def folded_rows(draw):
    """Rows that reach the pack already folded: a 1-D fold done eagerly,
    or a 2-D style ``from_cdf`` discretisation."""
    near = draw(st.floats(0.0, 20.0))
    width = draw(st.floats(0.5, 10.0))
    if draw(st.booleans()):
        dist = DistanceDistribution(Histogram.uniform(near, near + width))
    else:
        dist = DistanceDistribution.from_cdf(
            lambda r: min(max((r - near) / width, 0.0), 1.0) ** 2,
            near, near + width, bins=draw(st.integers(1, 6)),
        )
    return ("folded", dist, None)


def build(rows):
    """The same rows twice: unfolded where possible, and folded eagerly."""
    lazy, eager = [], []
    for key, (kind, payload, q) in enumerate(rows):
        if kind == "folded":
            lazy.append(payload)
            eager.append(payload)
        else:
            lazy.append(DistanceDistribution.from_value_histogram(payload, q, key))
            eager.append(DistanceDistribution(payload.fold_abs(q), key))
    return lazy, eager


def assert_same_bits(got: DistributionPack, want: DistributionPack) -> None:
    for name in COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@given(st.lists(one_bar_rows(), min_size=1, max_size=30))
@settings(max_examples=150, deadline=None)
def test_one_bar_pack_is_bit_identical(rows):
    lazy, eager = build(rows)
    assert_same_bits(DistributionPack(lazy), DistributionPack(eager))
    for row, reference in zip(lazy, eager):
        assert row.histogram == reference.histogram
        assert row.histogram.cdf_knots.tobytes() == reference.histogram.cdf_knots.tobytes()


@given(
    st.lists(
        st.one_of(one_bar_rows(), multi_bar_rows(), folded_rows()),
        min_size=1, max_size=24,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_mixed_pack_take_and_store_are_bit_identical(rows, random):
    lazy, eager = build(rows)
    got, want = DistributionPack(lazy), DistributionPack(eager)
    assert_same_bits(got, want)
    perm = list(range(len(rows)))
    random.shuffle(perm)
    assert_same_bits(got.take(np.array(perm)), want.take(np.array(perm)))
    store = got.to_store("shm")
    try:
        assert_same_bits(DistributionPack.from_store(store), want)
    finally:
        store.close()
    xs = np.linspace(0.0, 30.0, 17)
    assert got.cdf_many(xs).tobytes() == want.cdf_many(xs).tobytes()


def test_kernel_rows_are_not_materialised_by_packing(monkeypatch):
    """The comparison above must not pass by falling back: ordinary
    one-bar rows go through the kernel and stay unfolded, and only the
    row whose folded mass needs renormalising takes the scalar path."""
    folded_by_kernel = []
    kernel = columnar._fold_one_bar

    def spy(distributions, lazy):
        picked, flat = kernel(distributions, lazy)
        folded_by_kernel.extend(picked)
        return picked, flat

    monkeypatch.setattr(columnar, "_fold_one_bar", spy)
    uniform = Histogram.uniform(10.0, 52.0)
    # Mass 1 before the fold, 1 + 4.7e-8 after it: seen from q = −1e6
    # both ends round to a grid of 1.2e-10, coarse against a 1e-3 width.
    narrow = Histogram.uniform(1.0, 1.001)
    rows = [
        DistanceDistribution.from_value_histogram(uniform, q, i)
        for i, q in enumerate((0.0, 10.0, 31.0, 40.0, 52.0, 60.0))
    ]
    rows.append(DistanceDistribution.from_value_histogram(narrow, -1e6, "narrow"))
    DistributionPack(rows)
    assert folded_by_kernel == [0, 1, 2, 3, 4, 5]
    assert all(row._histogram is None for row in rows[:-1])
    assert rows[-1]._histogram is not None
