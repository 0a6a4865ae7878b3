"""Property: a pack folded by the column kernels ≡ a pack of eagerly
folded rows.

Two entries fold without building per-row distributions:
``DistributionPack`` over ``DistanceDistribution.from_value_histogram``
rows (which record ``(value histogram, q)``), and
``DistributionPack.from_objects`` over the engine's candidates and the
filter's ``(lo, hi, density)`` columns.  Both fold one-bar rows by the
closed-form kernel (``_fold_bars``) and multi-bar rows by the ragged
kernel (``_fold_ragged``), and leave the rows ``DistanceDistribution``
would trim or renormalise to the scalar ``Histogram.fold_abs`` path.
The contract is that nobody can tell: every flat column of the pack
equals, bit for bit, the pack of ``DistanceDistribution(h.fold_abs(q),
key)`` rows — in every case of Figure 6, with ``q`` on an edge, on both
sides of the fold's merge tolerance, across fifteen decades of width,
from 1 to 600 bars, and in packs that mix kernel rows with rows that
take the scalar path or arrive folded.

Example counts follow the hypothesis profile (at least 150 each):
``pytest --hypothesis-profile=thorough`` runs 600.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.filtering import FoldColumns
from repro.uncertainty import columnar
from repro.uncertainty.columnar import DistributionPack
from repro.uncertainty.distance import DistanceDistribution
from repro.uncertainty.histogram import Histogram
from repro.uncertainty.objects import UncertainObject

#: Examples per property: the loaded profile's count, at least 150.
EXAMPLES = max(150, settings().max_examples)

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
@settings(max_examples=EXAMPLES, deadline=None)
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
@settings(max_examples=EXAMPLES, deadline=None)
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


# ----------------------------------------------------------------------
# The filter-column entry: candidates about one shared q
# ----------------------------------------------------------------------


def eager_pack(objects, q) -> DistributionPack:
    return DistributionPack(
        [DistanceDistribution(obj.histogram.fold_abs(q), obj.key) for obj in objects]
    )


def column_pack(objects, q) -> DistributionPack:
    return DistributionPack.from_objects(objects, q, FoldColumns.of(objects)[1:])


@st.composite
def bars_about(draw, q: float, key: int):
    """A one-bar object placed about ``q`` in one of Figure 6's cases."""
    width = 10.0 ** draw(st.floats(-9.0, 6.0))
    placement = draw(st.sampled_from(PLACEMENTS))
    fraction = draw(st.floats(0.0, 1.0))
    tolerance = 1e-15 + 1e-12 * max(0.5 * width, 1.0)
    lo = {
        "left": q + (0.1 + fraction) * width,
        "far_left": q + 1e6 * (1.0 + fraction),
        "at_lo": q,
        "at_hi": q - width,
        "right": q - (1.1 + fraction) * width,
        "inside": q - fraction * width,
        "centre": q - 0.5 * width,
        "inside_tolerance": q - 0.5 * width - 0.25 * tolerance,
        "outside_tolerance": q - 0.5 * width - 2.0 * tolerance,
    }[placement]
    hi = q if placement == "at_hi" else lo + width
    return UncertainObject.uniform(key, lo, hi)


@given(st.floats(-1e3, 1e3), st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_filter_column_entry_is_bit_identical(q, data):
    n = data.draw(st.integers(1, 30))
    objects = [data.draw(bars_about(q, key)) for key in range(n)]
    assert all(obj.uniform_density for obj in objects)
    assert_same_bits(column_pack(objects, q), eager_pack(objects, q))


# ----------------------------------------------------------------------
# The ragged multi-bar kernel
# ----------------------------------------------------------------------

#: Where ``q`` sits relative to a multi-bar support.
RAGGED_PLACEMENTS = (
    "left", "right", "inside", "on_edge", "at_lo", "at_hi",
    "mirror", "mirror_inside_tolerance", "mirror_outside_tolerance",
)


@st.composite
def value_edges(draw, q: float, bars: int) -> np.ndarray:
    """``bars + 1`` strictly increasing edges placed about ``q``."""
    unit = 10.0 ** draw(st.floats(-3.0, 2.0))
    steps = unit * np.asarray(
        draw(st.lists(st.floats(0.2, 5.0), min_size=bars, max_size=bars))
    )
    placement = draw(st.sampled_from(RAGGED_PLACEMENTS))
    offset = draw(st.floats(0.1, 50.0)) * unit
    if placement == "left":
        return q + offset + np.concatenate(([0.0], np.cumsum(steps)))
    if placement == "right":
        return q - offset - np.concatenate((np.cumsum(steps)[::-1], [0.0]))
    if placement == "at_lo":
        return q + np.concatenate(([0.0], np.cumsum(steps)))
    if placement == "at_hi":
        return q - np.concatenate((np.cumsum(steps)[::-1], [0.0]))
    if placement in ("inside", "on_edge"):
        cut = draw(st.integers(1, bars - 1))
        shift = 0.0 if placement == "on_edge" else draw(st.floats(0.05, 0.95))
        relative = np.concatenate(([0.0], np.cumsum(steps)))
        return q + (relative - relative[cut] - shift * steps[cut])
    # Mirrored edges fold onto each other: exactly, or a quarter / twice
    # the merge tolerance apart.
    half = (bars + 1) // 2
    side = np.cumsum(steps[:half])
    scale = max(float(side[-1]), 1.0)
    tolerance = 1e-15 + 1e-12 * scale
    delta = {"mirror": 0.0, "mirror_inside_tolerance": 0.25 * tolerance,
             "mirror_outside_tolerance": 2.0 * tolerance}[placement]
    left = q - side[::-1]
    right = q + side + delta
    middle = [q] if (bars + 1) % 2 else []
    return np.concatenate((left, middle, right))


@st.composite
def ragged_rows(draw, q=None, max_bars=600, normalised=False):
    """A multi-bar value histogram and its ``q`` — margins zero now and
    then (the scalar path trims), mass off 1 now and then (it
    renormalises)."""
    if q is None:
        q = draw(st.floats(-1e3, 1e3))
    bars = draw(st.one_of(st.integers(2, 8), st.integers(2, max_bars)))
    edges = draw(value_edges(q, bars))
    bars = edges.size - 1
    densities = np.asarray(
        draw(st.lists(st.floats(0.05, 2.0), min_size=bars, max_size=bars))
    )
    margin = draw(st.sampled_from(("none", "none", "left", "right", "interior")))
    if margin == "left":
        densities[0] = 0.0
    elif margin == "right":
        densities[-1] = 0.0
    elif margin == "interior" and bars > 2:
        densities[bars // 2] = 0.0
    histogram = Histogram(edges, densities).normalized()
    if not normalised and draw(st.booleans()):
        histogram = histogram.scaled(draw(st.sampled_from((0.5, 1.0 + 1e-9, 3.0))))
    return ("lazy", histogram, q)


@given(st.lists(ragged_rows(), min_size=1, max_size=12))
@settings(max_examples=EXAMPLES, deadline=None)
def test_ragged_kernel_is_bit_identical(rows):
    lazy, eager = build(rows)
    assert_same_bits(DistributionPack(lazy), DistributionPack(eager))


@given(st.floats(-1e3, 1e3), st.data())
@settings(max_examples=EXAMPLES, deadline=None)
def test_ragged_filter_entry_is_bit_identical(q, data):
    """Multi-bar objects beside one-bar ones, all about one ``q``."""
    objects = []
    for key in range(data.draw(st.integers(1, 10))):
        if data.draw(st.booleans()):
            objects.append(data.draw(bars_about(q, key)))
        else:
            _, histogram, _ = data.draw(ragged_rows(q, max_bars=300, normalised=True))
            objects.append(UncertainObject.from_histogram(key, histogram))
    assert_same_bits(column_pack(objects, q), eager_pack(objects, q))


@given(
    st.lists(
        st.one_of(one_bar_rows(), ragged_rows(), multi_bar_rows(), folded_rows()),
        min_size=1, max_size=16,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=EXAMPLES, deadline=None)
def test_ragged_packs_mix_kernel_and_fallback_rows(rows, random):
    lazy, eager = build(rows)
    got, want = DistributionPack(lazy), DistributionPack(eager)
    assert_same_bits(got, want)
    perm = list(range(len(rows)))
    random.shuffle(perm)
    assert_same_bits(got.take(np.array(perm)), want.take(np.array(perm)))


def test_multi_bar_rows_fold_in_the_kernel(monkeypatch):
    """The ragged kernel takes ordinary multi-bar rows (they stay
    unfolded) and leaves exactly the rows the scalar path would trim or
    renormalise."""
    kept = []
    kernel = columnar._fold_ragged

    def spy(edges, densities, sizes, q):
        ok, columns = kernel(edges, densities, sizes, q)
        kept.extend(ok.tolist())
        return ok, columns

    monkeypatch.setattr(columnar, "_fold_ragged", spy)
    edges = np.linspace(10.0, 22.0, 301)
    smooth = Histogram(edges, 1.0 + np.sin(np.arange(300) / 40.0) ** 2).normalized()
    margin = Histogram([0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.5])
    heavy = Histogram([0.0, 1.0, 2.0], [1.0, 1.0])  # mass 2
    rows = [
        DistanceDistribution.from_value_histogram(smooth, q, i)
        for i, q in enumerate((0.0, 10.0, 15.04, 16.0, 22.0, 40.0))
    ]
    rows.append(DistanceDistribution.from_value_histogram(margin, 2.5, "margin"))
    rows.append(DistanceDistribution.from_value_histogram(heavy, 0.5, "heavy"))
    DistributionPack(rows)
    assert kept == [True] * 6 + [False, False]
    assert all(row._histogram is None for row in rows[:6])
    assert all(row._histogram is not None for row in rows[6:])


def test_ragged_kernel_at_the_dedupe_boundary():
    """Mirrored edges whose folds differ by just under, within and just
    over ``1e-15 + 1e-12·scale`` (scale 1 here): the kernel merges or
    keeps them exactly as ``Histogram.fold_abs`` does."""
    rows = []
    for key, gap in enumerate((0.9995e-12, 1.0005e-12, 1.0015e-12, 4e-12)):
        edges = [-0.75, -0.5, 0.5 + gap, 0.75]
        histogram = Histogram(edges, [1.0, 0.5, 1.0]).normalized()
        rows.append(("lazy", histogram, 0.0))
    lazy, eager = build(rows)
    assert [row.histogram.nbins for row in eager] == [2, 2, 3, 3]
    assert_same_bits(DistributionPack(lazy), DistributionPack(eager))
