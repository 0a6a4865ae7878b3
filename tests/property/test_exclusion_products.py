"""Property tests for :func:`repro.numerics.poisson_binomial.exclusion_products`
and its ragged sibling :func:`segmented_exclusion_products`.

The kernel divides one column product by each row and takes an exact
branch for columns holding a zero factor.  Every case is checked
against the definition, ``np.prod(np.delete(s, i, 0), 0)``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.numerics.poisson_binomial import (
    exclusion_products,
    segmented_exclusion_products,
)

#: Kernel vs definition where nothing underflows: each side rounds at
#: most one multiplication per factor and one division.
RTOL = 1e-13


def definition(survival) -> np.ndarray:
    s = np.asarray(survival, dtype=float)
    return np.stack([np.prod(np.delete(s, i, 0), 0) for i in range(s.shape[0])])


def assert_matches_definition(survival) -> None:
    got = exclusion_products(survival)
    assert got.shape == np.shape(survival)
    np.testing.assert_allclose(got, definition(survival), rtol=RTOL, atol=0.0)


@st.composite
def survivals(draw, elements, max_rows=40):
    """1-D, 2-D or 3-D arrays of 1–``max_rows`` rows (the product's axis)."""
    rows = draw(st.integers(1, max_rows))
    trailing = draw(st.lists(st.integers(1, 5), min_size=0, max_size=2))
    return draw(hnp.arrays(float, (rows, *trailing), elements=elements))


@given(survivals(st.floats(1e-3, 1.0)))
def test_without_zeros(survival):
    assert_matches_definition(survival)


@given(survivals(st.floats(1e-3, 1.0) | st.just(0.0)))
def test_with_zeros(survival):
    assert_matches_definition(survival)


@given(survivals(st.floats(1e-100, 1e-95), max_rows=3))
def test_tiny_values(survival):
    # ≤ 3 factors of ≥ 1e-100: the column product stays normal.
    assert_matches_definition(survival)


def test_one_dimensional():
    got = exclusion_products([0.5, 0.25, 0.8])
    np.testing.assert_allclose(got, [0.2, 0.4, 0.125], rtol=RTOL)


def test_one_row_is_the_empty_product():
    np.testing.assert_array_equal(exclusion_products([[0.3, 0.0, 1.0]]), [[1.0] * 3])


def test_one_zero_in_a_column():
    s = np.array([[0.5, 0.5], [0.0, 0.5], [0.25, 0.5]])
    got = exclusion_products(s)
    np.testing.assert_array_equal(got[:, 0], [0.0, 0.125, 0.0])
    np.testing.assert_allclose(got[:, 1], [0.25, 0.25, 0.25], rtol=RTOL)


def test_two_zeros_and_all_zeros():
    s = np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.0]])
    np.testing.assert_array_equal(exclusion_products(s), np.zeros((3, 2)))


def test_a_factor_below_zero_counts_as_zero():
    # Survival one rounding step below zero (a cdf read just above 1).
    got = exclusion_products([-1e-17, 0.5, 0.25])
    np.testing.assert_array_equal(got, [0.125, 0.0, 0.0])


def test_input_is_not_modified():
    s = np.array([[0.5, 0.0], [0.25, 0.5]])
    before = s.copy()
    exclusion_products(s)
    np.testing.assert_array_equal(s, before)


# ----------------------------------------------------------------------
# The kernel redoes only the columns that hold a zero; the formula that
# took the exact branch over the whole matrix is the bit-for-bit oracle.
# ----------------------------------------------------------------------


def whole_matrix_branch(survival, rows=None) -> np.ndarray:
    """The exact branch applied to every column at once."""
    survival = np.asarray(survival, dtype=float)
    zero = survival <= 0.0
    if not zero.any():
        product = np.prod(survival, axis=0)
        return product / (survival if rows is None else survival[rows])
    safe = np.where(zero, 1.0, survival)
    product = np.prod(safe, axis=0)
    zeros = zero.sum(axis=0)
    if rows is not None:
        safe, zero = safe[rows], zero[rows]
    return np.where(
        zeros == 0, product / safe, np.where(zero & (zeros == 1), product, 0.0)
    )


@st.composite
def zero_columns(draw):
    """A small matrix whose columns hold 0, 1 or several zero factors
    (or factors just below zero), with a row subset to pick."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 6))
    survival = draw(
        hnp.arrays(float, (rows, cols), elements=st.floats(1e-3, 1.0))
    )
    for j in range(cols):
        zeros = draw(st.integers(0, rows))
        at = draw(st.permutations(range(rows)))[:zeros]
        survival[at, j] = draw(st.sampled_from([0.0, -1e-17]))
    subset = draw(
        st.none()
        | st.lists(st.integers(0, rows - 1), min_size=1, max_size=rows).map(np.array)
        | hnp.arrays(bool, rows)
    )
    return survival, subset


@given(zero_columns())
def test_redone_columns_match_the_whole_matrix_branch(case):
    survival, subset = case
    expected = whole_matrix_branch(survival, subset)
    with np.errstate(all="raise"):
        got = exclusion_products(survival, subset)
    np.testing.assert_array_equal(got, expected)
    assert got.tobytes() == expected.tobytes()


@given(survivals(st.floats(1e-3, 1.0) | st.just(0.0)))
def test_redone_columns_match_on_any_shape(survival):
    expected = whole_matrix_branch(survival)
    assert exclusion_products(survival).tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# The ragged kernel the stacked verifier pass uses: each column of its
# own length, and the same whole-matrix formula as the oracle.
# ----------------------------------------------------------------------


@st.composite
def ragged_columns(draw):
    """Columns of 1–8 non-negative factors (0, 1 or several zeros each)
    and, per column, the rows whose cells are asked for."""
    columns, picks = [], []
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.integers(1, 8))
        column = draw(hnp.arrays(float, rows, elements=st.floats(1e-3, 1.0)))
        zeros = draw(st.integers(0, rows))
        column[draw(st.permutations(range(rows)))[:zeros]] = 0.0
        columns.append(column)
        picks.append(
            draw(st.lists(st.integers(0, rows - 1), max_size=rows, unique=True))
        )
    return columns, picks


@given(ragged_columns())
def test_segmented_cells_match_the_whole_matrix_branch(case):
    columns, picks = case
    lengths = np.array([column.size for column in columns])
    starts = np.cumsum(lengths) - lengths
    factors = np.concatenate(columns)
    cols = np.concatenate([np.full(len(p), c) for c, p in enumerate(picks)])
    mine = np.concatenate([column[p] for column, p in zip(columns, picks)])
    with np.errstate(all="raise"):
        got = segmented_exclusion_products(
            factors, starts, lengths, mine, cols.astype(np.intp)
        )
    expected = np.concatenate(
        [
            whole_matrix_branch(column[:, None], np.array(p, dtype=np.intp))[:, 0]
            for column, p in zip(columns, picks)
        ]
    )
    assert got.tobytes() == expected.tobytes()
