"""Property tests for :func:`repro.numerics.poisson_binomial.exclusion_products`.

The kernel divides one column product by each row and takes an exact
branch for columns holding a zero factor.  Every case is checked
against the definition, ``np.prod(np.delete(s, i, 0), 0)``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.numerics.poisson_binomial import exclusion_products

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
