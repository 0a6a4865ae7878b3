"""Products over independent objects: the C-PNN exclusion product and
the Poisson-binomial probabilities of the k-NN extension.

The nearest-neighbour case (``k = 1``) needs, for every object ``i``,
the probability that no *other* object is closer:
``Π_{k≠i}(1 − D_k(r))`` — :func:`exclusion_products`, shared by the
subregion tables' ``Z`` and by refinement's quadrature.

The paper lists k-NN queries as future work (Section VI).  Our
extension (:mod:`repro.core.knn`) computes the probability that an
object is among the ``k`` nearest neighbours:

    p_i(k) = ∫ d_i(r) · Pr[at most k−1 other objects are closer than r] dr

Conditioned on ``R_i = r``, each other object ``k'`` is independently
closer with probability ``D_{k'}(r)``, so the count of closer objects
is Poisson-binomial; this module supplies the standard O(n·k) dynamic
programme for its pmf/cdf.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "exclusion_products",
    "poisson_binomial_pmf",
    "prob_at_most",
    "prob_at_most_vectorized",
    "segmented_exclusion_products",
]


def exclusion_products(
    survival: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """``Π_{k≠i} survival[k, …]`` for every row ``i`` (products along axis 0).

    One product per column divided by each row.  A factor ``<= 0``
    (an object certainly closer) cannot go through the division, so
    columns holding one get the exact answer instead: with one such
    factor its row gets the product of the others and every other row
    0; with two or more, every row gets 0.  Only those columns are
    redone; the others keep the division.  Returns a new array of
    ``survival``'s shape, or of its ``rows`` only when given: the
    column products still run over every row, and each chosen row's
    values are those of the full result, bit for bit.
    """
    survival = np.asarray(survival, dtype=float)
    zero = survival <= 0.0
    product = np.multiply.reduce(survival, axis=0)
    if not zero.any():
        return product / (survival if rows is None else survival[rows])
    shape = survival.shape
    if survival.ndim != 2:  # columns as the trailing axis
        survival = survival.reshape(shape[0], -1)
        zero = zero.reshape(shape[0], -1)
        product = product.reshape(-1)
    held = np.flatnonzero(np.logical_or.reduce(zero, axis=0))
    zero = zero[:, held]
    # The product of the factors above zero, in row order.
    others = np.multiply.reduce(np.where(zero, 1.0, survival[:, held]), axis=0)
    single = np.add.reduce(zero, axis=0) == 1
    if rows is None:
        chosen = survival.copy()
    else:
        chosen, zero = survival[rows], zero[rows]
    chosen[:, held] = 1.0  # those columns are redone below
    out = product / chosen
    out[:, held] = np.where(zero & single, others, 0.0)
    return out.reshape(chosen.shape[:1] + shape[1:])


def segmented_exclusion_products(
    factors: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    mine: np.ndarray,
    cols: np.ndarray,
) -> np.ndarray:
    """:func:`exclusion_products` over ragged columns.

    Column ``c``'s factors are ``factors[starts[c] : starts[c] +
    lengths[c]]``, in row order, none negative.  Cell ``t`` gets the
    product of its column ``cols[t]``'s factors without its own factor
    ``mine[t]``: one product per column divided by the cell's factor,
    and, in a column holding a zero, the exact answer of
    :func:`exclusion_products`.  Every column product runs in row
    order, as ``np.prod(axis=0)`` runs, so a column's cells equal those
    of :func:`exclusion_products` on its own rows, bit for bit.  The two
    stay separate kernels: on one dense matrix, the axis-0 reductions of
    :func:`exclusion_products` take fewer numpy calls than the ragged
    gathers here.
    """
    product = np.multiply.reduceat(factors, starts)
    # A zero factor zeroes its column's product (no factor is negative),
    # so only those columns are looked at again.
    suspect = np.flatnonzero(product == 0.0)
    if not suspect.size:
        return product[cols] / mine
    run = lengths[suspect]
    at = np.repeat(starts[suspect] - (np.cumsum(run) - run), run)
    at += np.arange(at.size)
    first = np.cumsum(run) - run
    zero = factors[at] <= 0.0
    zeros = np.add.reduceat(zero, first, dtype=np.intp)
    # The product of the factors above zero, in row order.
    others = np.multiply.reduceat(np.where(zero, 1.0, factors[at]), first)
    slot = np.full(product.size, -1)
    slot[suspect] = np.arange(suspect.size)
    slot = slot[cols]
    held = np.flatnonzero((slot >= 0) & (zeros[slot] > 0))
    slot = slot[held]
    single = (mine[held] <= 0.0) & (zeros[slot] == 1)
    safe = mine.copy()
    safe[held] = 1.0  # those cells are redone below
    out = product[cols] / safe
    out[held] = np.where(single, others[slot], 0.0)
    return out


def poisson_binomial_pmf(probabilities: Sequence[float] | np.ndarray) -> np.ndarray:
    """The pmf of a sum of independent Bernoulli(p_i) variables.

    Returns an array of length ``n + 1`` whose ``m``-th entry is
    ``Pr[sum == m]``.  Runs the classic forward DP in O(n^2); the
    engine only ever needs prefixes, see :func:`prob_at_most`.
    """
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 1:
        raise ValueError("probabilities must be one-dimensional")
    if np.any((probs < -1e-12) | (probs > 1 + 1e-12)):
        raise ValueError("probabilities must lie in [0, 1]")
    probs = np.clip(probs, 0.0, 1.0)
    pmf = np.zeros(probs.size + 1)
    pmf[0] = 1.0
    for idx, p in enumerate(probs):
        # After idx items, only entries 0..idx are populated.
        upper = idx + 1
        pmf[1 : upper + 1] = pmf[1 : upper + 1] * (1.0 - p) + pmf[:upper] * p
        pmf[0] *= 1.0 - p
    return pmf


def prob_at_most(
    probabilities: Sequence[float] | np.ndarray, threshold: int
) -> float:
    """``Pr[sum of Bernoullis <= threshold]`` in O(n * threshold).

    Only the first ``threshold + 1`` pmf entries are maintained, which
    is all the k-NN integrand needs (``threshold = k - 1``).
    """
    probs = np.asarray(probabilities, dtype=float)
    if threshold < 0:
        return 0.0
    if threshold >= probs.size:
        return 1.0
    probs = np.clip(probs, 0.0, 1.0)
    window = np.zeros(threshold + 1)
    window[0] = 1.0
    for p in probs:
        window[1:] = window[1:] * (1.0 - p) + window[:-1] * p
        window[0] *= 1.0 - p
    return float(window.sum())


def prob_at_most_vectorized(
    prob_matrix: np.ndarray, threshold: int, *, overwrite_input: bool = False
) -> np.ndarray:
    """Column-wise :func:`prob_at_most` for a (n_objects, n_points) matrix.

    Used by the k-NN integrator to evaluate the Poisson-binomial cdf at
    every quadrature node in one pass.  All-zero rows are exact no-ops
    of the row-sequential DP, so callers may zero a row instead of
    deleting it.  ``overwrite_input=True`` clips into ``prob_matrix``
    itself (a float array the caller owns and no longer needs) instead
    of a copy.
    """
    if prob_matrix.ndim != 2:
        raise ValueError("prob_matrix must be 2-D")
    n, m = prob_matrix.shape
    if threshold < 0:
        return np.zeros(m)
    if threshold >= n:
        return np.ones(m)
    probs = np.clip(prob_matrix, 0.0, 1.0, out=prob_matrix if overwrite_input else None)
    window = np.zeros((threshold + 1, m))
    window[0] = 1.0
    for row in probs:
        window[1:] = window[1:] * (1.0 - row) + window[:-1] * row
        window[0] *= 1.0 - row
    return window.sum(axis=0)
