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
]


def exclusion_products(
    survival: np.ndarray, rows: np.ndarray | None = None
) -> np.ndarray:
    """``Π_{k≠i} survival[k, …]`` for every row ``i`` (products along axis 0).

    One product per column divided by each row.  A factor ``<= 0``
    (an object certainly closer) cannot go through the division, so
    columns holding one get the exact answer instead: with one such
    factor its row gets the product of the others and every other row
    0; with two or more, every row gets 0.  Returns a new array of
    ``survival``'s shape, or of its ``rows`` only when given: the
    column products still run over every row, and each chosen row's
    values are those of the full result, bit for bit.
    """
    survival = np.asarray(survival, dtype=float)
    zero = survival <= 0.0
    if not zero.any():
        product = np.prod(survival, axis=0)
        return product / (survival if rows is None else survival[rows])
    safe = np.where(zero, 1.0, survival)
    product = np.prod(safe, axis=0)  # of the factors above zero
    zeros = zero.sum(axis=0)
    if rows is not None:
        safe, zero = safe[rows], zero[rows]
    return np.where(
        zeros == 0, product / safe, np.where(zero & (zeros == 1), product, 0.0)
    )


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
