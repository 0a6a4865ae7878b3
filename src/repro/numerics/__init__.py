"""Shared numerical routines: quadrature, exclusion products and the
Poisson-binomial DP."""

from repro.numerics.poisson_binomial import (
    exclusion_products,
    poisson_binomial_pmf,
    prob_at_most,
    prob_at_most_vectorized,
)
from repro.numerics.quadrature import (
    gauss_legendre_nodes,
    integrate_on_interval,
    integrate_piecewise,
    nodes_for_degree,
)

__all__ = [
    "exclusion_products",
    "gauss_legendre_nodes",
    "integrate_on_interval",
    "integrate_piecewise",
    "nodes_for_degree",
    "poisson_binomial_pmf",
    "prob_at_most",
    "prob_at_most_vectorized",
]
