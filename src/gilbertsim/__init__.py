"""Gilbert graph simulation with closed-form theory oracles.

Simulates random geometric graphs on Poisson/binomial point processes in
convex windows, evaluates exact moment formulas and limit laws for the
length-power functionals, and verifies them by seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .geometry import (ConvexWindow, covariogram,
                       covariogram_radial_integral,
                       inner_parallel_volume_lower_bound, sample_uniform,
                       unit_ball_volume)
from .gilbert_graph import (EdgeSet, build_edges, build_edges_bruteforce,
                            length_power, max_degree)
from .point_process import (PointSample, replication_rng, replication_rngs,
                            sample_binomial, sample_poisson)
from .theory_moments import (RegimeSchedule, covariance_bounds,
                             covariance_exact, d3_bound, expectation_bounds,
                             expectation_exact, kolmogorov_bound, m_bounds,
                             sigma_matrix, variance_asymptotic)

__all__ = [
    "ConvexWindow", "EdgeSet", "PointSample", "RegimeSchedule",
    "__version__", "build_edges", "build_edges_bruteforce",
    "covariance_bounds", "covariance_exact", "covariogram",
    "covariogram_radial_integral", "d3_bound", "expectation_bounds",
    "expectation_exact", "inner_parallel_volume_lower_bound",
    "kolmogorov_bound", "length_power", "m_bounds",
    "max_degree", "replication_rng", "replication_rngs", "sample_binomial",
    "sample_poisson", "sample_uniform", "sigma_matrix", "unit_ball_volume",
    "variance_asymptotic",
]
