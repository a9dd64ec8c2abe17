"""Limit objects for rescaled edge-length powers.

Covers the compound-Poisson limit of t^(2a/d) L^(a) when t^2 delta^d -> c,
the limiting Poisson process of rescaled edge-length powers (with intensity
nu([0,u]) = (kappa_d/2) V u^(d/a), truncated at c in the constant-edge
regime), the order-statistic limit laws, and the two convergence conditions
a_t(u), r_t(u) that drive the point-process limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexWindow, covariogram_radial_integral, unit_ball_volume


@dataclass(frozen=True)
class CompoundPoissonModel:
    """Limit law Z = sum_{i<=Y} X_i of the rescaled functional."""

    c: float  # lim t^2 delta_t^d
    dim: int
    alpha: float
    volume: float

    def __post_init__(self):
        if not (self.c > 0 and self.alpha > 0 and self.volume > 0 and self.dim >= 1):
            raise ValueError("compound Poisson model needs c, alpha, volume > 0")

    @property
    def y_mean(self) -> float:
        """Mean of the Poisson summand count: kappa_d c V / 2."""
        return unit_ball_volume(self.dim) * self.c * self.volume / 2.0

    @property
    def x_max(self) -> float:
        """Upper end of the summand support: c^(alpha/d)."""
        return self.c ** (self.alpha / self.dim)

    @property
    def x_mean(self) -> float:
        """Mean summand: (d/(d+alpha)) c^(alpha/d)."""
        return self.dim / (self.dim + self.alpha) * self.x_max

    @property
    def mean(self) -> float:
        return self.y_mean * self.x_mean

    @property
    def atom_at_zero(self) -> float:
        """P(Z = 0) = exp(-y_mean)."""
        return math.exp(-self.y_mean)


def sample_compound_poisson(model: CompoundPoissonModel, rng: np.random.Generator,
                            size: int) -> np.ndarray:
    """size draws of Z = sum_{i<=Y} X_i; X via inverse CDF X = c^(a/d) U^(a/d)."""
    counts = rng.poisson(model.y_mean, size)
    total = int(counts.sum())
    x = model.x_max * rng.random(total) ** (model.alpha / model.dim)
    out = np.zeros(size)
    np.add.at(out, np.repeat(np.arange(size), counts), x)
    return out


@dataclass(frozen=True)
class EdgeLengthProcessLimit:
    """Limit regime of the rescaled edge-length-power point process."""

    alpha: float
    edge_constant: float = math.inf  # c = lim t^2 delta^d, inf when it diverges

    def __post_init__(self):
        if not (self.alpha > 0):
            raise ValueError("alpha must be > 0")
        if not (self.edge_constant > 0):
            raise ValueError("edge constant must be > 0")


def pp_intensity(limit: EdgeLengthProcessLimit, u: float, volume: float, dim: int) -> float:
    """nu([0, u]) = (kappa_d/2) V min(u^(d/alpha), c)."""
    if u < 0:
        raise ValueError("u must be >= 0")
    kd = unit_ball_volume(dim)
    return 0.5 * kd * volume * min(u ** (dim / limit.alpha), limit.edge_constant)


def order_statistic_survival(m: int, u: float, limit: EdgeLengthProcessLimit,
                             volume: float, dim: int) -> float:
    """P(limit of t^(2a/d) S_m > u) = exp(-nu) * sum_{j<m} nu^j / j!,
    with the measure-derived exponent nu = nu([0, u]) ~ u^(d/alpha)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if u < 0:
        raise ValueError("u must be >= 0")
    nu = pp_intensity(limit, u, volume, dim)
    acc = 0.0
    term = 1.0
    for j in range(m):
        if j > 0:
            term *= nu / j
        acc += term
    return math.exp(-nu) * acc


def order_statistic_cdf(m: int, u: float, limit: EdgeLengthProcessLimit,
                        volume: float, dim: int) -> float:
    """Distribution function of the limiting m-th order statistic."""
    return 1.0 - order_statistic_survival(m, u, limit, volume, dim)


def pp_conditions(window: ConvexWindow, t: float, delta: float,
                  alpha: float, u: float) -> tuple[float, float]:
    """The convergence conditions (a_t(u), r_t(u)) at finite t.

    a_t = (t^2/2) * int_{B(0,rho)} g_W, rho = min{delta, u^(1/alpha) t^(-2/d)};
    r_t = t * kappa_d * rho^d (interior supremum of the local mass).
    """
    if not (u > 0 and alpha > 0):
        raise ValueError("u and alpha must be > 0")
    d = window.dim
    rho = min(delta, u ** (1.0 / alpha) * t ** (-2.0 / d))
    a_t = 0.5 * t * t * covariogram_radial_integral(window, rho, 0.0)
    r_t = t * unit_ball_volume(d) * rho**d
    return (a_t, r_t)


def pp_condition_limits(window: ConvexWindow, alpha: float, u: float,
                        edge_constant: float = math.inf) -> float:
    """Stated limit of a_t(u): (kappa_d/2) V min(u^(d/alpha), c)."""
    limit = EdgeLengthProcessLimit(alpha=alpha, edge_constant=edge_constant)
    return pp_intensity(limit, u, window.volume, window.dim)
