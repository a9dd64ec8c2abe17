"""The limiting Poisson process of the rescaled edge-length powers t^(2a/d) |e|^a,
nu([0,u]) = (kappa_d/2) V min(u^(d/a), c) with c = lim t^2 delta^d, whose order
statistics give the limit laws and whose sum (c finite) is the compound-Poisson limit
of t^(2a/d) L^(a). At finite t it gives the rescale t^(2a/d) and the radius rho of the
conditions a_t(u) = E L^(0) at distance rho -> nu([0, u]) and r_t(u) = t kappa_d rho^d -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import unit_ball_volume


@dataclass(frozen=True)
class EdgeLengthProcessLimit:
    """Limiting Poisson process of the rescaled edge-length powers."""

    alpha: float
    dim: int
    volume: float
    edge_constant: float = math.inf  # c = lim t^2 delta^d, inf when it diverges

    def __post_init__(self):
        if not (self.alpha > 0 and self.edge_constant > 0 and self.volume > 0 and self.dim >= 1):
            raise ValueError("the limit needs alpha, edge constant, volume > 0 and dim >= 1")

    def intensity(self, u: float) -> float:
        """nu([0, u]) = (kappa_d/2) V min(u^(d/alpha), c)."""
        if u < 0:
            raise ValueError("u must be >= 0")
        kd = unit_ball_volume(self.dim)
        return 0.5 * kd * self.volume * min(u ** (self.dim / self.alpha), self.edge_constant)

    def rescale(self, t: float) -> float:
        """t^(2 alpha/d), which takes the length powers at intensity t to the limit."""
        return t ** (2.0 * self.alpha / self.dim)

    def radius(self, t: float, delta: float, u: float) -> float:
        """rho = min{delta, u^(1/alpha) t^(-2/d)}, the radius of the conditions at (t, u)."""
        return min(delta, u ** (1.0 / self.alpha) * t ** (-2.0 / self.dim))

    def order_statistic_survival(self, m: int, u: float) -> float:
        """P(limit of t^(2a/d) S_m > u) = exp(-nu) * sum_{j<m} nu^j / j!,
        with the measure-derived exponent nu = nu([0, u]) ~ u^(d/alpha)."""
        if m < 1:
            raise ValueError("m must be >= 1")
        nu = self.intensity(u)  # raises for u < 0
        if math.isinf(nu):  # u = inf with c = inf: no mass left above
            return 0.0
        acc = term = 1.0
        for j in range(1, m):
            term *= nu / j
            acc += term
        return math.exp(-nu) * acc

    def order_statistic_cdf(self, m: int, u: float) -> float:
        """Distribution function of the limiting m-th order statistic."""
        return 1.0 - self.order_statistic_survival(m, u)

    def unit_intervals(self, count: int) -> tuple[list[tuple[float, float]], list[float]]:
        """[u_(k-1), u_k) with nu([0, u_k]) = k uncapped, k = 1..count, and their nu masses."""
        kd = unit_ball_volume(self.dim)
        v, d, alpha, c = self.volume, self.dim, self.alpha, self.edge_constant
        bounds = [(2.0 * k / (kd * v)) ** (alpha / d) for k in range(count + 1)]
        intervals = list(zip(bounds[:-1], bounds[1:]))
        nus = [0.5 * kd * v * (min(hi ** (d / alpha), c) - min(lo ** (d / alpha), c))
               for lo, hi in intervals]
        return intervals, nus

    @property
    def _count_mean(self) -> float:
        """kappa_d c V / 2, the mean point count (intensity(inf) may differ in the last bit)."""
        return unit_ball_volume(self.dim) * self.edge_constant * self.volume / 2.0

    @property
    def atom_at_zero(self) -> float:
        """P(no point) = P(Z = 0) = exp(-kappa_d c V / 2)."""
        return math.exp(-self._count_mean)

    def sample_sum(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size draws of the compound-Poisson limit Z = sum_{i<=Y} X_i, the sum of
        the points; X via inverse CDF X = c^(a/d) U^(a/d). Needs c finite."""
        if math.isinf(self.edge_constant):
            raise ValueError("the sum of the points is finite only for a finite edge constant")
        counts = rng.poisson(self._count_mean, size)
        total = int(counts.sum())
        p = self.alpha / self.dim
        x = self.edge_constant ** p * rng.random(total) ** p
        return np.bincount(np.repeat(np.arange(size), counts), weights=x, minlength=size)
