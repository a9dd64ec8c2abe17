"""Closed-form moment theory for length-power functionals.

Exact expectation/covariance evaluators plus the computable normal-approximation
bounds: expectation sandwich, covariance sandwich, asymptotic covariance matrix
by regime, M-term upper estimates, and the explicit Kolmogorov/d3 bounds.

The exact covariance splits as
    Cov = t^3 * I_hh + (t^2/2) * R_{alpha+beta},
    I_hh = int_W h_a(y) h_b(y) dy,   h_g(y) = int_{B(y,delta) ∩ W} ||y-x||^g dx,
    R_g  = int_{B(0,delta)} ||z||^g g_W(z) dz.
Inside the inner parallel body h_g is the constant C_g = d k_d delta^{g+d}/(g+d);
the boundary layer is integrated by Gauss quadrature in wall-distance
coordinates using spherical-cap moment kernels.

For boxes the deficit D_g = C_g - h_g is homogeneous, D_g(delta u; delta) =
delta^(g+d) D_g(u; 1), and each Gauss weight scales by delta per wall
coordinate, so the layer with m active walls equals delta^(a+b+2d+m) times a
delta-free sum.  The delta = 1 deficit tables are built once per (d, g) and
kept in a small LRU cache; every box and every delta reuses them.

The radial moments R_g need no cache of their own here: every R_g over the
same [0, delta] evaluates the box's angular covariogram at the same quadrature
nodes, and geometry caches those values per (sides, r), so a repeated R_g
costs only the quadrature loop.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateVarianceError, DivergentCovarianceError,
                     NonIntegrableError, UnsupportedDimensionError)
from .geometry import (ConvexWindow, _gl_nodes, covariogram_radial_integral,
                       inner_parallel_volume_lower_bound, unit_ball_volume)


@dataclass(frozen=True)
class TheoryPrediction:
    """A named closed-form quantity (value or [lo, hi] interval)."""

    name: str
    value: float | tuple[float, float]
    params: dict
    anchor: str
    estimated: bool = False


@dataclass(frozen=True)
class RegimeSchedule:
    """Distance schedule delta_t = a * t^(-gamma)."""

    a: float
    gamma: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.a, self.gamma)):
            raise ValueError("schedule requires finite a > 0 and gamma > 0")

    def delta_at(self, t: float) -> float:
        return self.a * float(t) ** (-self.gamma)

    def classify(self, dim: int) -> str:
        """sparse / thermodynamic / dense by the limit of t * delta_t^d."""
        crit = 1.0 / dim
        if self.gamma > crit:
            return "sparse"
        if self.gamma == crit:
            return "thermodynamic"
        return "dense"

    def degree_constant(self, dim: int) -> float:
        """lim t * delta_t^d (0, a^d, or inf)."""
        kind = self.classify(dim)
        if kind == "sparse":
            return 0.0
        if kind == "thermodynamic":
            return self.a**dim
        return math.inf

    def edge_constant(self, dim: int) -> float:
        """lim t^2 * delta_t^d (0, a^d, or inf)."""
        crit = 2.0 / dim
        if self.gamma > crit:
            return 0.0
        if self.gamma == crit:
            return self.a**dim
        return math.inf


def normalization(t: float, delta: float, alpha: float, dim: int) -> float:
    """Scaling max{t delta^(a+d/2), t^(3/2) delta^(a+d)} for the CLT vector."""
    return max(t * delta ** (alpha + dim / 2.0), t**1.5 * delta ** (alpha + dim))


def expectation_exact(window: ConvexWindow, t: float, delta: float, alpha: float) -> float:
    """E L^(alpha) = (t^2/2) * int_{B(0,delta)} ||y||^a g_W(y) dy."""
    if alpha <= -window.dim:
        raise NonIntegrableError(f"alpha must exceed -d = {-window.dim}")
    if t == 0:
        return 0.0
    return 0.5 * t * t * covariogram_radial_integral(window, delta, alpha)


def expectation_bounds(window: ConvexWindow, t: float, delta: float, alpha: float) -> tuple[float, float]:
    """Sandwich for E L^(alpha); upper is the leading term, lower subtracts
    the surface correction (kappa_{d-1}/(2(a+d+1))) t^2 delta^(a+d+1) S(W)."""
    d = window.dim
    if alpha <= -d:
        raise NonIntegrableError(f"alpha must exceed -d = {-d}")
    lead = d * unit_ball_volume(d) / (2.0 * (alpha + d)) * t * t * delta ** (alpha + d) * window.volume
    corr = unit_ball_volume(d - 1) / (2.0 * (alpha + d + 1)) * t * t * delta ** (alpha + d + 1) * window.surface_area
    return (lead - corr, lead)


def interior_moment(dim: int, delta: float, gamma: float) -> float:
    """C_g = d kappa_d delta^(g+d) / (g+d): full-ball moment of ||z||^g."""
    return dim * unit_ball_volume(dim) * delta ** (gamma + dim) / (gamma + dim)


# ---------------------------------------------------------------------------
# Boundary-layer kernels.  K1/K2/K3 are moments of ||z||^g over the unit ball
# truncated by 1, 2, or 3 orthogonal half-spaces z_i < -w_i; they reduce to
# radial integrals of spherical cap/wedge measures.  Each kernel, and so each
# deficit D_g, is homogeneous: D_g(delta u; delta) = delta^(g+d) D_g(u; 1), so
# they are tabulated once at delta = 1 and scaled.
# ---------------------------------------------------------------------------

_GL_FACE = 64
_GL_EDGE = 40
_GL_CORNER = 12


def _wedge_measure_2d(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Arc measure of {u in S^1: u_1 >= h1, u_2 >= h2}, h in [0, 1]."""
    return np.maximum(np.arccos(np.clip(h1, 0.0, 1.0)) - np.arcsin(np.clip(h2, 0.0, 1.0)), 0.0)


def _wedge_measure_3d(h1: np.ndarray, h2: np.ndarray, order: int = 32) -> np.ndarray:
    """Measure of {u in S^2: u_1 >= h1, u_2 >= h2} (slice integral over x)."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    top = np.sqrt(np.maximum(1.0 - h2 * h2, 0.0))
    lo = np.minimum(h1, top)
    x, w = _gl_nodes(lo, top, order)
    rho = np.sqrt(np.maximum(1.0 - x * x, 1e-300))
    arc = 2.0 * np.arccos(np.minimum(h2[..., None] / rho, 1.0))
    return np.einsum("...k,...k->...", w, arc)


def _corner_measure_3d(h1, h2, h3, order: int = 32) -> np.ndarray:
    """Measure of {u in S^2: u_i >= h_i, i=1..3}."""
    h1 = np.asarray(h1, dtype=float)
    h2 = np.asarray(h2, dtype=float)
    h3 = np.asarray(h3, dtype=float)
    top = np.sqrt(np.maximum(1.0 - h2 * h2 - h3 * h3, 0.0))
    lo = np.minimum(h1, top)
    x, w = _gl_nodes(lo, top, order)
    rho = np.sqrt(np.maximum(1.0 - x * x, 1e-300))
    ang = np.arccos(np.minimum(h2[..., None] / rho, 1.0)) \
        - np.arcsin(np.minimum(h3[..., None] / rho, 1.0))
    return np.einsum("...k,...k->...", w, np.maximum(ang, 0.0))


def _k1(dim: int, gamma: float, w: np.ndarray) -> np.ndarray:
    """Moment of ||z||^g over {||z|| <= 1, z_1 < -w}, w in [0, 1]."""
    if dim == 1:
        return (1.0 - w ** (gamma + 1.0)) / (gamma + 1.0)
    if dim == 3:
        t1 = (1.0 - w ** (gamma + 3.0)) / (gamma + 3.0)
        t2 = w * (1.0 - w ** (gamma + 2.0)) / (gamma + 2.0)
        return 2.0 * math.pi * (t1 - t2)
    # d == 2: radial Gauss with the arc measure 2 arccos(w/r) of the cap
    r, wt = _gl_nodes(w, 1.0, _GL_FACE)
    h = np.minimum(w[..., None] / np.maximum(r, 1e-300), 1.0)
    return np.einsum("...k,...k->...", wt, r ** (gamma + 1.0) * (2.0 * np.arccos(h)))


def _wedge_geometry(dim: int, w1: np.ndarray, w2: np.ndarray, order: int):
    """Radial nodes r and weights x wedge measure for K2 at wall distances w1, w2."""
    lo = np.minimum(np.sqrt(w1 * w1 + w2 * w2), 1.0)
    r, wt = _gl_nodes(lo, 1.0, order)
    rs = np.maximum(r, 1e-300)
    h1 = w1[..., None] / rs
    h2 = w2[..., None] / rs
    ang = _wedge_measure_2d(h1, h2) if dim == 2 else _wedge_measure_3d(h1, h2)
    return r, wt * ang


def _corner_geometry(w1: np.ndarray, w2: np.ndarray, w3: np.ndarray, order: int):
    """Radial nodes r and weights x corner measure for the d=3 kernel K3."""
    lo = np.minimum(np.sqrt(w1 * w1 + w2 * w2 + w3 * w3), 1.0)
    r, wt = _gl_nodes(lo, 1.0, order)
    rs = np.maximum(r, 1e-300)
    ang = _corner_measure_3d(w1[..., None] / rs, w2[..., None] / rs, w3[..., None] / rs,
                             order=order)
    return r, wt * ang


def _radial_moment(geometry, dim: int, gamma: float) -> np.ndarray:
    """sum_k weight_k r_k^(g+d-1): the kernel of one (nodes, weights) geometry."""
    r, weights = geometry
    return np.einsum("...k,...k->...", weights, r ** (gamma + dim - 1.0))


@functools.lru_cache(maxsize=32)
def _unit_deficits(dim: int, gamma: float) -> tuple[np.ndarray, ...]:
    """delta = 1 deficit tables of a box's boundary layers, read-only.

    Entry m-1 is D_g on the m-wall layer's tensor Gauss grid: K1 on the
    64 face nodes, K1 + K1 - K2 on the 40x40 edge grid (d >= 2), and the
    inclusion-exclusion D3 on the 12^3 corner grid (d = 3).
    """
    tables = [_k1(dim, gamma, _gl_nodes(0.0, 1.0, _GL_FACE)[0])]
    if dim >= 2:
        g = _gl_nodes(0.0, 1.0, _GL_EDGE)[0]
        W1, W2 = np.meshgrid(g, g, indexing="ij")
        k1 = _k1(dim, gamma, g)
        k2 = _radial_moment(_wedge_geometry(dim, W1, W2, _GL_EDGE), dim, gamma)
        tables.append(k1[:, None] + k1[None, :] - k2)
    if dim == 3:
        g = _gl_nodes(0.0, 1.0, _GL_CORNER)[0]
        W1, W2 = np.meshgrid(g, g, indexing="ij")
        W31, W32, W33 = np.meshgrid(g, g, g, indexing="ij")
        k1 = _k1(dim, gamma, g)
        k2 = _radial_moment(_wedge_geometry(dim, W1, W2, _GL_CORNER), dim, gamma)
        k3 = _radial_moment(_corner_geometry(W31, W32, W33, _GL_CORNER), dim, gamma)
        k1s = k1[:, None, None] + k1[None, :, None] + k1[None, None, :]
        k2s = k2[:, :, None] + k2[:, None, :] + k2[None, :, :]
        tables.append(k1s - k2s + k3)
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def _box_boundary_product(window: ConvexWindow, delta: float, alpha: float, beta: float) -> float:
    """X = int_W D_a(y) D_b(y) dy for a box, D_g = C_g - h_g (deficit).

    Valid for delta <= min(side)/2 (at most one active wall per axis);
    decomposes the boundary layer into face/edge/corner regions, each a smooth
    tensor-Gauss integral of products of the delta = 1 deficit tables.  The
    m-wall layer scales as delta^(a+b+2d+m): delta^(g+d) per deficit and
    delta per wall coordinate.
    """
    d = window.dim
    if d > 3:
        raise UnsupportedDimensionError("exact box covariance implemented for d <= 3")
    sides = window.sides
    if delta > min(sides) / 2.0:
        raise UnsupportedDimensionError(
            "exact covariance for boxes requires delta <= min(side)/2")
    total = 0.0
    orders = (_GL_FACE, _GL_EDGE, _GL_CORNER)
    layers = zip(orders, _unit_deficits(d, alpha), _unit_deficits(d, beta))
    for m, (order, da, db) in enumerate(layers, start=1):
        w = _gl_nodes(0.0, 1.0, order)[1]
        weights = functools.reduce(np.multiply.outer, [w] * m)
        # 2^m wall sign choices per set of m active axes, times the extent of
        # the layer's interior along the d-m free axes.
        extent = sum(math.prod(sides[k] - 2.0 * delta for k in range(d) if k not in axes)
                     for axes in itertools.combinations(range(d), m))
        total += 2.0**m * extent * delta ** (alpha + beta + 2 * d + m) \
            * float(np.sum(weights * (da * db)))
    return total


def _ball_hh_integral(window: ConvexWindow, delta: float, alpha: float, beta: float,
                      order: int = _GL_FACE) -> float:
    """I_hh for a ball, by radial shells: h depends only on ||y||."""
    if beta < alpha:  # one product order, so I_hh(a, b) and I_hh(b, a) agree bitwise
        alpha, beta = beta, alpha
    R, d = window.radius, window.dim
    dk = d * unit_ball_volume(d)
    r0 = max(R - delta, 0.0)
    ca = interior_moment(d, delta, alpha)
    cb = interior_moment(d, delta, beta)
    total = ca * cb * unit_ball_volume(d) * r0**d

    ell, wl = _gl_nodes(r0, R, order)

    def h_profile(gamma):
        # inner radial integral over r in [R-ell, min(delta, R+ell)] where the
        # cap fraction varies; below R-ell the ball B(y,r-shell) is inside W.
        lo = np.minimum(R - ell, delta)
        hi = np.minimum(R + ell, delta)
        full = dk * lo ** (gamma + d) / (gamma + d)
        r, wr = _gl_nodes(lo, hi, order)
        rs = np.maximum(r, 1e-300)
        c = (R * R - ell[..., None] ** 2 - r * r) / (2.0 * np.maximum(ell[..., None], 1e-300) * rs)
        # measure{u . e1 <= c} = full sphere - cap{u1 >= c}
        if d == 1:
            meas = (c >= -1.0).astype(float) + (c >= 1.0)
        elif d == 2:
            meas = 2.0 * math.pi - 2.0 * np.arccos(np.clip(c, -1.0, 1.0))
        else:
            meas = 2.0 * math.pi * (1.0 + np.clip(c, -1.0, 1.0))
        return full + np.einsum("...k,...k->...", wr, r ** (gamma + d - 1.0) * meas)

    ha = h_profile(alpha)
    hb = ha if beta == alpha else h_profile(beta)
    total += dk * float(np.sum(wl * ell ** (d - 1.0) * ha * hb))
    return total


def _hh_integral(window: ConvexWindow, delta: float, alpha: float, beta: float) -> float:
    """int_W h_alpha(y) h_beta(y) dy."""
    if window.kind == "ball":
        if window.dim > 3:
            raise UnsupportedDimensionError("exact ball covariance requires d <= 3")
        return _ball_hh_integral(window, delta, alpha, beta)
    ca = interior_moment(window.dim, delta, alpha)
    cb = interior_moment(window.dim, delta, beta)
    x = _box_boundary_product(window, delta, alpha, beta)
    ra = covariogram_radial_integral(window, delta, alpha)
    rb = covariogram_radial_integral(window, delta, beta)
    return ca * rb + cb * ra - ca * cb * window.volume + x


def _check_covariance_exponents(dim: int, alpha: float, beta: float) -> None:
    if alpha <= -dim or beta <= -dim or alpha + beta <= -dim:
        raise DivergentCovarianceError(
            f"covariance requires alpha, beta > {-dim} and alpha+beta > {-dim}")


def covariance_exact(window: ConvexWindow, t: float, delta: float,
                     alpha: float, beta: float) -> float:
    """Cov(L^(a), L^(b)) = t^3 int_W h_a h_b + (t^2/2) R_{a+b}."""
    _check_covariance_exponents(window.dim, alpha, beta)
    hh = _hh_integral(window, delta, alpha, beta)
    return t**3 * hh + 0.5 * t * t * covariogram_radial_integral(window, delta, alpha + beta)


def covariance_bounds(window: ConvexWindow, t: float, delta: float,
                      alpha: float, beta: float) -> tuple[float, float]:
    """Sandwich (s1 t^2 d^(a+b+d) + s2 t^3 d^(a+b+2d)) * {V - S*delta, V}."""
    d = window.dim
    _check_covariance_exponents(d, alpha, beta)
    kd = unit_ball_volume(d)
    s1 = d * kd / (2.0 * (alpha + beta + d))
    s2 = d * d * kd * kd / ((alpha + d) * (beta + d))
    core = s1 * t * t * delta ** (alpha + beta + d) + s2 * t**3 * delta ** (alpha + beta + 2 * d)
    return (core * inner_parallel_volume_lower_bound(window, delta), core * window.volume)


def variance_asymptotic(window: ConvexWindow, t: float, delta: float, alpha: float) -> float:
    """Leading-order variance for alpha > -d/2."""
    d = window.dim
    if alpha <= -d / 2.0:
        raise DivergentCovarianceError("variance asymptotics require alpha > -d/2")
    kd = unit_ball_volume(d)
    term1 = d * kd / (2.0 * (2.0 * alpha + d)) * t * t * delta ** (2.0 * alpha + d)
    term2 = d * d * kd * kd / (alpha + d) ** 2 * t**3 * delta ** (2.0 * alpha + 2.0 * d)
    return (term1 + term2) * window.volume


def sigma_matrix(alphas, dim: int, volume: float, regime: RegimeSchedule) -> np.ndarray:
    """Asymptotic covariance matrix of the rescaled length-power vector."""
    alphas = np.asarray(tuple(alphas), dtype=float)
    if len(set(alphas.tolist())) != alphas.size:
        raise ValueError("alphas must be distinct")
    if np.any(alphas <= -dim / 2.0):
        raise ValueError("alphas must exceed -d/2")
    kd = unit_ball_volume(dim)
    s1 = dim * kd * volume / 2.0 / (alphas[:, None] + alphas[None, :] + dim)
    s2 = dim * dim * kd * kd * volume / ((alphas[:, None] + dim) * (alphas[None, :] + dim))
    kind = regime.classify(dim)
    if kind == "sparse":
        return s1
    if kind == "dense":
        return s2
    c = regime.degree_constant(dim)
    if c <= 1.0:
        return s1 + c * s2
    return s1 / c + s2


def m_bounds(window: ConvexWindow, t: float, delta: float,
             alpha: float, beta: float) -> tuple[float, float, float]:
    """Closed-form upper estimates for the three M terms in the CLT bound."""
    d = window.dim
    if alpha <= -d / 2.0 or beta <= -d / 2.0:
        raise DivergentCovarianceError("M bounds require alpha, beta > -d/2")
    kd = unit_ball_volume(d)
    v = window.volume
    ad = alpha + d
    bd = beta + d
    p = 2.0 * alpha + 2.0 * beta
    m11 = d**4 * kd**4 * v * t**5 * delta ** (p + 4 * d) / (ad**2 * bd**2)
    m12 = 2.0 * m11 + d**3 * kd**3 * v * t**4 * delta ** (p + 3 * d) / (ad**2 * (2.0 * beta + d))
    m22 = (3.0 * d**3 * kd**3 * v * t**4 * delta ** (p + 3 * d) / (ad**2 * (2.0 * beta + d))
           + 6.0 * d**2 * kd**2 * v * t**3 * delta ** (p + 2 * d)
           / (math.sqrt(2.0 * alpha + d) * math.sqrt(2.0 * beta + d) * (alpha + beta + d))
           + d * kd * v * t**2 * delta ** (p + d) / (2.0 * (alpha + beta) + 3.0 * d))
    return (m11, m12, m22)


def _m_numerator(window: ConvexWindow, t: float, delta: float, alpha: float, beta: float) -> float:
    m11, m12, m22 = m_bounds(window, t, delta, alpha, beta)
    return math.sqrt(m11) + 2.0 * math.sqrt(m12) + math.sqrt(m22)


def kolmogorov_bound(window: ConvexWindow, t: float, delta: float, alpha: float,
                     *, exact_variance: bool = False) -> float:
    """621 (sqrt(M11) + 2 sqrt(M12) + sqrt(M22)) / Var L^(alpha).

    Var defaults to the covariance sandwich lower bound (fast, conservative);
    exact_variance switches to the quadrature value.
    """
    if exact_variance:
        var = covariance_exact(window, t, delta, alpha, alpha)
    else:
        var = covariance_bounds(window, t, delta, alpha, alpha)[0]
    if var <= 0.0:
        raise DegenerateVarianceError(
            "variance lower bound is non-positive; delta too large for this window")
    return 621.0 * _m_numerator(window, t, delta, alpha, alpha) / var


def d3_bound(window: ConvexWindow, t: float, delta: float, alphas,
             regime: RegimeSchedule) -> float:
    """Explicit multivariate normal-approximation bound for the scaled vector."""
    alphas = tuple(float(a) for a in alphas)
    m = len(alphas)
    d = window.dim
    sig = sigma_matrix(alphas, d, window.volume, regime)
    norms = np.array([normalization(t, delta, a, d) for a in alphas])
    cov = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            cov[i, j] = cov[j, i] = covariance_exact(window, t, delta, alphas[i], alphas[j]) \
                / (norms[i] * norms[j])
    first = 0.5 * float(np.sum(np.abs(sig - cov)))
    scale = max(t**2 * delta**d, t**3 * delta ** (2 * d))
    second = 0.0
    for i in range(m):
        for j in range(m):
            second += _m_numerator(window, t, delta, alphas[i], alphas[j]) \
                / (scale * delta ** (alphas[i] + alphas[j]))
    second *= 4.0 * math.sqrt(2.0) * m * (float(np.sum(np.sqrt(np.diag(cov)))) + 1.0)
    return first + second
