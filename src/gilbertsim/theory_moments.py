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
delta-free sum: the layer's tensor Gauss weights, built once per layer, times
D_a D_b on the delta = 1 deficit tables.  Those tables are built once per
(d, g) and kept in a small LRU cache; every box and every delta reuses them.
A table's g-free part, the radial nodes and the Gauss weights times the cap
measure of each kernel with two or three walls, is built once per (d, walls,
order) and shared by every g, so only the factor r^(g+d-1) is evaluated per
g.  In 3-d that cap measure is built one slab of the first wall coordinate at
a time, so a cold build holds one slab's slice grid (under 1 MB) and peaks at
a few MB.

The radial moments R_g come from `geometry.covariogram_radial_integral`: for a
box with delta <= min(side) (every box covariance, since it needs
delta <= min(side)/2) that is a closed-form series over the box's intrinsic
volumes, cached per (sides, delta, g) so a call computes each R_g once;
larger delta and balls use adaptive quadrature.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (DivergentCovarianceError, NonIntegrableError,
                     UnsupportedDimensionError)
from .geometry import (ConvexWindow, covariogram_radial_integral, gl_nodes,
                       inner_parallel_volume_lower_bound, unit_ball_volume)


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

    def limit(self, k: int, dim: int) -> float:
        """lim t^k * delta_t^d: 0, a^d or inf as gamma is above, at or below k/d.

        k = 1 is the degree constant, k = 2 the edge constant.
        """
        crit = k / dim
        if self.gamma > crit:
            return 0.0
        if self.gamma == crit:
            return self.a**dim
        return math.inf


def normalization(t: float, delta: float, alpha: float, dim: int) -> float:
    """Scaling max{t delta^(a+d/2), t^(3/2) delta^(a+d)} for the CLT vector."""
    return max(t * delta ** (alpha + dim / 2.0), t**1.5 * delta ** (alpha + dim))


def expectation_exact(window: ConvexWindow, t: float, delta: float, alpha: float) -> float:
    """E L^(alpha) = (t^2/2) * int_{B(0,delta)} ||y||^a g_W(y) dy (alpha > -d)."""
    return 0.5 * t * t * covariogram_radial_integral(window, delta, alpha)


def expectation_bounds(window: ConvexWindow, t: float, delta: float, alpha: float) -> tuple[float, float]:
    """Sandwich for E L^(alpha); upper is the leading term, lower subtracts
    the surface correction (kappa_{d-1}/(2(a+d+1))) t^2 delta^(a+d+1) S(W).

    For a box with delta <= min(side) these are (t^2/2) times the first one
    and the first two terms of the exact radial series
    (`geometry._box_radial_series`); the remaining terms are the gap.
    """
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
# Boundary-layer kernels.  K_j(w_1, ..., w_j) is the moment of ||z||^g over the
# unit ball truncated by j orthogonal half-spaces z_i < -w_i, w_i in [0, 1].
# K_1 is `_k1`; for j >= 2, K_j is a radial Gauss integral of r^(g+d-1) times
# the measure of the cap {u on the unit sphere: u_i >= w_i/r}, an arc of S^1
# (`_circle_measure`) in 2-d and Gauss slices of that arc (`_sphere_measure`)
# in 3-d; its g-free part is cached by `_cap_rule`.  Each kernel, and so each
# deficit D_g, is homogeneous:
# D_g(delta u; delta) = delta^(g+d) D_g(u; 1), so they are tabulated once at
# delta = 1 and scaled.
# ---------------------------------------------------------------------------

_GL_FACE = 64
_GL_LAYERS = (_GL_FACE, 40, 12)  # Gauss order of the face, edge and corner layers
_GL_SLICES = 32  # slice nodes of the two-wall sphere measure


def _circle_measure(h: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Arc measure of {u in S^1: rho u_i >= h_i} for one or two walls h_i >= 0.

    Divides by rho itself, so no full-grid quotient outlives its arccos.
    """
    arc = np.arccos(np.minimum(h[0] / rho, 1.0))
    if len(h) == 1:
        return 2.0 * arc
    return np.maximum(arc - np.arcsin(np.minimum(h[1] / rho, 1.0)), 0.0)


def _sphere_measure(h: list[np.ndarray], order: int) -> np.ndarray:
    """Measure of {u in S^2: u_i >= h_i} for two or three walls h_i >= 0: an
    order-point Gauss integral over u_1 of the circle measure of the rest."""
    h1, *rest = h
    top = 1.0
    for hi in rest:
        top = top - hi * hi
    top = np.sqrt(np.maximum(top, 0.0))
    x, w = gl_nodes(np.minimum(h1, top), top, order)
    rho = np.sqrt(np.maximum(1.0 - x * x, 1e-300))
    return np.einsum("...k,...k->...", w, _circle_measure([hi[..., None] for hi in rest], rho))


def _k1(dim: int, gamma: float, w: np.ndarray) -> np.ndarray:
    """Moment of ||z||^g over {||z|| <= 1, z_1 < -w}, w in [0, 1]."""
    if dim == 1:
        return (1.0 - w ** (gamma + 1.0)) / (gamma + 1.0)
    if dim == 3:
        t1 = (1.0 - w ** (gamma + 3.0)) / (gamma + 3.0)
        if gamma == -2.0:  # the limit of (1 - w^e) / e as e -> 0
            t2 = -w * np.log(w)
        else:
            t2 = w * (1.0 - w ** (gamma + 2.0)) / (gamma + 2.0)
        return 2.0 * math.pi * (t1 - t2)
    # d == 2: radial Gauss with the arc measure 2 arccos(w/r) of the cap
    r, wt = gl_nodes(w, 1.0, _GL_FACE)
    arc = _circle_measure([w[..., None]], np.maximum(r, 1e-300))
    return np.einsum("...k,...k->...", wt, r ** (gamma + 1.0) * arc)


@functools.lru_cache(maxsize=4)
def _cap_rule(dim: int, j: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The gamma-free part of K_j (j >= 2) on the j-wall Gauss grid of the
    given order: the radial nodes r and the Gauss weights times the cap
    measure, both read-only (radial order `order`; slices: `_GL_SLICES` for
    two walls, order for three)."""
    g = gl_nodes(0.0, 1.0, order)[0]
    walls = np.meshgrid(*[g] * j, indexing="ij")
    r, wt = gl_nodes(np.minimum(np.sqrt(sum(w * w for w in walls)), 1.0), 1.0, order)
    rs = np.maximum(r, 1e-300)
    if dim == 2:
        cap = _circle_measure([w[..., None] for w in walls], rs)
    else:  # one slab of the first wall coordinate at a time: a slice grid of < 1 MB
        slices = _GL_SLICES if j == 2 else order
        cap = np.stack([_sphere_measure([w[k][..., None] / rs[k] for w in walls], slices)
                        for k in range(order)])
    weighted = wt * cap
    for a in (r, weighted):
        a.flags.writeable = False
    return r, weighted


def _kernel(dim: int, gamma: float, j: int, order: int) -> np.ndarray:
    """K_j on the j-wall tensor Gauss grid of the given order: `_k1` for one
    wall, else the cached cap rule against r^(g+d-1)."""
    if j == 1:
        return _k1(dim, gamma, gl_nodes(0.0, 1.0, order)[0])
    r, weighted = _cap_rule(dim, j, order)
    return np.einsum("...k,...k->...", weighted, r ** (gamma + dim - 1.0))


@functools.lru_cache(maxsize=32)
def _unit_deficits(dim: int, gamma: float) -> tuple[np.ndarray, ...]:
    """delta = 1 deficit tables of a box's boundary layers, read-only.

    Entry m-1 is D_g on the m-wall layer's tensor Gauss grid (orders
    `_GL_LAYERS`): by inclusion-exclusion, the sum over j = 1..m of
    (-1)^(j+1) times K_j placed on every j-subset of the m wall axes.
    """
    tables = []
    for m, order in enumerate(_GL_LAYERS[:dim], start=1):
        table = 0.0
        for j in range(1, m + 1):
            k = _kernel(dim, gamma, j, order)
            level = 0.0
            for axes in itertools.combinations(range(m), j):
                level = level + k.reshape([order if i in axes else 1 for i in range(m)])
            table = table + level if j % 2 else table - level
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


@functools.lru_cache(maxsize=4)
def _layer_weights(m: int, order: int) -> np.ndarray:
    """The tensor Gauss weights of an m-wall layer's grid, read-only.  They
    depend on neither the exponents nor the box, so every pair of a call and
    every later call shares them."""
    w = gl_nodes(0.0, 1.0, order)[1]
    weights = functools.reduce(np.multiply.outer, [w] * m)
    weights.flags.writeable = False
    return weights


def _box_hh_integral(window: ConvexWindow, delta: float, alpha: float, beta: float) -> float:
    """I_hh = C_a R_b + C_b R_a - C_a C_b V + X for a box, X = int_W D_a(y) D_b(y) dy
    with the deficit D_g = C_g - h_g.

    Valid for delta <= min(side)/2 (at most one active wall per axis);
    X decomposes the boundary layer into face/edge/corner regions, each a smooth
    tensor-Gauss integral of products of the delta = 1 deficit tables.  The
    m-wall layer scales as delta^(a+b+2d+m): delta^(g+d) per deficit and
    delta per wall coordinate.
    """
    d = window.dim
    ca = interior_moment(d, delta, alpha)
    cb = interior_moment(d, delta, beta)
    if d > 3:
        raise UnsupportedDimensionError("exact box covariance implemented for d <= 3")
    sides = window.sides
    if delta > min(sides) / 2.0:
        raise UnsupportedDimensionError(
            "exact covariance for boxes requires delta <= min(side)/2")
    x = 0.0
    layers = zip(_GL_LAYERS, _unit_deficits(d, alpha), _unit_deficits(d, beta))
    for m, (order, da, db) in enumerate(layers, start=1):
        # 2^m wall sign choices per set of m active axes, times the extent of
        # the layer's interior along the d-m free axes.
        extent = sum(math.prod(sides[k] - 2.0 * delta for k in range(d) if k not in axes)
                     for axes in itertools.combinations(range(d), m))
        x += 2.0**m * extent * delta ** (alpha + beta + 2 * d + m) \
            * float(np.sum(_layer_weights(m, order) * (da * db)))
    ra = covariogram_radial_integral(window, delta, alpha)
    rb = covariogram_radial_integral(window, delta, beta)
    return ca * rb + cb * ra - ca * cb * window.volume + x


def _ball_hh_integral(window: ConvexWindow, delta: float, alpha: float, beta: float) -> float:
    """I_hh for a ball, by radial shells: h depends only on ||y||."""
    if window.dim > 3:
        raise UnsupportedDimensionError("exact ball covariance requires d <= 3")
    if beta < alpha:  # one product order, so I_hh(a, b) and I_hh(b, a) agree bitwise
        alpha, beta = beta, alpha
    R, d = window.radius, window.dim
    dk = d * unit_ball_volume(d)
    r0 = max(R - delta, 0.0)
    ca = interior_moment(d, delta, alpha)
    cb = interior_moment(d, delta, beta)
    total = ca * cb * unit_ball_volume(d) * r0**d

    ell, wl = gl_nodes(r0, R, _GL_FACE)

    def h_profile(gamma):
        # inner radial integral over r in [R-ell, min(delta, R+ell)] where the
        # cap fraction varies; below R-ell the ball B(y,r-shell) is inside W.
        lo = np.minimum(R - ell, delta)
        hi = np.minimum(R + ell, delta)
        full = interior_moment(d, lo, gamma)
        r, wr = gl_nodes(lo, hi, _GL_FACE)
        # the floor is on the product: ell * r underflows to 0 when delta is
        # negligible against R, where the numerator is 0 too
        c = (R * R - ell[..., None] ** 2 - r * r) / (2.0 * np.maximum(ell[..., None] * r, 1e-300))
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


def _check_covariance_exponents(dim: int, alpha: float, beta: float) -> None:
    if alpha <= -dim or beta <= -dim or alpha + beta <= -dim:
        raise DivergentCovarianceError(
            f"covariance requires alpha, beta > {-dim} and alpha+beta > {-dim}")


def covariance_exact(window: ConvexWindow, t: float, delta: float,
                     alpha: float, beta: float) -> float:
    """Cov(L^(a), L^(b)) = t^3 int_W h_a h_b + (t^2/2) R_{a+b}."""
    _check_covariance_exponents(window.dim, alpha, beta)
    hh_integral = _ball_hh_integral if window.kind == "ball" else _box_hh_integral
    hh = hh_integral(window, delta, alpha, beta)
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
    """Leading-order variance for alpha > -d/2: the covariance sandwich's upper value."""
    return covariance_bounds(window, t, delta, alpha, alpha)[1]


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
    c = regime.limit(1, dim)
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


def kolmogorov_bound(window: ConvexWindow, t: float, delta: float, alpha: float) -> float:
    """621 (sqrt(M11) + 2 sqrt(M12) + sqrt(M22)) / Var L^(alpha).

    Var is the covariance sandwich's lower bound (closed form, conservative).
    Where that bound is <= 0 (V - S delta <= 0: delta is large for the
    window), Var is the exact quadrature value covariance_exact instead.
    """
    var = covariance_bounds(window, t, delta, alpha, alpha)[0]
    if var <= 0.0:
        var = covariance_exact(window, t, delta, alpha, alpha)
    return 621.0 * _m_numerator(window, t, delta, alpha, alpha) / var


def d3_bound(window: ConvexWindow, t: float, delta: float, alphas,
             regime: RegimeSchedule) -> float:
    """Explicit multivariate normal-approximation bound for the scaled vector."""
    alphas = tuple(float(a) for a in alphas)
    m = len(alphas)
    d = window.dim
    sig = sigma_matrix(alphas, d, window.volume, regime)
    # plain floats, so a norm that underflows to 0 raises ZeroDivisionError below
    norms = [normalization(t, delta, a, d) for a in alphas]
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
