"""Convex observation windows: volume, surface area, covariogram, sampling.

Windows are axis-aligned boxes [0, s_1] x ... x [0, s_d] or centered balls.
Both have closed-form covariograms g(y) = V(W ∩ (W + y)) (balls up to d = 3),
which is what makes exact moment formulas for the Gilbert graph computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from .errors import NonIntegrableError, QuadratureError, UnsupportedDimensionError

# Default sampling budget / stream for Monte Carlo covariograms (ball d >= 4).
BALL_MC_DEFAULT_SAMPLES = 1_000_000
BALL_MC_DEFAULT_SEED = 20_2406

_RADIAL_EPSREL = 1e-10
_RADIAL_LIMIT = 400


def unit_ball_volume(j: int) -> float:
    """Volume kappa_j of the j-dimensional unit ball."""
    if j < 0:
        raise ValueError(f"dimension must be >= 0, got {j}")
    return math.pi ** (j / 2.0) / math.gamma(j / 2.0 + 1.0)


@dataclass(frozen=True, eq=False)
class ConvexWindow:
    """Observation window: an axis-aligned box or a centered ball."""

    kind: str  # "box" | "ball"
    dim: int
    sides: tuple[float, ...] = ()
    radius: float = 0.0

    def __post_init__(self):
        if self.kind not in ("box", "ball"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.kind == "box":
            if len(self.sides) != self.dim:
                raise ValueError("box needs one side length per dimension")
            if any(not (s > 0) for s in self.sides):
                raise ValueError("box side lengths must be strictly positive")
        else:
            if not (self.radius > 0):
                raise ValueError("ball radius must be strictly positive")

    @classmethod
    def box(cls, sides) -> "ConvexWindow":
        sides = tuple(float(s) for s in np.atleast_1d(sides))
        return cls(kind="box", dim=len(sides), sides=sides)

    @classmethod
    def ball(cls, radius: float, dim: int) -> "ConvexWindow":
        return cls(kind="ball", dim=int(dim), radius=float(radius))

    @property
    def volume(self) -> float:
        if self.kind == "box":
            return float(math.prod(self.sides))
        return unit_ball_volume(self.dim) * self.radius**self.dim

    @property
    def surface_area(self) -> float:
        if self.kind == "box":
            v = self.volume
            return 2.0 * sum(v / s for s in self.sides)
        return self.dim * unit_ball_volume(self.dim) * self.radius ** (self.dim - 1)

    @property
    def diameter(self) -> float:
        if self.kind == "box":
            return math.sqrt(sum(s * s for s in self.sides))
        return 2.0 * self.radius

    @property
    def inradius(self) -> float:
        if self.kind == "box":
            return min(self.sides) / 2.0
        return self.radius

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean membership for points of shape (..., dim)."""
        pts = np.asarray(points, dtype=float)
        if self.kind == "box":
            s = np.asarray(self.sides)
            return np.all((pts >= 0.0) & (pts <= s), axis=-1)
        return np.einsum("...i,...i->...", pts, pts) <= self.radius**2

    def label(self) -> str:
        """CLI/config textual form, e.g. box:2x1x0.5 or ball:1.0@d=3."""
        if self.kind == "box":
            return "box:" + "x".join(repr(s) for s in self.sides)
        return f"ball:{self.radius!r}@d={self.dim}"


def inner_parallel_volume_lower_bound(window: ConvexWindow, delta: float) -> float:
    """V(W) - S(W)*delta; a lower bound for the inner parallel set volume.

    May be negative for large delta; callers clamp where needed.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return window.volume - window.surface_area * delta


def covariogram_is_exact(window: ConvexWindow) -> bool:
    """True when the covariogram has a closed form (boxes; balls up to d=3)."""
    return window.kind == "box" or window.dim <= 3


def covariogram(window: ConvexWindow, y, *, mc_samples: int = BALL_MC_DEFAULT_SAMPLES,
                rng: np.random.Generator | None = None) -> float:
    """g_W(y) = V(W ∩ (W + y)).

    Closed form except for balls with d >= 4, which fall back to Monte Carlo
    (flag via covariogram_is_exact); a fixed default stream keeps that path
    deterministic unless a generator is supplied.
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != window.dim:
        raise ValueError(f"y must have dimension {window.dim}")
    if window.kind == "box":
        s = np.asarray(window.sides)
        return float(np.prod(np.maximum(s - np.abs(y), 0.0)))
    r = float(np.linalg.norm(y))
    return _ball_covariogram_radial(window, r, mc_samples=mc_samples, rng=rng)


def _ball_covariogram_radial(window: ConvexWindow, r: float, *, mc_samples: int = BALL_MC_DEFAULT_SAMPLES,
                             rng: np.random.Generator | None = None) -> float:
    R, d = window.radius, window.dim
    if r >= 2.0 * R:
        return 0.0
    if d == 1:
        return 2.0 * R - r
    if d == 2:
        return 2.0 * R * R * math.acos(r / (2.0 * R)) - 0.5 * r * math.sqrt(4.0 * R * R - r * r)
    if d == 3:
        return (math.pi / 12.0) * (4.0 * R + r) * (2.0 * R - r) ** 2
    if rng is None:
        rng = np.random.default_rng(BALL_MC_DEFAULT_SEED)
    y = np.zeros(d)
    y[0] = r
    return covariogram_mc(window, y, mc_samples, rng)


def covariogram_mc(window: ConvexWindow, y, n_samples: int, rng: np.random.Generator) -> float:
    """Monte Carlo covariogram: V(W) * P(X - y in W) for X uniform in W."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    y = np.asarray(y, dtype=float).reshape(-1)
    if float(np.linalg.norm(y)) >= window.diameter:
        return 0.0
    hits = 0
    remaining = int(n_samples)
    chunk = 1_000_000
    while remaining > 0:
        k = min(chunk, remaining)
        x = sample_uniform(window, rng, k)
        hits += int(np.count_nonzero(window.contains(x - y)))
        remaining -= k
    return window.volume * hits / float(n_samples)


def sample_uniform(window: ConvexWindow, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
    """Uniform points in the window; shape (n, dim), or (dim,) when n is None."""
    single = n is None
    m = 1 if single else int(n)
    if window.kind == "box":
        pts = rng.random((m, window.dim)) * np.asarray(window.sides)
    else:
        # Polar method: radius via U^(1/d), direction via normalized Gaussians.
        g = rng.standard_normal((m, window.dim))
        norms = np.linalg.norm(g, axis=1)
        while np.any(norms == 0.0):
            bad = norms == 0.0
            g[bad] = rng.standard_normal((int(bad.sum()), window.dim))
            norms = np.linalg.norm(g, axis=1)
        radii = window.radius * rng.random(m) ** (1.0 / window.dim)
        pts = g * (radii / norms)[:, None]
    return pts[0] if single else pts


# ---------------------------------------------------------------------------
# Angular covariogram integral G(r) = ∫_{S^{d-1}} g_W(r u) du and the radial
# moment ∫_{B(0,delta)} ||y||^alpha g_W(y) dy.  G is what the Taylor/Lipschitz
# bounds constrain: d*kappa_d*V >= G(r) >= d*kappa_d*V - kappa_{d-1}*S*r.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def _gl_nodes(a, b, order: int):
    """Gauss-Legendre nodes/weights mapped onto [a, b] (a, b broadcastable)."""
    x, w = _leggauss(order)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * (b - a)
    nodes = a[..., None] + half[..., None] * (x + 1.0)
    weights = half[..., None] * w
    return nodes, weights


def _quarter_box_arc(radii, a: float, b: float) -> np.ndarray:
    """∫_0^{π/2} (a - R cos φ)_+ (b - R sin φ)_+ dφ, vectorized over R."""
    R = np.asarray(radii, dtype=float)
    out = np.empty_like(R)
    small = R <= 0.0
    out[small] = a * b * (math.pi / 2.0)
    Rp = R[~small]
    if Rp.size:
        lo = np.arccos(np.minimum(a / Rp, 1.0))
        hi = np.arcsin(np.minimum(b / Rp, 1.0))

        def anti(phi):
            return a * b * phi + a * Rp * np.cos(phi) - b * Rp * np.sin(phi) \
                + 0.5 * Rp * Rp * np.sin(phi) ** 2

        val = np.where(lo < hi, anti(hi) - anti(lo), 0.0)
        out[~small] = val
    return out


def _box_subset_norms(sides) -> list[float]:
    """Norms sqrt(sum of squares) over nonempty side subsets: kink radii of G."""
    acc = [0.0]
    for s in sides:
        acc = [v for v in acc] + [v + s * s for v in acc]
    return sorted(math.sqrt(v) for v in set(acc) if v > 0.0)


def _box_angular(radii, sides: tuple[float, ...]) -> np.ndarray:
    """G(r) for a box, via recursive sphere-slice reduction (exact up to d=4)."""
    r = np.asarray(radii, dtype=float)
    d = len(sides)
    if d == 1:
        return 2.0 * np.maximum(sides[0] - r, 0.0)
    if d == 2:
        return 4.0 * _quarter_box_arc(r, sides[0], sides[1])
    if d > 4:
        raise UnsupportedDimensionError(
            f"exact box angular covariogram supported up to d=4, got d={d}")
    # G_d(r) = 2 ∫_0^1 (s_d - r x)_+ (1-x^2)^{(d-3)/2} G_{d-1}(r sqrt(1-x^2)) dx
    inner_sides = sides[:-1]
    s_last = sides[-1]
    out = np.zeros_like(r)
    flat = r.reshape(-1)
    vals = np.zeros_like(flat)
    inner_norms = _box_subset_norms(inner_sides)
    for idx, rv in enumerate(flat):
        if rv <= 0.0:
            vals[idx] = 2.0 * s_last * _box_angular(np.zeros(1), inner_sides)[0]
            continue
        # x-domain kinks: the clamp s_d/r and radii where the inner level kinks.
        breaks = {0.0, 1.0}
        if s_last / rv < 1.0:
            breaks.add(s_last / rv)
        for m in inner_norms:
            if m < rv:
                breaks.add(math.sqrt(max(0.0, 1.0 - (m / rv) ** 2)))
        # Substitute x = sin(psi); removes the sqrt(1-x^2) endpoint singularity.
        pts = sorted(math.asin(min(b, 1.0)) for b in breaks)
        total = 0.0
        for a, b in zip(pts[:-1], pts[1:]):
            psi, w = _gl_nodes(a, b, 48)
            x = np.sin(psi)
            rho = np.cos(psi)
            fac = np.maximum(s_last - rv * x, 0.0) * rho
            if d > 3:
                fac = fac * rho ** (d - 3)
            total += float(np.sum(w * fac * _box_angular(rv * rho, inner_sides)))
        vals[idx] = 2.0 * total
    out.reshape(-1)[:] = vals
    return out


def covariogram_sphere_integral(window: ConvexWindow, r: float) -> float:
    """G(r) = ∫_{S^{d-1}} g_W(r u) du (counting measure on S^0 when d=1)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    d = window.dim
    if r >= window.diameter:
        return 0.0
    if d == 1:
        if window.kind == "box":
            return 2.0 * max(window.sides[0] - r, 0.0)
        return 2.0 * max(2.0 * window.radius - r, 0.0)
    if window.kind == "ball":
        if d > 3:
            raise UnsupportedDimensionError(
                "exact ball covariogram requires d <= 3; use covariogram_mc")
        return d * unit_ball_volume(d) * _ball_covariogram_radial(window, r)
    return float(_box_angular(np.asarray([r]), window.sides)[0])


def _radial_breakpoints(window: ConvexWindow, rmax: float) -> list[float]:
    if window.kind == "box":
        pts = _box_subset_norms(window.sides)
    else:
        pts = [2.0 * window.radius]
    return [p for p in pts if 0.0 < p < rmax]


def covariogram_radial_integral(window: ConvexWindow, delta: float, alpha: float) -> float:
    """∫_{B(0,delta)} ||y||^alpha g_W(y) dy, exact adaptive quadrature.

    Requires alpha > -d (else the integral diverges at the origin).
    Target relative accuracy 1e-8 or better; raises QuadratureError on failure.
    """
    d = window.dim
    if alpha <= -d:
        raise NonIntegrableError(f"alpha must exceed -d = {-d}, got {alpha}")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    rmax = min(delta, window.diameter)
    if window.kind == "ball" and d > 3:
        raise UnsupportedDimensionError(
            "exact radial covariogram integral for balls requires d <= 3")

    if window.kind == "ball":
        dk = d * unit_ball_volume(d)

        def integrand(r):
            if r <= 0.0:
                return 0.0
            return r ** (alpha + d - 1) * dk * _ball_covariogram_radial(window, r)
    elif d == 1:
        s = window.sides[0]

        def integrand(r):
            return r**alpha * 2.0 * max(s - r, 0.0)
    else:
        sides = window.sides

        def integrand(r):
            if r <= 0.0:
                return 0.0
            return r ** (alpha + d - 1) * float(_box_angular(np.asarray([r]), sides)[0])

    points = _radial_breakpoints(window, rmax)
    val, err = integrate.quad(
        integrand, 0.0, rmax, points=points or None,
        epsabs=0.0, epsrel=_RADIAL_EPSREL, limit=_RADIAL_LIMIT)
    if not math.isfinite(val):
        raise QuadratureError("radial covariogram integral did not converge")
    if val != 0.0 and err > 1e-7 * abs(val):
        raise QuadratureError(
            f"radial covariogram integral error estimate {err:.2e} exceeds target "
            f"for value {val:.6e}")
    return float(val)
