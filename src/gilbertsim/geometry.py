"""Convex observation windows: text form, volume, surface area, covariogram, sampling.

Windows are axis-aligned boxes [0, s_1] x ... x [0, s_d] or centered balls.
Both have closed-form covariograms g(y) = V(W ∩ (W + y)) in every dimension,
which is what makes exact moment formulas for the Gilbert graph computable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NonIntegrableError, QuadratureError, UnsupportedDimensionError

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
            if any(not (0 < s < math.inf) for s in self.sides):
                raise ValueError("box side lengths must be positive and finite")
        else:
            if not (0 < self.radius < math.inf):
                raise ValueError("ball radius must be positive and finite")
        try:
            volume = self.volume
        except OverflowError:  # radius**dim of a huge ball
            volume = math.inf
        if not (0 < volume < math.inf):
            raise ValueError(f"window volume {volume!r} must be positive and finite")

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

    def label(self) -> str:
        """CLI/config textual form, e.g. box:2x1x0.5 or ball:1.0@d=3."""
        if self.kind == "box":
            return "box:" + "x".join(repr(s) for s in self.sides)
        return f"ball:{self.radius!r}@d={self.dim}"


def parse_window(text: str) -> ConvexWindow:
    """The window a label writes: box:1x1, box:2x1x0.5 or ball:1.0@d=3."""
    try:
        kind, _, rest = text.partition(":")
        if kind == "box" and rest:
            return ConvexWindow.box([float(s) for s in rest.split("x")])
        if kind == "ball" and rest:
            radius, _, dpart = rest.partition("@")
            if not dpart.startswith("d="):
                raise ValueError("ball window needs its dimension as @d=<dim>")
            return ConvexWindow.ball(float(radius), int(dpart[2:]))
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r}: {exc}") from None
    raise ConfigError(f"bad window {text!r}: expected box:<s1>x<s2>... or ball:<r>@d=<dim>")


def inner_parallel_volume_lower_bound(window: ConvexWindow, delta: float) -> float:
    """V(W) - S(W)*delta; a lower bound for the inner parallel set volume.

    May be negative for large delta; callers clamp where needed.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return window.volume - window.surface_area * delta


def covariogram(window: ConvexWindow, y) -> float:
    """g_W(y) = V(W ∩ (W + y)), in closed form."""
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != window.dim:
        raise ValueError(f"y must have dimension {window.dim}")
    if window.kind == "box":
        s = np.asarray(window.sides)
        return float(np.prod(np.maximum(s - np.abs(y), 0.0)))
    return _ball_covariogram_radial(window, float(np.linalg.norm(y)))


def _ball_covariogram_radial(window: ConvexWindow, r: float) -> float:
    R, d = window.radius, window.dim
    if r >= 2.0 * R:
        return 0.0
    s = 2.0 * R - r  # exact for r >= R
    if d == 1:
        return s
    if d == 3:
        return (math.pi / 12.0) * (4.0 * R + r) * s**2
    from scipy.special import betainc, betaincc  # slow to import; only balls need it

    # Two caps of height s/2; each is V/2 times a regularized incomplete beta,
    # I_(1-x)((d+1)/2, 1/2), x = (r/2R)^2. Away from 2R it is 1 - I_x(1/2, (d+1)/2):
    # no cancellation at small r. Near 2R, 1 - x = s(4R - s)/4R^2 keeps the
    # digits that 1 - x loses; both are within 2.3e-15 of mpmath at 1.5-1.75 R.
    # d = 2 takes it too: the arccos form 2R^2 acos(r/2R) - (r/2) sqrt(4R^2 - r^2) is
    # less accurate (1.2-2.3e-15 worst relative error on 300 radii, against < 1e-15).
    if 4.0 * s >= R:  # r <= 1.75 R
        return window.volume * float(betaincc(0.5, (d + 1) / 2, (r / (2.0 * R)) ** 2))
    return window.volume * float(betainc((d + 1) / 2, 0.5, s * (4.0 * R - s) / (4.0 * R * R)))


def sample_uniform(window: ConvexWindow, rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform points in the window, shape (n, dim).

    A box's points are rng.random((n, dim)) times its sides; a box chunk in
    point_process.replication_samples is drawn and scaled the same way.
    """
    if window.kind == "box":
        return rng.random((n, window.dim)) * np.asarray(window.sides)
    # Polar method: radius via U^(1/d), direction via normalized Gaussians.
    g = rng.standard_normal((n, window.dim))
    norms = np.linalg.norm(g, axis=1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), window.dim))
        norms = np.linalg.norm(g, axis=1)
    radii = window.radius * rng.random(n) ** (1.0 / window.dim)
    return g * (radii / norms)[:, None]


# ---------------------------------------------------------------------------
# Angular covariogram integral G(r) = ∫_{S^{d-1}} g_W(r u) du and the radial
# moment ∫_{B(0,delta)} ||y||^alpha g_W(y) dy.  G is what the Taylor/Lipschitz
# bounds constrain: d*kappa_d*V >= G(r) >= d*kappa_d*V - kappa_{d-1}*S*r.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


def gl_nodes(a, b, order: int):
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
        with np.errstate(over="ignore"):  # a / R = inf for subnormal R clamps to 1
            lo = np.arccos(np.minimum(a / Rp, 1.0))
            hi = np.arcsin(np.minimum(b / Rp, 1.0))

        def anti(phi):
            return a * b * phi + a * Rp * np.cos(phi) - b * Rp * np.sin(phi) \
                + 0.5 * Rp * Rp * np.sin(phi) ** 2

        val = np.where(lo < hi, anti(hi) - anti(lo), 0.0)
        out[~small] = val
    return out


@lru_cache(maxsize=256)
def _box_subset_norms(sides: tuple[float, ...]) -> tuple[float, ...]:
    """Norms sqrt(sum of squares) over nonempty side subsets: kink radii of G."""
    acc = [0.0]
    for s in sides:
        acc = [v for v in acc] + [v + s * s for v in acc]
    return tuple(sorted(math.sqrt(v) for v in set(acc) if v > 0.0))


def _box_angular(sides: tuple[float, ...], r: float) -> float:
    """G(r) for a box (d <= 4).

    d = 1 and 2 are closed form.  d = 3 and 4 reduce one dimension by sphere
    slices, G_d(r) = 2 ∫_0^1 (s_d - r x)_+ (1-x^2)^{(d-3)/2} G_{d-1}(r sqrt(1-x^2)) dx,
    with a 48-node Gauss rule on each segment between the integrand's kinks;
    a 4-d G takes its inner d = 3 values one node at a time.  Reached only by
    radial quadratures of boxes with d >= 2 and delta > min(side); every
    other box takes the closed-form series.
    """
    d = len(sides)
    if d == 1:
        return 2.0 * max(sides[0] - r, 0.0)
    if d == 2:
        return float(4.0 * _quarter_box_arc(r, sides[0], sides[1]))
    if d > 4:
        raise UnsupportedDimensionError(
            f"exact box angular covariogram supported up to d=4, got d={d}")
    inner_sides, s_last = sides[:-1], sides[-1]
    if r <= 0.0:  # g(0) = V over the whole sphere
        return d * unit_ball_volume(d) * math.prod(sides)
    # x-domain kinks: the clamp s_d/r and radii where the inner level kinks.
    breaks = {0.0, 1.0}
    if s_last / r < 1.0:
        breaks.add(s_last / r)
    for m in _box_subset_norms(inner_sides):
        if m < r:
            breaks.add(math.sqrt(max(0.0, 1.0 - (m / r) ** 2)))
    # Substitute x = sin(psi); removes the sqrt(1-x^2) endpoint singularity.
    pts = np.array(sorted(math.asin(min(b, 1.0)) for b in breaks))
    psi, w = gl_nodes(pts[:-1], pts[1:], 48)  # (segments, nodes)
    rho = np.cos(psi)
    fac = np.maximum(s_last - r * np.sin(psi), 0.0) * rho
    if d == 3:
        inner = 4.0 * _quarter_box_arc(r * rho, *inner_sides)
    else:
        fac = fac * rho
        inner = np.array([_box_angular(inner_sides, v)
                          for v in (r * rho).ravel().tolist()]).reshape(rho.shape)
    total = 0.0
    for part in np.sum(w * fac * inner, axis=1).tolist():  # segment sums, added in order
        total += part
    return 2.0 * total


@lru_cache(maxsize=16)
def _box_radial_series(sides: tuple[float, ...], delta: float, alpha: float) -> float:
    """∫_{B(0,delta)} ||y||^alpha prod(s_i - |y_i|) dy in every d: a box's radial moment
    at delta <= min(side), and a segment's at min(delta, side), where g ends.
    Cached, as one `predict` asks for each of its few exponents several times.

    Expanding the product gives sum_k (-1)^k e_{d-k}(s) omega_{d,k}
    delta^(alpha+d+k) / (alpha+d+k), with e_j the elementary symmetric
    polynomials of the sides (the box's intrinsic volumes) and
    omega_{d,k} = ∫_{S^{d-1}} |u_1|...|u_k| du = 2 pi^((d-k)/2) / Gamma((d+k)/2).
    """
    d = len(sides)
    e = [1.0]  # coefficients of prod(1 + s_i x): e[j] = e_j(s)
    for s in sides:
        e = [a + s * b for a, b in zip(e + [0.0], [0.0] + e)]
    total = 0.0
    for k in range(d + 1):
        p = alpha + d + k
        omega = 2.0 * math.pi ** ((d - k) / 2.0) / math.gamma((d + k) / 2.0)
        total += (-1) ** k * e[d - k] * omega * delta**p / p
    return total


def covariogram_radial_integral(window: ConvexWindow, delta: float, alpha: float) -> float:
    """∫_{B(0,delta)} ||y||^alpha g_W(y) dy (alpha > -d).

    A ball is closed form: with q = alpha + d and rho = min(delta, 2R), it is
    (d kappa_d / q) [rho^q g(rho) + kappa_{d-1} (2R)^q R^d B((rho/2R)^2; (q+1)/2, (d+1)/2)]
    by parts, as g'(r) = -kappa_{d-1} (R^2 - r^2/4)^((d-1)/2); B is the incomplete beta.
    A box takes `_box_radial_series` at delta <= min(side), a segment at every delta;
    a larger delta takes adaptive quadrature of r^(alpha+d-1) G(r) (`_box_angular`)
    at epsrel 1e-10, split at the subset norms, and raises QuadratureError past
    1e-7 relative error.
    """
    d = window.dim
    if alpha <= -d:
        raise NonIntegrableError(f"alpha must exceed -d = {-d}, got {alpha}")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if window.kind == "ball":
        from scipy.special import beta, betainc  # slow to import; only balls need it

        R, q = window.radius, alpha + d
        rmax = min(delta, 2.0 * R)  # g vanishes beyond 2R
        a, b = (q + 1) / 2.0, (d + 1) / 2.0
        caps = float(betainc(a, b, (rmax / (2.0 * R)) ** 2) * beta(a, b))
        caps *= unit_ball_volume(d - 1) * (2.0 * R) ** q * R**d
        edge = rmax**q * _ball_covariogram_radial(window, rmax)
        return d * unit_ball_volume(d) / q * (edge + caps)
    if d == 1 or delta <= min(window.sides):
        return _box_radial_series(window.sides, min(delta, *window.sides), alpha)
    from scipy import integrate  # slow to import (scipy.optimize); only this case needs it
    rmax = min(delta, window.diameter)
    points = [p for p in _box_subset_norms(window.sides) if p < rmax] or None

    def integrand(r):
        return r ** (alpha + d - 1) * _box_angular(window.sides, r)

    val, err = integrate.quad(
        integrand, 0.0, rmax, points=points,
        epsabs=0.0, epsrel=_RADIAL_EPSREL, limit=_RADIAL_LIMIT)
    if not math.isfinite(val):
        raise QuadratureError("radial covariogram integral did not converge")
    if val != 0.0 and err > 1e-7 * abs(val):
        raise QuadratureError(
            f"radial covariogram integral error estimate {err:.2e} exceeds target "
            f"for value {val:.6e}")
    return float(val)
