"""Large-deviation machinery: Chernoff tails and median concentration bounds.

Implements the closed-form Chernoff optimum for Poisson/binomial upper tails,
the s-optimized factor x*(u, .) behind the median deviation inequalities for
both process models, the resulting probability bounds and their explicit
envelopes, and the thermodynamic-regime exponent shape. All probability
bounds clamp to [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .geometry import ConvexWindow, unit_ball_volume


def chernoff_poisson_tail(a: float, y: float) -> float:
    """inf_{s>=0} exp(a(e^s - 1) - s y) for Poisson mean a: upper tail bound.

    Optimum s = ln(y/a) for y > a gives e^(y-a) (a/y)^y; trivial 1 otherwise.
    """
    if not (a > 0):
        raise ValueError("a must be > 0")
    if y < 0:
        raise ValueError("y must be >= 0")
    if y <= a:
        return 1.0
    return math.exp(y - a + y * math.log(a / y))


def chernoff_binomial_tail(m: int, p: float, y: float) -> float:
    """Chernoff bound inf_s exp(mp(e^s - 1) - sy) for Bin(m, p) upper tails."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie in (0, 1)")
    return chernoff_poisson_tail(m * p, y)


@dataclass(frozen=True)
class LdiInput:
    """Inputs for a median deviation bound; alpha >= 0 is required. Exactly one
    of t (a Poisson process of intensity t) and n (n binomial points) is given."""

    window: ConvexWindow
    delta: float
    alpha: float
    median: float
    u: float
    t: float | None = None
    n: int | None = None

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.median < 0 or self.u < 0:
            raise ValueError("median and u must be >= 0")
        if not (self.delta > 0):
            raise ValueError("delta must be > 0")
        if (self.t is None) == (self.n is None):
            raise ValueError("give exactly one of t (Poisson) and n (binomial)")
        if not (self.t > 0 if self.n is None else self.n >= 1):
            raise ValueError("t must be > 0, or n >= 1")


def _scales(inp: LdiInput) -> tuple[float, float, float]:
    """(c, N, f) = (t, t V, 1) for Poisson points and (n, n, V) for n binomial
    points, which bound like Poisson points at t = n / V; f = 1 is exact.
    The bounds take log N, so an N that underflows to 0 is degenerate."""
    if inp.n is None:
        count = inp.t * inp.window.volume
        if not count > 0:
            raise DegenerateInputError(
                f"the bounds take log(t V), and t V = {count!r} underflows to 0")
        return inp.t, count, 1.0
    return inp.n, inp.n, inp.window.volume


def ldi_xstar_objective(inp: LdiInput, s: float) -> float:
    """The x* objective at a given s > 0 (exposed for optimizer certificates):
    A(s) + sqrt(Q/((u+m) s) + A(s)^2), A(s) = (L + e^s - 1)/(2s), with the
    log-term L = log(N) f / (c kappa_d delta^d) and the sqrt numerator
    Q = f^2 u^2 / (8 c^2 kappa_d^2 delta^(2d+alpha)), (c, N, f) from `_scales`."""
    if not (s > 0):
        raise ValueError("s must be > 0")
    if inp.u + inp.median <= 0:
        raise DegenerateInputError("u + median must be positive")
    d = inp.window.dim
    kd = unit_ball_volume(d)
    c, count, f = _scales(inp)
    log_term = math.log(count) * f / (c * kd * inp.delta**d)
    q = f**2 * inp.u**2 / (8.0 * c**2 * kd**2 * inp.delta ** (2 * d + inp.alpha))
    try:
        a = (log_term + math.expm1(s)) / (2.0 * s)
    except OverflowError:
        return math.inf
    if not (a < 1e150):
        return math.inf
    return a + math.sqrt(q / ((inp.u + inp.median) * s) + a * a)


def ldi_xstar(inp: LdiInput) -> float:
    """Infimum over s > 0 of the x* objective.

    Golden-section search on ln s over a grid-bracketed interval (the objective
    is smooth and empirically unimodal in ln s, and rejects u + median <= 0).
    """

    def f(ls: float) -> float:
        return ldi_xstar_objective(inp, math.exp(ls))

    grid = np.linspace(-20.0, 10.0, 121)
    vals = [f(ls) for ls in grid]
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-10:  # width of the final ln s bracket
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    return min(f1, f2, vals[k])


def ldi_bound(inp: LdiInput) -> float:
    """Optimized median deviation bound 8 exp(-u^2 / (8 ... x* (u+m))), <= 1."""
    xstar = ldi_xstar(inp)
    if not xstar > 0:  # t V < 1 makes log(t V) negative, and x* can round to 0
        raise DegenerateInputError(f"the bound divides by x*, and x* = {xstar!r} is not > 0")
    d = inp.window.dim
    kd = unit_ball_volume(d)
    c, _, f = _scales(inp)
    denom = 8.0 * c * kd * inp.delta ** (d + inp.alpha) * xstar * (inp.u + inp.median) / f
    return min(1.0, 8.0 * math.exp(-inp.u**2 / denom))


def ldi_envelope(inp: LdiInput) -> float:
    """Explicit envelope bound 8 exp(-0.5 min{quadratic, sqrt branch}), <= 1."""
    if inp.u + inp.median <= 0:
        raise DegenerateInputError("u + median must be positive")
    d = inp.window.dim
    kd = unit_ball_volume(d)
    c, count, f = _scales(inp)
    da = inp.delta**inp.alpha
    lead = math.log(count) * da + 2.0 * c * kd * inp.delta ** (d + inp.alpha) / f
    quad = inp.u**2 / (8.0 * lead * (inp.u + inp.median))
    root = inp.u / math.sqrt(8.0 * da * (inp.u + inp.median))
    return min(1.0, 8.0 * math.exp(-0.5 * min(quad, root)))


def thermo_exponent(u: float, t: float, alpha: float, dim: int) -> float:
    """Thermodynamic-regime exponent shape (unknown constant not included):
    min{t^((2a-d)/d) u^2, t^(a/(3d)) u^(1/3), t^((3a-d)/(4d)) u^(3/4)}."""
    if u < 0 or t <= 0:
        raise ValueError("need u >= 0 and t > 0")
    return min(t ** ((2.0 * alpha - dim) / dim) * u**2,
               t ** (alpha / (3.0 * dim)) * u ** (1.0 / 3.0),
               t ** ((3.0 * alpha - dim) / (4.0 * dim)) * u**0.75)

