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
    """Inputs for a median deviation bound; alpha >= 0 is required."""

    mode: str  # "poisson" | "binomial"
    window: ConvexWindow
    delta: float
    alpha: float
    median: float
    u: float
    t: float | None = None
    n: int | None = None

    def __post_init__(self):
        if self.mode not in ("poisson", "binomial"):
            raise ValueError("mode must be 'poisson' or 'binomial'")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.median < 0 or self.u < 0:
            raise ValueError("median and u must be >= 0")
        if not (self.delta > 0):
            raise ValueError("delta must be > 0")
        if self.mode == "poisson" and not (self.t and self.t > 0):
            raise ValueError("poisson mode needs t > 0")
        if self.mode == "binomial" and not (self.n and self.n >= 1):
            raise ValueError("binomial mode needs n >= 1")


def _xstar_terms(inp: LdiInput) -> tuple[float, float]:
    """(log-term L, sqrt numerator Q) with objective
    A(s) + sqrt(Q/((u+m) s) + A(s)^2), A(s) = (L + e^s - 1)/(2s)."""
    d = inp.window.dim
    kd = unit_ball_volume(d)
    v = inp.window.volume
    if inp.mode == "poisson":
        rate = inp.t * kd * inp.delta**d
        log_term = math.log(inp.t * v) / rate
        q = inp.u**2 / (8.0 * inp.t**2 * kd**2 * inp.delta ** (2 * d + inp.alpha))
    else:
        rate = inp.n * kd * inp.delta**d
        log_term = math.log(inp.n) * v / rate
        q = v**2 * inp.u**2 / (8.0 * inp.n**2 * kd**2 * inp.delta ** (2 * d + inp.alpha))
    return log_term, q


def ldi_xstar_objective(inp: LdiInput, s: float) -> float:
    """The x* objective at a given s > 0 (exposed for optimizer certificates)."""
    if not (s > 0):
        raise ValueError("s must be > 0")
    if inp.u + inp.median <= 0:
        raise DegenerateInputError("u + median must be positive")
    log_term, q = _xstar_terms(inp)
    try:
        a = (log_term + math.expm1(s)) / (2.0 * s)
    except OverflowError:
        return math.inf
    if not (a < 1e150):
        return math.inf
    return a + math.sqrt(q / ((inp.u + inp.median) * s) + a * a)


def ldi_xstar(inp: LdiInput, *, rel_tol: float = 1e-10) -> float:
    """Infimum over s > 0 of the x* objective.

    Golden-section search on ln s over a grid-bracketed interval; the
    objective is smooth and empirically unimodal in ln s.
    """
    if inp.u + inp.median <= 0:
        raise DegenerateInputError("u + median must be positive")

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
    while hi - lo > rel_tol:
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
    d = inp.window.dim
    kd = unit_ball_volume(d)
    if inp.mode == "poisson":
        denom = 8.0 * inp.t * kd * inp.delta ** (d + inp.alpha) * xstar * (inp.u + inp.median)
    else:
        denom = 8.0 * inp.n * kd * inp.delta ** (d + inp.alpha) * xstar * (inp.u + inp.median) \
            / inp.window.volume
    return min(1.0, 8.0 * math.exp(-inp.u**2 / denom))


def ldi_envelope(inp: LdiInput) -> float:
    """Explicit envelope bound 8 exp(-0.5 min{quadratic, sqrt branch}), <= 1."""
    if inp.u + inp.median <= 0:
        raise DegenerateInputError("u + median must be positive")
    d = inp.window.dim
    kd = unit_ball_volume(d)
    v = inp.window.volume
    da = inp.delta**inp.alpha
    if inp.mode == "poisson":
        lead = math.log(inp.t * v) * da + 2.0 * inp.t * kd * inp.delta ** (d + inp.alpha)
    else:
        lead = math.log(inp.n) * da + 2.0 * inp.n * kd * inp.delta ** (d + inp.alpha) / v
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

