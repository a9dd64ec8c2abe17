"""Windows, covariograms, and the radial moment quadrature."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import betaincc

from gilbertsim import geometry as geo
from gilbertsim.errors import (NonIntegrableError, QuadratureError,
                               UnsupportedDimensionError)

PI = math.pi


def contains(window: geo.ConvexWindow, points) -> np.ndarray:
    """Boolean membership in window for points of shape (..., dim)."""
    pts = np.asarray(points, dtype=float)
    if window.kind == "box":
        return np.all((pts >= 0.0) & (pts <= np.asarray(window.sides)), axis=-1)
    return np.einsum("...i,...i->...", pts, pts) <= window.radius**2


def covariogram_mc(window: geo.ConvexWindow, y, n_samples: int,
                   rng: np.random.Generator) -> float:
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
        x = geo.sample_uniform(window, rng, k)
        hits += int(np.count_nonzero(contains(window, x - y)))
        remaining -= k
    return window.volume * hits / float(n_samples)


def test_unit_ball_volumes():
    assert geo.unit_ball_volume(1) == pytest.approx(2.0)
    assert geo.unit_ball_volume(2) == pytest.approx(PI)
    assert geo.unit_ball_volume(3) == pytest.approx(4.0 * PI / 3.0)
    for j in range(8):
        # recurrence kappa_j = kappa_{j-1} * Gamma((j+1)/2) ... use direct Gamma
        assert geo.unit_ball_volume(j) == pytest.approx(PI ** (j / 2) / math.gamma(j / 2 + 1))


def test_volume_and_surface():
    assert geo.ConvexWindow.box((1.0, 1.0)).volume == pytest.approx(1.0)
    assert geo.ConvexWindow.ball(1.0, 2).volume == pytest.approx(PI)
    assert geo.ConvexWindow.box((2.0, 1.0, 0.5)).volume == pytest.approx(1.0)
    assert geo.ConvexWindow.box((1.0, 1.0)).surface_area == pytest.approx(4.0)
    assert geo.ConvexWindow.ball(1.0, 2).surface_area == pytest.approx(2.0 * PI)
    assert geo.ConvexWindow.box((1.0, 1.0, 1.0)).surface_area == pytest.approx(6.0)


def test_box_volume_matches_numpy_product_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(20_000):
        sides = tuple(rng.uniform(1e-3, 1e3, int(rng.integers(1, 5))))
        vol = geo.ConvexWindow.box(sides).volume
        assert type(vol) is float and vol == float(np.prod(sides))


def test_window_validation():
    with pytest.raises(ValueError):
        geo.ConvexWindow.box((1.0, -1.0))
    with pytest.raises(ValueError):
        geo.ConvexWindow.ball(0.0, 2)
    with pytest.raises(ValueError):
        geo.ConvexWindow(kind="blob", dim=2)


def test_covariogram_box_closed_form():
    w = geo.ConvexWindow.box((1.0, 1.0))
    assert geo.covariogram(w, (0.5, 0.0)) == pytest.approx(0.5)
    assert geo.covariogram(w, (0.3, -0.2)) == pytest.approx(0.7 * 0.8)
    assert geo.covariogram(w, (1.5, 0.0)) == 0.0


def test_covariogram_ball_values():
    b3 = geo.ConvexWindow.ball(1.0, 3)
    assert geo.covariogram(b3, (0.0, 0.0, 0.0)) == pytest.approx(4.0 * PI / 3.0)
    # d=2 disc overlap against a chord-length integral oracle
    b2 = geo.ConvexWindow.ball(1.0, 2)
    r = 1.0

    def chord(x):
        return 2.0 * min(math.sqrt(1.0 - x * x), math.sqrt(1.0 - (x - r) ** 2))

    oracle = integrate.quad(chord, r - 1.0, 1.0)[0]
    assert geo.covariogram(b2, (1.0, 0.0)) == pytest.approx(oracle, rel=1e-9)
    assert oracle == pytest.approx(2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0))


def test_covariogram_mc_matches_closed_form():
    w = geo.ConvexWindow.box((1.0, 1.0))
    n = 10**6
    rng = np.random.default_rng(7)
    est = covariogram_mc(w, (0.5, 0.0), n, rng)
    assert abs(est - 0.5) <= 4.0 * w.volume / math.sqrt(n)
    assert covariogram_mc(w, (0.0, 0.0), 100, rng) == pytest.approx(w.volume)
    assert covariogram_mc(w, (3.0, 0.0), 100, rng) == 0.0


def test_ball_formula_matches_closed_forms():
    # the two-cap form V * I_{1-(r/2R)^2}((d+1)/2, 1/2) = V * (1 - I_{(r/2R)^2}(1/2, (d+1)/2))
    # that serves d >= 4 equals the d <= 3 closed forms
    for d in (1, 2, 3):
        w = geo.ConvexWindow.ball(1.3, d)
        for r in np.linspace(0.0, 2.6, 27)[:-1]:
            general = w.volume * float(betaincc(0.5, (d + 1) / 2, (r / 2.6) ** 2))
            closed = geo._ball_covariogram_radial(w, float(r))
            assert general == pytest.approx(closed, rel=1e-13, abs=1e-13 * w.volume)


# g(r) at r = 2R(1 - 10^-k), keyed (d, k, R): V I_(1-(r/2R)^2)((d+1)/2, 1/2) at
# 50 digits (mpmath.betainc, regularized), rounded to the nearest double
_BALL_COVARIOGRAM_NEAR_2R = {
    (2, 3, 1.0): 0.00011923906865866689, (2, 3, 0.7): 5.842714364275094e-05,
    (2, 6, 1.0): 3.771235600805445e-09, (2, 6, 0.7): 1.8479054441748548e-09,
    (2, 9, 1.0): 1.1925695372287457e-13, (2, 9, 0.7): 5.843590315355127e-14,
    (4, 3, 1.0): 2.9956487694231655e-07, (4, 3, 0.7): 7.192552695385875e-08,
    (4, 6, 1.0): 9.47814519117255e-15, (4, 6, 0.7): 2.2757026599493616e-15,
    (4, 9, 1.0): 2.9972540717180254e-22, (4, 9, 0.7): 7.196406170164615e-23,
    (5, 3, 1.0): 1.3149604904305637e-08, (5, 3, 0.7): 2.2100540962669636e-09,
    (5, 6, 1.0): 1.3159462666318611e-17, (5, 6, 0.7): 2.2117108898019917e-18,
    (5, 9, 1.0): 1.315947140839034e-26, (5, 9, 0.7): 2.2117120439018007e-27,
    (7, 3, 1.0): 2.0646056432804784e-11, (7, 3, 0.7): 1.7002915252844583e-12,
    (7, 6, 1.0): 2.0670826317566485e-23, (7, 6, 0.7): 1.7023314312647746e-24,
    (7, 9, 1.0): 2.0670848756948582e-35, (7, 9, 0.7): 1.7023329557895953e-36,
}


@pytest.mark.parametrize("d", [2, 4, 5, 7])
@pytest.mark.parametrize("k", [3, 6, 9])
def test_ball_covariogram_near_2r_matches_mpmath(d, k):
    # at r = 2R(1 - 10^-k) the covariogram is a sliver of order (1 - r/2R)^((d+1)/2):
    # the d = 2 form's two terms and the d >= 4 form's 1 - (r/2R)^2 cancel there
    # (19 % and 1.2e-9 off at k = 9), so it is written in s = 2R - r
    for radius in (1.0, 0.7):
        w = geo.ConvexWindow.ball(radius, d)
        r = 2.0 * radius * (1.0 - 10.0**-k)
        assert geo._ball_covariogram_radial(w, r) == pytest.approx(
            _BALL_COVARIOGRAM_NEAR_2R[d, k, radius], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d", [4, 5, 6, 7, 9])
def test_covariogram_ball_small_r_matches_taylor(d):
    # g(r) = V - kappa_{d-1} int_0^r (R^2 - s^2/4)^((d-1)/2) ds
    #      = V - kappa_{d-1} R^(d-1) (r - (d-1) r^3 / (24 R^2)) + O(r^5)
    for radius in (0.3, 1.0, 2.0):
        w = geo.ConvexWindow.ball(radius, d)
        for x in np.geomspace(1e-6, 1e-3, 7):
            r = 2.0 * radius * float(x)
            y = np.zeros(d)
            y[0] = r
            taylor = w.volume - geo.unit_ball_volume(d - 1) * radius ** (d - 1) * (
                r - (d - 1) * r**3 / (24.0 * radius**2))
            assert geo.covariogram(w, y) == pytest.approx(taylor, rel=1e-13)


def test_covariogram_ball_high_dim_matches_monte_carlo():
    n = 200_000
    for d in (4, 5, 6):
        w = geo.ConvexWindow.ball(1.0, d)
        for k, r in enumerate((0.3, 0.9, 1.5)):
            y = np.zeros(d)
            y[0] = r
            val = geo.covariogram(w, y)
            assert 0.0 < val < w.volume
            est = covariogram_mc(w, y, n, np.random.default_rng(100 * d + k))
            p = val / w.volume
            assert abs(est - val) <= 4.0 * w.volume * math.sqrt(p * (1.0 - p) / n)


def test_radial_integral_disc_moments():
    w = geo.ConvexWindow.box((1.0, 1.0))
    delta = 0.05
    # oracle: moments of (1-|y1|)(1-|y2|) over the disc, expanded in polar form
    ref0 = PI * delta**2 - (8.0 / 3.0) * delta**3 + delta**4 / 2.0
    ref1 = 2.0 * PI * delta**3 / 3.0 - 2.0 * delta**4 + 2.0 * delta**5 / 5.0
    assert geo.covariogram_radial_integral(w, delta, 0.0) == pytest.approx(ref0, rel=1e-10)
    assert geo.covariogram_radial_integral(w, delta, 1.0) == pytest.approx(ref1, rel=1e-10)


def test_radial_integral_small_delta_asymptote():
    for w in (geo.ConvexWindow.box((1.0, 1.0)), geo.ConvexWindow.ball(0.9, 3),
              geo.ConvexWindow.box((2.0, 1.0, 0.5)), geo.ConvexWindow.box((1.0, 0.8, 0.6, 0.5))):
        d = w.dim
        for alpha in (-0.5, 0.0, 1.0):
            lead = d * geo.unit_ball_volume(d) / (alpha + d) * w.volume
            prev = None
            for delta in (0.02, 0.01, 0.005):
                val = geo.covariogram_radial_integral(w, delta, alpha)
                ratio = val / (lead * delta ** (alpha + d))
                assert abs(ratio - 1.0) < 0.15
                if prev is not None:
                    assert abs(ratio - 1.0) < abs(prev - 1.0) + 1e-12
                prev = ratio


@st.composite
def windows(draw):
    """A box or a ball in dimension 1 to 3."""
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return geo.ConvexWindow.box(tuple(draw(st.floats(0.2, 2.0)) for _ in range(d)))
    return geo.ConvexWindow.ball(draw(st.floats(0.2, 1.5)), d)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(windows(), st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
@example(geo.ConvexWindow.box((1.0, 2.0)), [0.3, -0.2, 0.0])
@example(geo.ConvexWindow.ball(0.7, 3), [0.1, 0.25, -0.3])
@example(geo.ConvexWindow.box((0.5,)), [-0.4, 0.0, 0.0])
@example(geo.ConvexWindow.ball(1.3, 1), [0.45, 0.0, 0.0])
def test_covariogram_invariants_random(w, coords):
    # g_W(0) = V(W), g_W(y) = g_W(-y), 0 <= g_W <= V(W), and g_W = 0 beyond
    # the diameter; each coordinate of y lies within 1.2 diam W
    assert geo.covariogram(w, np.zeros(w.dim)) == pytest.approx(w.volume)
    y = np.asarray(coords[:w.dim]) * w.diameter * 1.2
    val = geo.covariogram(w, y)
    assert 0.0 <= val <= w.volume + 1e-12
    assert val == pytest.approx(geo.covariogram(w, -y), rel=1e-12, abs=1e-15)
    if np.linalg.norm(y) >= w.diameter:
        assert val == 0.0
    far = np.zeros(w.dim)
    far[0] = w.diameter * 1.0001
    assert geo.covariogram(w, far) == 0.0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(windows())
@example(geo.ConvexWindow.box((1.0,)))
@example(geo.ConvexWindow.box((1.0, 1.0)))
@example(geo.ConvexWindow.box((2.0, 1.0, 0.5)))
@example(geo.ConvexWindow.ball(0.8, 4))
def test_radial_integral_total_mass_identity(w):
    # ∫ g_W = V(W)^2: the radial integral over a ball containing W - W
    val = geo.covariogram_radial_integral(w, w.diameter * 1.01, 0.0)
    assert val == pytest.approx(w.volume**2, rel=1e-6)


def test_radial_integral_box_quadrature_splits_at_subset_norms():
    # With delta > min(side) the box integral is a quadrature over G, split
    # at the box's subset norms below min(delta, diameter); it must give the
    # same bits as integrate.quad called directly with those breakpoints.
    cases = [(sides, delta, alpha)
             for sides in ((1.0, 0.7), (1.3, 0.6), (1.0, 0.8, 0.6), (2.0, 1.0, 0.5))
             for delta in (0.9, 1.5, 3.0)
             for alpha in (-0.5, 0.0, 1.0, 2.0)]
    assert all(delta > min(sides) for sides, delta, _ in cases)
    for sides, delta, alpha in cases[::7]:
        w = geo.ConvexWindow.box(sides)
        rmax = min(delta, w.diameter)
        points = [p for p in geo._box_subset_norms(sides) if p < rmax]
        direct = integrate.quad(
            lambda r: r ** (alpha + w.dim - 1) * geo._box_angular(sides, r),
            0.0, rmax, points=points or None, epsabs=0.0, epsrel=geo._RADIAL_EPSREL,
            limit=geo._RADIAL_LIMIT)[0]
        assert geo.covariogram_radial_integral(w, delta, alpha) == direct


@st.composite
def boxes_delta_alpha(draw):
    """A box with d = 1 to 4, delta in [min(side)/1000, min(side)], alpha in [0.1 - d, 3]."""
    d = draw(st.sampled_from((1, 2, 2, 3, 3, 4)))
    sides = tuple(draw(st.floats(0.2, 2.0)) for _ in range(d))
    delta = min(sides) * draw(st.floats(1e-3, 1.0))
    alpha = draw(st.floats(-d + 0.1, 3.0))
    return sides, delta, alpha


@settings(max_examples=100, deadline=None, derandomize=True)
@given(boxes_delta_alpha())
@example(((1.0, 0.8, 0.6), 0.6, 1.0))
@example(((1.0, 0.8, 0.6, 0.5), 0.5, -2.5))
@example(((0.7,), 0.7, -0.9))
@example(((1.3,), 0.2, -0.9))
def test_radial_integral_box_series_matches_quadrature(case):
    # For delta <= min(side) the box takes the closed-form series; G has no
    # kink inside (0, delta], so one plain quadrature of r^(alpha+d-1) G(r)
    # is an independent reference.
    sides, delta, alpha = case
    d = len(sides)
    ref = integrate.quad(
        lambda r: r ** (alpha + d - 1) * geo._box_angular(sides, r),
        0.0, delta, epsabs=0.0, epsrel=geo._RADIAL_EPSREL, limit=geo._RADIAL_LIMIT)[0]
    val = geo.covariogram_radial_integral(geo.ConvexWindow.box(sides), delta, alpha)
    assert val == pytest.approx(ref, rel=1e-10)


@st.composite
def balls_delta_alpha(draw):
    """A ball with d = 1 to 6, R in [0.2, 2], delta/2R in [1e-3, 1.2], alpha in (0.05 - d, 3]."""
    d = draw(st.integers(1, 6))
    radius = draw(st.floats(0.2, 2.0))
    delta = 2.0 * radius * draw(st.floats(1e-3, 1.2))
    alpha = draw(st.floats(-d + 0.05, 3.0, exclude_min=True))
    return geo.ConvexWindow.ball(radius, d), delta, alpha


@settings(max_examples=100, deadline=None, derandomize=True)
@given(balls_delta_alpha())
@example((geo.ConvexWindow.ball(1.0, 2), 0.05, 1.0))
@example((geo.ConvexWindow.ball(0.3, 6), 2.4 * 0.3, -5.9))
@example((geo.ConvexWindow.ball(2.0, 4), 4e-3, -3.9))
@example((geo.ConvexWindow.ball(0.2, 5), 0.4, 3.0))
def test_radial_integral_ball_closed_form_matches_quadrature(case):
    # Reference: (d kappa_d / q) ∫_0^{rho^q} g(s^(1/q)) ds with q = alpha + d and
    # rho = min(delta, 2R), the radial moment after r = s^(1/q); its integrand
    # is bounded, unlike r^(alpha+d-1) g(r) near alpha = -d.
    w, delta, alpha = case
    d, q = w.dim, alpha + w.dim
    rho = min(delta, w.diameter)
    ref = integrate.quad(lambda s: geo._ball_covariogram_radial(w, s ** (1.0 / q)),
                         0.0, rho**q, epsabs=0.0, epsrel=1e-10, limit=200)[0]
    ref *= d * geo.unit_ball_volume(d) / q
    assert geo.covariogram_radial_integral(w, delta, alpha) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("radius", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("ratio", [0.01, 0.3, 0.9, 1.0, 1.5])
def test_radial_integral_ball_exact_polynomial_moments(radius, ratio):
    # For d = 1 and 3 the ball covariogram is a polynomial in r <= 2R,
    # g = 2R - r and (pi/12)(16R^3 - 12R^2 r + r^3), so each moment is exact.
    delta = 2.0 * radius * ratio
    rho = min(delta, 2.0 * radius)
    for alpha in (-0.9, -0.5, 0.0, 1.0, 2.5):
        p = alpha + 1.0
        exact = 2.0 * (2.0 * radius * rho**p / p - rho ** (p + 1) / (p + 1))
        val = geo.covariogram_radial_integral(geo.ConvexWindow.ball(radius, 1), delta, alpha)
        assert val == pytest.approx(exact, rel=1e-13)
    for alpha in (-2.9, -1.0, 0.0, 1.0, 2.5):
        q = alpha + 3.0
        exact = (PI**2 / 3.0) * (16.0 * radius**3 * rho**q / q
                                 - 12.0 * radius**2 * rho ** (q + 1) / (q + 1)
                                 + rho ** (q + 3) / (q + 3))
        val = geo.covariogram_radial_integral(geo.ConvexWindow.ball(radius, 3), delta, alpha)
        assert val == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("d", [4, 5, 6])
@pytest.mark.parametrize("radius", [0.3, 1.0, 2.0])
def test_radial_integral_ball_near_divergent_exponent(d, radius):
    # alpha = -d + 0.05 with delta/2R = 1e-4: adaptive quadrature of
    # r^(alpha+d-1) g(r) missed its error target here.  The closed form must sit
    # in the Lipschitz sandwich d kappa_d V >= G(r) >= d kappa_d V - kappa_{d-1} S r,
    # integrated against r^(q-1) over [0, delta].
    w = geo.ConvexWindow.ball(radius, d)
    delta, q = 2.0 * radius * 1e-4, 0.05
    val = geo.covariogram_radial_integral(w, delta, q - d)
    hi = d * geo.unit_ball_volume(d) * w.volume * delta**q / q
    lo = hi - geo.unit_ball_volume(d - 1) * w.surface_area * delta ** (q + 1) / (q + 1)
    assert math.isfinite(val) and lo * (1 - 1e-12) <= val <= hi * (1 + 1e-12)


@pytest.mark.parametrize("result,message", [
    ((math.nan, 0.0), "radial covariogram integral did not converge"),
    ((1.0, 1e-3), "radial covariogram integral error estimate 1.00e-03 exceeds target "
                  "for value 1.000000e+00"),
], ids=["not_finite", "error_above_target"])
def test_radial_integral_quadrature_failure_raises(result, message, monkeypatch):
    # inputs on which QUADPACK fails raise IntegrationWarning first, an error
    # under this suite's warning filter, so a stubbed quad reaches both raises
    monkeypatch.setattr(integrate, "quad", lambda *args, **kwargs: result)
    with pytest.raises(QuadratureError) as exc:
        geo.covariogram_radial_integral(geo.ConvexWindow.box((1.0, 0.5)), 0.8, 1.0)
    assert str(exc.value) == message


def test_radial_integral_ball_calls_no_quadrature(monkeypatch):
    calls = []
    quad = integrate.quad

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(integrate, "quad", counting)
    for d in range(1, 7):
        w = geo.ConvexWindow.ball(0.8, d)
        for delta in (0.01, 0.8, 1.6, 3.0):
            for alpha in (-d + 0.5, 0.0, 2.0):
                geo.covariogram_radial_integral(w, delta, alpha)
    assert calls == []
    # the counter sees the one case that still integrates: a box with delta > min(side)
    geo.covariogram_radial_integral(geo.ConvexWindow.box((1.0, 0.7)), 0.9, 0.0)
    assert len(calls) == 1


@pytest.mark.parametrize("delta", [0.1, 0.5, 2.0])
def test_radial_integral_rejects_box_above_d4(delta):
    # only the quadrature, with delta > min(side), is limited to d <= 4; below
    # that a 5-d box takes its series like any other box
    sides = (1.0, 0.9, 0.8, 0.7, 0.6)
    w = geo.ConvexWindow.box(sides)
    if delta > min(sides):
        with pytest.raises(UnsupportedDimensionError, match="up to d=4"):
            geo.covariogram_radial_integral(w, delta, 0.0)
    else:
        assert geo.covariogram_radial_integral(w, delta, 0.0) \
            == geo._box_radial_series(sides, delta, 0.0)


@st.composite
def boxes_above_d4(draw):
    """A box with d = 5 to 7, delta in [min(side)/10, min(side)], alpha in [1 - d/2, 3]."""
    d = draw(st.integers(5, 7))
    sides = tuple(draw(st.floats(0.3, 2.0)) for _ in range(d))
    delta = min(sides) * draw(st.floats(0.1, 1.0))
    alpha = draw(st.floats(1.0 - d / 2.0, 3.0))
    return sides, delta, alpha, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(boxes_above_d4())
def test_property_box_series_above_d4_matches_monte_carlo(case):
    # The series is exact in every d. Reference: V(B(0, delta)) times the mean of
    # ||y||^alpha g(y) over 200k points y uniform in the ball; alpha > 1 - d/2
    # keeps its variance finite.
    sides, delta, alpha, seed = case
    d = len(sides)
    rng = np.random.default_rng(seed)
    y = geo.sample_uniform(geo.ConvexWindow.ball(delta, d), rng, 200_000)
    f = np.linalg.norm(y, axis=1) ** alpha * np.prod(np.asarray(sides) - np.abs(y), axis=1)
    ball = geo.unit_ball_volume(d) * delta**d
    mc, se = ball * f.mean(), ball * f.std(ddof=1) / math.sqrt(f.size)
    val = geo.covariogram_radial_integral(geo.ConvexWindow.box(sides), delta, alpha)
    assert abs(val - mc) <= 4.0 * se


@pytest.mark.parametrize("alpha", [-0.9, 0.0, 1.5])
def test_radial_integral_segment_beyond_its_side(monkeypatch, alpha):
    # a segment's covariogram (s - |y|)_+ ends at its side s, so at delta > s
    # its moment is the series at s, 2 s^(alpha+2) / ((alpha+1)(alpha+2)), and
    # no quadrature runs
    def fail(*args, **kwargs):
        raise AssertionError("integrate.quad called")

    monkeypatch.setattr(integrate, "quad", fail)
    side = 0.7
    val = geo.covariogram_radial_integral(geo.ConvexWindow.box((side,)), 2.5, alpha)
    assert val == geo._box_radial_series((side,), side, alpha)
    assert val == pytest.approx(2.0 * side ** (alpha + 2) / ((alpha + 1) * (alpha + 2)),
                                rel=1e-14)


@st.composite
def boxes_above_min_side(draw):
    """A box with d = 2 to 4 and a radius in (min(side), diam): a kink or any value."""
    d = draw(st.sampled_from((2, 2, 3, 3, 3, 4)))
    sides = tuple(draw(st.floats(0.2, 2.0)) for _ in range(d))
    lo, diam = min(sides), math.sqrt(sum(s * s for s in sides))
    kinks = [m for m in geo._box_subset_norms(sides) if lo < m < diam]
    radius = st.floats(lo, diam, exclude_min=True, exclude_max=True)
    if kinks:
        radius = st.sampled_from(kinks) | radius
    return sides, draw(radius)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(boxes_above_min_side())
@example(((1.0, 0.8, 0.6), 1.0))
@example(((1.0, 0.8, 0.6, 0.5), 1.3))
@example(((1.0, 1.0, 1.0), 2.0687434969888587e-301))
@example(((1.0, 1.0, 1.0), 1e-308))  # a / R overflows in _quarter_box_arc
def test_box_angular_matches_monte_carlo_over_directions(case):
    # G(r) = d kappa_d E g_W(r U) for U uniform on the sphere; the closed-form
    # box covariogram prod(s_i - |y_i|)_+ at seeded directions is independent
    # of G's sphere-slice quadrature.  Near the diameter few directions reach
    # the region where g_W > 0 and the sample SE misses its mass, so the bound
    # adds 4 max(g)/n.  Derandomized: the 60 cases are the same on every run.
    sides, r = case
    d = len(sides)
    u = np.random.default_rng(2024).standard_normal((100_000, d))
    u /= np.linalg.norm(u, axis=1)[:, None]
    g = np.prod(np.maximum(np.asarray(sides) - r * np.abs(u), 0.0), axis=1)
    area = d * geo.unit_ball_volume(d)
    se = area * g.std(ddof=1) / math.sqrt(g.size)
    scale = area * math.prod(sides)
    tol = 4.0 * se + 4.0 * area * g.max() / g.size + 1e-12 * scale
    assert abs(geo._box_angular(sides, r) - area * g.mean()) <= tol


def test_radial_integral_monotone_in_delta():
    w = geo.ConvexWindow.ball(1.0, 2)
    vals = [geo.covariogram_radial_integral(w, d, 0.5) for d in (0.1, 0.3, 0.7, 1.5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_radial_integral_rejects_divergent_exponent():
    w = geo.ConvexWindow.box((1.0, 1.0))
    with pytest.raises(NonIntegrableError):
        geo.covariogram_radial_integral(w, 0.1, -2.0)
    with pytest.raises(NonIntegrableError):
        geo.covariogram_radial_integral(geo.ConvexWindow.ball(1.0, 4), 0.1, -4.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(windows(), st.floats(0.0, 1.0))
@example(geo.ConvexWindow.box((1.0, 1.0)), 0.45)
@example(geo.ConvexWindow.ball(0.8, 2), 0.45)
@example(geo.ConvexWindow.box((1.0, 0.7, 1.3)), 0.45)
@example(geo.ConvexWindow.ball(0.6, 3), 0.45)
@example(geo.ConvexWindow.box((1.0, 0.8, 0.6, 0.5)), 0.45)
def test_sphere_integral_lipschitz_sandwich(w, u):
    # d kappa_d V >= G(r) >= d kappa_d V - kappa_{d-1} S r on an r-grid up to u * diam W
    d = w.dim
    hi = d * geo.unit_ball_volume(d) * w.volume
    slope = geo.unit_ball_volume(d - 1) * w.surface_area
    for r in np.linspace(1e-6, max(u * w.diameter, 1e-6), 12):
        if w.kind == "box":
            g = geo._box_angular(w.sides, float(r))
        else:
            g = d * geo.unit_ball_volume(d) * geo._ball_covariogram_radial(w, float(r))
        assert g <= hi + 1e-9 * hi
        assert g >= hi - slope * r - 1e-9 * hi


def test_inner_parallel_volume_bound():
    w = geo.ConvexWindow.box((1.0, 1.0))
    assert geo.inner_parallel_volume_lower_bound(w, 0.1) == pytest.approx(0.6)
    assert geo.inner_parallel_volume_lower_bound(w, 0.0) == pytest.approx(w.volume)
    b = geo.ConvexWindow.ball(1.0, 2)
    bound = geo.inner_parallel_volume_lower_bound(b, 0.1)
    exact = PI * 0.9**2  # the inner parallel set of a ball is a ball
    assert bound == pytest.approx(PI - 0.2 * PI)
    assert exact >= bound


def test_sample_uniform_box_moments():
    rng = np.random.default_rng(11)
    w = geo.ConvexWindow.box((1.0, 1.0))
    pts = geo.sample_uniform(w, rng, 10**6)
    se = 1.0 / math.sqrt(12.0 * pts.shape[0])
    assert np.all(np.abs(pts.mean(axis=0) - 0.5) <= 3.0 * se)
    w2 = geo.ConvexWindow.box((2.0, 1.0))
    pts2 = geo.sample_uniform(w2, rng, 10**5)
    phat = float(np.mean(pts2[:, 0] < 1.0))
    assert abs(phat - 0.5) <= 3.0 * math.sqrt(0.25 / pts2.shape[0])


def test_sample_uniform_ball_containment():
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        b = geo.ConvexWindow.ball(1.0, d)
        pts = geo.sample_uniform(b, rng, 50_000)
        assert bool(contains(b, pts).all())
        # radial CDF check: P(||x|| <= s) = s^d
        s = 0.7
        phat = float(np.mean(np.linalg.norm(pts, axis=1) <= s))
        p = s**d
        assert abs(phat - p) <= 4.0 * math.sqrt(p * (1 - p) / pts.shape[0])


class _ZeroFirstNormals:
    """A generator whose first standard_normal draw has two zero rows."""

    def __init__(self):
        self.rng = np.random.default_rng(13)
        self.shapes = []

    def standard_normal(self, shape):
        g = self.rng.standard_normal(shape)
        if not self.shapes:
            g[:2] = 0.0
        self.shapes.append(shape)
        return g

    def random(self, n):
        return self.rng.random(n)


@pytest.mark.parametrize("d", [2, 3])
def test_sample_uniform_ball_redraws_zero_directions(d):
    # a zero normal row has no direction: it is drawn again, not divided by 0
    rng = _ZeroFirstNormals()
    b = geo.ConvexWindow.ball(1.0, d)
    pts = geo.sample_uniform(b, rng, 5)
    assert rng.shapes == [(5, d), (2, d)]
    assert np.isfinite(pts).all() and bool(contains(b, pts).all())
    assert (np.linalg.norm(pts[:2], axis=1) > 0.0).all()


@pytest.mark.parametrize("sides", [(1.0, 0.8, 0.6), (1.0, 0.8, 0.6, 0.5)])
def test_box_angular_at_zero_is_the_whole_sphere(sides):
    # G(0) = g(0) |S^(d-1)| = V d kappa_d, the limit of G(r) as r -> 0
    d = len(sides)
    whole = d * geo.unit_ball_volume(d) * math.prod(sides)
    assert geo._box_angular(sides, 0.0) == pytest.approx(whole, rel=1e-15)
    assert geo._box_angular(sides, 1e-9) == pytest.approx(whole, rel=1e-8)


@st.composite
def finite_windows(draw):
    """A box or a ball in dimension 1 to 7 with sizes in [1e-40, 1e40], so its
    volume is finite and positive."""
    d = draw(st.integers(1, 7))
    size = st.floats(1e-40, 1e40)
    if draw(st.booleans()):
        return geo.ConvexWindow.box(tuple(draw(size) for _ in range(d)))
    return geo.ConvexWindow.ball(draw(size), d)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(finite_windows())
@example(geo.ConvexWindow.box((1.0, 2.0, 0.5)))
@example(geo.ConvexWindow.ball(1.25, 3))
@example(geo.ConvexWindow.box((5e-324,)))
@example(geo.ConvexWindow.box((1.7976931348623157e308,)))
@example(geo.ConvexWindow.box((1e300, 0.1, 1 / 3, 3 * 2.0**-1074, 7.0, 0.3, 1e9)))
@example(geo.ConvexWindow.ball(5e-324, 1))
@example(geo.ConvexWindow.ball(1e-40, 7))
def test_window_label_round_trip(w):
    again = geo.parse_window(w.label())
    assert [getattr(again, f.name) for f in fields(w)] == [getattr(w, f.name) for f in fields(w)]
