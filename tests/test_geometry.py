"""Windows, covariograms, and the radial moment quadrature."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import betainc

from gilbertsim import geometry as geo
from gilbertsim.errors import NonIntegrableError, UnsupportedDimensionError

PI = math.pi


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
    est = geo.covariogram_mc(w, (0.5, 0.0), n, rng)
    assert abs(est - 0.5) <= 4.0 * w.volume / math.sqrt(n)
    assert geo.covariogram_mc(w, (0.0, 0.0), 100, rng) == pytest.approx(w.volume)
    assert geo.covariogram_mc(w, (3.0, 0.0), 100, rng) == 0.0


def test_ball_formula_matches_closed_forms():
    # the two-cap form V * I_{1-(r/2R)^2}((d+1)/2, 1/2) that serves d >= 4
    # equals the d <= 3 closed forms
    for d in (1, 2, 3):
        w = geo.ConvexWindow.ball(1.3, d)
        for r in np.linspace(0.0, 2.6, 27)[:-1]:
            general = w.volume * float(betainc((d + 1) / 2, 0.5, 1.0 - (r / 2.6) ** 2))
            closed = geo._ball_covariogram_radial(w, float(r))
            assert general == pytest.approx(closed, rel=1e-13, abs=1e-13 * w.volume)


def test_covariogram_ball_high_dim_matches_monte_carlo():
    n = 200_000
    for d in (4, 5, 6):
        w = geo.ConvexWindow.ball(1.0, d)
        for k, r in enumerate((0.3, 0.9, 1.5)):
            y = np.zeros(d)
            y[0] = r
            val = geo.covariogram(w, y)
            assert 0.0 < val < w.volume
            est = geo.covariogram_mc(w, y, n, np.random.default_rng(100 * d + k))
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


@settings(max_examples=100, deadline=None)
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


@settings(max_examples=40, deadline=None)
@given(windows())
@example(geo.ConvexWindow.box((1.0,)))
@example(geo.ConvexWindow.box((1.0, 1.0)))
@example(geo.ConvexWindow.box((2.0, 1.0, 0.5)))
@example(geo.ConvexWindow.ball(0.8, 4))
def test_radial_integral_total_mass_identity(w):
    # ∫ g_W = V(W)^2: the radial integral over a ball containing W - W
    val = geo.covariogram_radial_integral(w, w.diameter * 1.01, 0.0)
    assert val == pytest.approx(w.volume**2, rel=1e-6)


def test_radial_integral_cold_cache_equals_warm():
    # With delta > min(side) the box integral is a quadrature over G, cached
    # per (sides, r); cached values must give the same bits as a cold cache
    # and as an integrand that calls the uncached _box_angular.
    cases = [(sides, delta, alpha)
             for sides in ((1.0, 0.7), (1.3, 0.6), (1.0, 0.8, 0.6), (2.0, 1.0, 0.5))
             for delta in (0.9, 1.5, 3.0)
             for alpha in (-0.5, 0.0, 1.0, 2.0)]
    assert all(delta > min(sides) for sides, delta, _ in cases)

    def values(order):
        return {c: geo.covariogram_radial_integral(geo.ConvexWindow.box(c[0]), c[1], c[2])
                for c in order}

    geo._box_angular.cache_clear()
    cold = values(cases)
    warm = values(cases)
    geo._box_angular.cache_clear()
    cold_reversed = values(cases[::-1])
    assert cold == warm == cold_reversed
    for sides, delta, alpha in cases[::7]:
        w = geo.ConvexWindow.box(sides)
        rmax = min(delta, w.diameter)
        points = geo._radial_breakpoints(sides, rmax)
        direct = integrate.quad(
            lambda r: r ** (alpha + w.dim - 1) * geo._box_angular.__wrapped__(sides, r),
            0.0, rmax, points=points or None, epsabs=0.0, epsrel=geo._RADIAL_EPSREL,
            limit=geo._RADIAL_LIMIT)[0]
        assert cold[(sides, delta, alpha)] == direct


@st.composite
def boxes_delta_alpha(draw):
    """A box with d = 1 to 4, delta in [min(side)/1000, min(side)], alpha in [0.1 - d, 3]."""
    d = draw(st.sampled_from((1, 2, 2, 3, 3, 4)))
    sides = tuple(draw(st.floats(0.2, 2.0)) for _ in range(d))
    delta = min(sides) * draw(st.floats(1e-3, 1.0))
    alpha = draw(st.floats(-d + 0.1, 3.0))
    return sides, delta, alpha


@settings(max_examples=100, deadline=None)
@given(boxes_delta_alpha())
@example(((1.0, 0.8, 0.6), 0.6, 1.0))
@example(((1.0, 0.8, 0.6, 0.5), 0.5, -2.5))
@example(((0.7,), 0.7, -0.9))
@example(((1.3,), 0.2, -0.9))
def test_radial_integral_box_series_matches_quadrature(case):
    # For delta <= min(side) the box takes the closed-form series; G has no
    # kink inside (0, delta], so one plain quadrature of r^(alpha+d-1) G(r)
    # over the uncached G is an independent reference.
    sides, delta, alpha = case
    d = len(sides)
    ref = integrate.quad(
        lambda r: r ** (alpha + d - 1) * geo._box_angular.__wrapped__(sides, r),
        0.0, delta, epsabs=0.0, epsrel=geo._RADIAL_EPSREL, limit=geo._RADIAL_LIMIT)[0]
    val = geo.covariogram_radial_integral(geo.ConvexWindow.box(sides), delta, alpha)
    assert val == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("delta", [0.1, 0.5, 2.0])
def test_radial_integral_rejects_box_above_d4(delta):
    w = geo.ConvexWindow.box((1.0, 0.9, 0.8, 0.7, 0.6))
    with pytest.raises(UnsupportedDimensionError):
        geo.covariogram_radial_integral(w, delta, 0.0)


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


@settings(max_examples=60, deadline=None)
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
        g = geo.covariogram_sphere_integral(w, float(r))
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
        assert bool(b.contains(pts).all())
        # radial CDF check: P(||x|| <= s) = s^d
        s = 0.7
        phat = float(np.mean(np.linalg.norm(pts, axis=1) <= s))
        p = s**d
        assert abs(phat - p) <= 4.0 * math.sqrt(p * (1 - p) / pts.shape[0])


def test_window_label_round_trip():
    from gilbertsim.cli import parse_window
    for w in (geo.ConvexWindow.box((1.0, 2.0, 0.5)), geo.ConvexWindow.ball(1.25, 3)):
        again = parse_window(w.label())
        assert again.kind == w.kind and again.dim == w.dim
        assert again.sides == w.sides and again.radius == w.radius
