"""The edge-length process limit: intensity, order statistics, compound-Poisson sum."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from gilbertsim import geometry as geo
from gilbertsim import theory_limits as tl
from gilbertsim import theory_moments as tm
from gilbertsim.experiments import EmpiricalCdf, ks_statistic

PI = math.pi
MODEL = tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=1.0, edge_constant=1.0)


def test_cp_sampler_moments():
    rng = np.random.default_rng(5)
    z = MODEL.sample_sum(rng, 10**6)
    # E Z = E Y * E X = (pi/2) * (1/2)
    se = z.std(ddof=1) / math.sqrt(z.size)
    assert abs(z.mean() - PI / 4.0) <= 3.0 * se
    p0 = float(np.mean(z == 0.0))
    se0 = math.sqrt(p0 * (1 - p0) / z.size)
    assert abs(p0 - math.exp(-PI / 2.0)) <= 3.0 * se0


def test_cp_sampler_vanishes_as_c_to_zero():
    rng = np.random.default_rng(6)
    small = tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=1.0, edge_constant=1e-3)
    z = small.sample_sum(rng, 20_000)
    assert float(np.mean(z > 1e-9)) < 5e-3


def test_cp_sampler_ks_against_independent_stream():
    # sampler correctness: two-sample KS against an independent-stream draw
    a = MODEL.sample_sum(np.random.default_rng(100), 10**6)
    b = MODEL.sample_sum(np.random.default_rng(200), 10**6)
    ref = EmpiricalCdf(b)
    assert ks_statistic(a, ref, cdf_left=ref.left) <= 0.003


def test_intensity_values():
    lim = tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=1.0)
    assert lim.intensity(1.0) == pytest.approx(PI / 2.0)
    assert lim.intensity(0.0) == 0.0
    capped = tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=1.0, edge_constant=1.0)
    v1 = capped.intensity(1.0)
    for u in (1.5, 4.0, 100.0):
        assert capped.intensity(u) == pytest.approx(v1)
    us = np.linspace(0, 3, 20)
    vals = [lim.intensity(float(u)) for u in us]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_order_statistic_survival_values():
    lim = tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=1.0)
    assert lim.order_statistic_survival(1, 1.0) == pytest.approx(
        math.exp(-PI / 2.0))
    for m in (1, 2, 5):
        assert lim.order_statistic_survival(m, 0.0) == 1.0
    for u in (0.2, 1.0, 3.0):
        s1 = lim.order_statistic_survival(1, u)
        s2 = lim.order_statistic_survival(2, u)
        assert s2 >= s1
        assert lim.order_statistic_cdf(1, u) == pytest.approx(1.0 - s1)
        # consistency: m=1 survival equals exp(-nu([0,u]))
        assert s1 == pytest.approx(math.exp(-lim.intensity(u)))


def test_order_statistic_cdf_at_infinity_is_the_mass_below_it():
    # c = inf: every order statistic is finite; c finite: fewer than m edges
    # (a Poisson(kd V c/2) count) leave the m-th at +inf
    lim = tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=1.0)
    capped = tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=1.0, edge_constant=1.0)
    for m in range(1, 6):
        assert lim.order_statistic_cdf(m, math.inf) == 1.0
        assert capped.order_statistic_cdf(m, math.inf) == pytest.approx(
            1.0 - sps.poisson.cdf(m - 1, PI / 2.0), rel=1e-12)


def test_order_statistic_survival_uses_intensity_exponent():
    lim = tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=1.0)
    # d=2, alpha=2: the intensity exponent d/alpha = 1, so nu([0, u]) = (pi/2) u
    u = 0.5
    s_int = lim.order_statistic_survival(1, u)
    assert s_int == pytest.approx(math.exp(-PI / 2.0 * u))


def test_cp_mean_identity_with_expectation():
    # E Z equals the limit of t^(2a/d) E L along delta_t = (c/t^2)^(1/d)
    w = geo.ConvexWindow.box((1.0, 1.0))
    t = 1e3
    c, alpha, d = 1.0, 2.0, 2
    delta = (c / t**2) ** (1.0 / d)
    rescaled = t ** (2.0 * alpha / d) * tm.expectation_exact(w, t, delta, alpha)
    assert rescaled == pytest.approx(PI / 4.0, rel=0.01)  # E Z of MODEL


def conditions(limit, w, t, delta, u):
    """(a_t(u), r_t(u)) at the limit's radius rho: E L^(0) at distance rho and t kappa_d rho^d."""
    rho = limit.radius(t, delta, u)
    return tm.expectation_exact(w, t, rho, 0.0), t * geo.unit_ball_volume(w.dim) * rho**w.dim


def test_pp_conditions_limits():
    w = geo.ConvexWindow.box((1.0, 1.0))
    alpha = 2.0
    lim = tl.EdgeLengthProcessLimit(alpha, w.dim, w.volume)
    # infinite-edge regime: delta_t = t^-0.8
    for u in (0.5, 1.0, 2.0):
        limit = lim.intensity(u)
        assert limit == pytest.approx(PI / 2.0 * u, rel=1e-12)
        a_lo, _ = conditions(lim, w, 1e3, 1e3**-0.8, u)
        a_hi, _ = conditions(lim, w, 1e5, 1e5**-0.8, u)
        assert abs(a_hi - limit) <= 0.02 * limit
        assert abs(a_hi - limit) < abs(a_lo - limit)
    # r_t * t is exactly constant once rho < inradius
    kd = geo.unit_ball_volume(2)
    for t in (1e3, 1e4, 1e5):
        _, r_t = conditions(lim, w, t, t**-0.8, 1.0)
        assert r_t * t == pytest.approx(kd, rel=1e-12)


def test_pp_conditions_constant_regime_plateau():
    w = geo.ConvexWindow.box((1.0, 1.0))
    alpha, d, c = 2.0, 2, 1.0
    lim = tl.EdgeLengthProcessLimit(alpha, w.dim, w.volume, edge_constant=c)
    for u in (0.5, 2.0):
        limit = lim.intensity(u)
        assert limit == pytest.approx(PI / 2.0 * min(u, c))
        a_t, _ = conditions(lim, w, 1e4, (c / 1e8) ** 0.5, u)
        assert abs(a_t - limit) <= 0.02 * limit


def test_model_validation():
    with pytest.raises(ValueError):
        tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=1.0, edge_constant=-1.0)
    with pytest.raises(ValueError):
        tl.EdgeLengthProcessLimit(alpha=0.0, dim=2, volume=1.0)
    for dim, volume in ((0, 1.0), (2, 0.0), (2, math.nan)):
        with pytest.raises(ValueError):
            tl.EdgeLengthProcessLimit(alpha=1.0, dim=dim, volume=volume)
    lim = tl.EdgeLengthProcessLimit(alpha=1.0, dim=2, volume=1.0)
    with pytest.raises(ValueError):
        lim.intensity(-0.5)
    with pytest.raises(ValueError):
        lim.order_statistic_survival(1, -0.5)


def test_sample_sum_rejects_an_infinite_edge_constant():
    # with c = inf the process has infinitely many points and no finite sum
    lim = tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=1.0)
    with pytest.raises(ValueError, match="finite edge constant"):
        lim.sample_sum(np.random.default_rng(0), 3)


def test_compound_poisson_pins():
    # values of the separate compound-Poisson model this object replaced; the
    # count mean is kappa_d c V / 2, which differs from intensity(inf) in the last bit
    lim = tl.EdgeLengthProcessLimit(alpha=2.0, dim=2, volume=0.63, edge_constant=1.21)
    assert lim.atom_at_zero == 0.30197288816788376
    assert lim.sample_sum(np.random.default_rng(3), 3).tolist() == [0.0, 0.0, 1.1037356684365425]


def test_sample_sum_adds_each_draws_marks_in_order():
    # bitwise the left-to-right sum of each draw's marks, from the same draws
    lim = tl.EdgeLengthProcessLimit(alpha=1.5, dim=2, volume=2.0, edge_constant=3.0)
    rng = np.random.default_rng(11)
    counts = rng.poisson(lim._count_mean, 40).tolist()
    p = lim.alpha / lim.dim
    marks = iter((lim.edge_constant**p * rng.random(sum(counts)) ** p).tolist())
    expected = []
    for count in counts:
        total = 0.0
        for _ in range(count):
            total += next(marks)
        expected.append(total)
    assert max(counts) >= 3
    assert lim.sample_sum(np.random.default_rng(11), 40).tolist() == expected


@settings(max_examples=100)
@given(alpha=st.floats(0.1, 4.0), dim=st.integers(1, 4), volume=st.floats(0.01, 10.0),
       c=st.floats(0.01, 10.0), seed=st.integers(0, 2**32 - 1))
def test_property_order_statistics_and_sum_share_nu(alpha, dim, volume, c, seed):
    lim = tl.EdgeLengthProcessLimit(alpha, dim, volume, c)
    # P(at least one point) both ways: the first order statistic is finite
    assert lim.order_statistic_cdf(1, math.inf) == pytest.approx(1.0 - lim.atom_at_zero,
                                                                  rel=1e-12)
    # nu is flat at its total mass kappa_d c V / 2 from u = c^(alpha/d) on
    total = geo.unit_ball_volume(dim) * c * volume / 2.0
    u_cap = c ** (alpha / dim)
    for u in (u_cap, 2.0 * u_cap, math.inf):
        assert lim.intensity(u) == pytest.approx(total, rel=1e-12)
    assert np.all(lim.sample_sum(np.random.default_rng(seed), 50) >= 0.0)
