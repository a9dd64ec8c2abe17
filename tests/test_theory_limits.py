"""Compound-Poisson and point-process limit objects."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from gilbertsim import geometry as geo
from gilbertsim import theory_limits as tl
from gilbertsim import theory_moments as tm
from gilbertsim.experiments import EmpiricalCdf, ks_statistic

PI = math.pi
MODEL = tl.CompoundPoissonModel(c=1.0, dim=2, alpha=2.0, volume=1.0)


def test_cp_sampler_moments():
    rng = np.random.default_rng(5)
    z = tl.sample_compound_poisson(MODEL, rng, 10**6)
    # E Z = E Y * E X = (pi/2) * (1/2)
    se = z.std(ddof=1) / math.sqrt(z.size)
    assert abs(z.mean() - PI / 4.0) <= 3.0 * se
    p0 = float(np.mean(z == 0.0))
    se0 = math.sqrt(p0 * (1 - p0) / z.size)
    assert abs(p0 - math.exp(-PI / 2.0)) <= 3.0 * se0


def test_cp_sampler_vanishes_as_c_to_zero():
    rng = np.random.default_rng(6)
    small = tl.CompoundPoissonModel(c=1e-3, dim=2, alpha=2.0, volume=1.0)
    z = tl.sample_compound_poisson(small, rng, 20_000)
    assert float(np.mean(z > 1e-9)) < 5e-3


def test_cp_sampler_ks_against_independent_stream():
    # sampler correctness: two-sample KS against an independent-stream draw
    a = tl.sample_compound_poisson(MODEL, np.random.default_rng(100), 10**6)
    b = tl.sample_compound_poisson(MODEL, np.random.default_rng(200), 10**6)
    ref = EmpiricalCdf(b)
    assert ks_statistic(a, ref, cdf_left=ref.left) <= 0.003


def test_pp_intensity_values():
    lim = tl.EdgeLengthProcessLimit(alpha=2.0)
    assert tl.pp_intensity(lim, 1.0, 1.0, 2) == pytest.approx(PI / 2.0)
    assert tl.pp_intensity(lim, 0.0, 1.0, 2) == 0.0
    capped = tl.EdgeLengthProcessLimit(alpha=2.0, edge_constant=1.0)
    v1 = tl.pp_intensity(capped, 1.0, 1.0, 2)
    for u in (1.5, 4.0, 100.0):
        assert tl.pp_intensity(capped, u, 1.0, 2) == pytest.approx(v1)
    us = np.linspace(0, 3, 20)
    vals = [tl.pp_intensity(lim, float(u), 1.0, 2) for u in us]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_order_statistic_survival_values():
    lim = tl.EdgeLengthProcessLimit(alpha=2.0)
    assert tl.order_statistic_survival(1, 1.0, lim, 1.0, 2) == pytest.approx(
        math.exp(-PI / 2.0))
    for m in (1, 2, 5):
        assert tl.order_statistic_survival(m, 0.0, lim, 1.0, 2) == 1.0
    for u in (0.2, 1.0, 3.0):
        s1 = tl.order_statistic_survival(1, u, lim, 1.0, 2)
        s2 = tl.order_statistic_survival(2, u, lim, 1.0, 2)
        assert s2 >= s1
        assert tl.order_statistic_cdf(1, u, lim, 1.0, 2) == pytest.approx(1.0 - s1)
        # consistency: m=1 survival equals exp(-nu([0,u]))
        assert s1 == pytest.approx(math.exp(-tl.pp_intensity(lim, u, 1.0, 2)))


def test_order_statistic_cdf_at_infinity_is_the_mass_below_it():
    # c = inf: every order statistic is finite; c finite: fewer than m edges
    # (a Poisson(kd V c/2) count) leave the m-th at +inf
    lim = tl.EdgeLengthProcessLimit(alpha=2.0)
    capped = tl.EdgeLengthProcessLimit(alpha=2.0, edge_constant=1.0)
    for m in range(1, 6):
        assert tl.order_statistic_cdf(m, math.inf, lim, 1.0, 2) == 1.0
        assert tl.order_statistic_cdf(m, math.inf, capped, 1.0, 2) == pytest.approx(
            1.0 - sps.poisson.cdf(m - 1, PI / 2.0), rel=1e-12)


def test_order_statistic_survival_uses_intensity_exponent():
    lim = tl.EdgeLengthProcessLimit(alpha=2.0)
    # d=2, alpha=2: the intensity exponent d/alpha = 1, so nu([0, u]) = (pi/2) u
    u = 0.5
    s_int = tl.order_statistic_survival(1, u, lim, 1.0, 2)
    assert s_int == pytest.approx(math.exp(-PI / 2.0 * u))


def test_cp_mean_identity_with_expectation():
    # E Z equals the limit of t^(2a/d) E L along delta_t = (c/t^2)^(1/d)
    w = geo.ConvexWindow.box((1.0, 1.0))
    t = 1e3
    c, alpha, d = 1.0, 2.0, 2
    delta = (c / t**2) ** (1.0 / d)
    rescaled = t ** (2.0 * alpha / d) * tm.expectation_exact(w, t, delta, alpha)
    assert rescaled == pytest.approx(PI / 4.0, rel=0.01)  # E Z of MODEL


def test_pp_conditions_limits():
    w = geo.ConvexWindow.box((1.0, 1.0))
    alpha = 2.0
    # infinite-edge regime: delta_t = t^-0.8
    for u in (0.5, 1.0, 2.0):
        limit = tl.pp_condition_limits(w, alpha, u)
        assert limit == pytest.approx(PI / 2.0 * u, rel=1e-12)
        a_lo, _ = tl.pp_conditions(w, 1e3, 1e3**-0.8, alpha, u)
        a_hi, _ = tl.pp_conditions(w, 1e5, 1e5**-0.8, alpha, u)
        assert abs(a_hi - limit) <= 0.02 * limit
        assert abs(a_hi - limit) < abs(a_lo - limit)
    # r_t * t is exactly constant once rho < inradius
    kd = geo.unit_ball_volume(2)
    for t in (1e3, 1e4, 1e5):
        _, r_t = tl.pp_conditions(w, t, t**-0.8, alpha, 1.0)
        assert r_t * t == pytest.approx(kd, rel=1e-12)


def test_pp_conditions_constant_regime_plateau():
    w = geo.ConvexWindow.box((1.0, 1.0))
    alpha, d, c = 2.0, 2, 1.0
    for u in (0.5, 2.0):
        limit = tl.pp_condition_limits(w, alpha, u, edge_constant=c)
        assert limit == pytest.approx(PI / 2.0 * min(u, c))
        a_t, _ = tl.pp_conditions(w, 1e4, (c / 1e8) ** 0.5, alpha, u)
        assert abs(a_t - limit) <= 0.02 * limit


def test_model_validation():
    with pytest.raises(ValueError):
        tl.CompoundPoissonModel(c=-1.0, dim=2, alpha=2.0, volume=1.0)
    with pytest.raises(ValueError):
        tl.EdgeLengthProcessLimit(alpha=0.0)
    lim = tl.EdgeLengthProcessLimit(alpha=1.0)
    with pytest.raises(ValueError):
        tl.pp_intensity(lim, -0.5, 1.0, 2)
