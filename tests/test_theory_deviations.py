"""Chernoff tails, the optimized deviation factor, and the bound shapes."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from gilbertsim import geometry as geo
from gilbertsim import theory_deviations as td
from gilbertsim.errors import DegenerateInputError

W = geo.ConvexWindow.box((1.0, 1.0))


def test_chernoff_poisson_values():
    assert td.chernoff_poisson_tail(1.0, 1.0) == 1.0
    assert td.chernoff_poisson_tail(1.0, 0.5) == 1.0
    assert td.chernoff_poisson_tail(1.0, 4.0) == pytest.approx(math.exp(3.0) / 256.0)


def test_chernoff_poisson_dominates_exact_tail():
    rng = np.random.default_rng(41)
    for _ in range(300):
        a = float(rng.uniform(0.05, 30.0))
        y = float(rng.uniform(0.0, 60.0))
        bound = td.chernoff_poisson_tail(a, y)
        exact = float(sps.poisson.sf(math.ceil(y) - 1, a))  # P(X >= y)
        assert bound >= exact - 1e-12


def test_chernoff_binomial_dominates_exact_tail():
    rng = np.random.default_rng(42)
    assert td.chernoff_binomial_tail(10, 0.1, 4.0) == pytest.approx(
        td.chernoff_poisson_tail(1.0, 4.0))
    for _ in range(300):
        m = int(rng.integers(1, 200))
        p = float(rng.uniform(0.01, 0.99))
        y = float(rng.uniform(0.0, m))
        bound = td.chernoff_binomial_tail(m, p, y)
        exact = float(sps.binom.sf(math.ceil(y) - 1, m, p))
        assert bound >= exact - 1e-12


def _poisson_input(u=0.0, alpha=0.0, median=5.0, t=2000.0, delta=None):
    if delta is None:
        # calibrate so ln(tV)/(t kappa_d delta^d) = 1
        delta = math.sqrt(math.log(t) / (t * math.pi))
    return td.LdiInput(window=W, delta=delta, alpha=alpha,
                       median=median, u=u, t=t)


def test_xstar_analytic_case():
    # u=0 and unit log-term: x* = inf_s (e^s)/s * ... = e at s = 1
    assert td.ldi_xstar(_poisson_input()) == pytest.approx(math.e, abs=1e-9)


def test_xstar_collapse_at_u_zero():
    # u=0: the square root collapses and x* = 2 inf_s A(s)
    inp = td.LdiInput(window=W, delta=0.05, alpha=1.0,
                      median=3.0, u=0.0, t=500.0)
    xs = td.ldi_xstar(inp)
    grid = np.exp(np.linspace(-10, 5, 4001))
    direct = min(2.0 * (math.log(500.0) / (500.0 * math.pi * 0.05**2) + math.expm1(s))
                 / (2.0 * s) for s in grid)
    assert xs <= direct + 1e-12
    assert xs == pytest.approx(direct, rel=1e-4)


def test_xstar_monotone_in_u():
    vals = [td.ldi_xstar(td.LdiInput(window=W, delta=0.05, alpha=0.0,
                                     median=900.0, u=u, t=500.0))
            for u in np.linspace(0.0, 2000.0, 9)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_xstar_certificate_random_probes():
    rng = np.random.default_rng(43)
    for _ in range(60):
        mode = "poisson" if rng.random() < 0.5 else "binomial"
        kw = {"t": float(rng.uniform(5, 3000))} if mode == "poisson" else \
             {"n": int(rng.integers(5, 3000))}
        inp = td.LdiInput(window=W, delta=float(rng.uniform(0.01, 0.2)),
                          alpha=float(rng.uniform(0.0, 2.0)),
                          median=float(rng.uniform(0.0, 200.0)),
                          u=float(rng.uniform(0.0, 1000.0)), **kw)
        xs = td.ldi_xstar(inp)
        probes = np.exp(rng.uniform(-12.0, 6.0, 300))
        best = min(td.ldi_xstar_objective(inp, s) for s in probes)
        assert xs <= best * (1.0 + 1e-8)


def test_degenerate_input_raises():
    inp = td.LdiInput(window=W, delta=0.05, alpha=0.0,
                      median=0.0, u=0.0, t=100.0)
    with pytest.raises(DegenerateInputError):
        td.ldi_xstar(inp)
    with pytest.raises(DegenerateInputError):
        td.ldi_envelope(inp)


def test_ldi_bound_raises_when_xstar_is_zero():
    # t V = 0.1 < 1: log(t V) < 0, and the s-infimum x* rounds to 0
    inp = td.LdiInput(window=geo.ConvexWindow.box((0.1,)), delta=0.3, alpha=3.0,
                      median=1e3, u=1e-3, t=1.0)
    assert td.ldi_xstar(inp) == 0.0
    with pytest.raises(DegenerateInputError, match="x\\*"):
        td.ldi_bound(inp)
    assert td.ldi_envelope(inp) == 1.0


def test_ldi_bound_clamps_and_decreases():
    at_zero = td.LdiInput(window=W, delta=0.05, alpha=0.0,
                          median=10.0, u=0.0, t=500.0)
    assert td.ldi_bound(at_zero) == 1.0  # 8 e^0 clamped
    assert td.ldi_envelope(at_zero) == 1.0
    us = np.linspace(500.0, 6000.0, 12)
    bounds = [td.ldi_bound(td.LdiInput(window=W, delta=0.05,
                                       alpha=0.0, median=940.0, u=float(u), t=500.0))
              for u in us]
    declined = [b for b in bounds if b < 1.0]
    assert len(declined) >= 3
    assert all(y < x for x, y in zip(declined, declined[1:]))


def test_ldi_envelope_large_u_shape():
    # large u: exponent ~ -(1/2) sqrt(u / (8 delta^alpha)); envelope -> 0
    delta, alpha, med = 0.05, 1.0, 50.0
    for u in (1e5, 1e6):
        inp = td.LdiInput(window=W, delta=delta, alpha=alpha,
                          median=med, u=u, t=500.0)
        env = td.ldi_envelope(inp)
        predicted = 8.0 * math.exp(-0.5 * math.sqrt(u / (8.0 * delta**alpha))
                                   * math.sqrt(u / (u + med)))
        assert env <= 8.0 * math.exp(-0.4 * math.sqrt(u / (8.0 * delta**alpha)))
        assert env == pytest.approx(min(1.0, predicted), rel=1e-6)


def test_binomial_variants_carry_volume_factors():
    w2 = geo.ConvexWindow.box((2.0, 2.0))  # V = 4
    base = dict(delta=0.05, alpha=0.0, median=100.0, u=2000.0)
    pltz = td.LdiInput(window=w2, t=500.0, **base)
    binz = td.LdiInput(window=w2, n=500, **base)
    # different closed forms: the binomial exponent carries V(W)
    assert td.ldi_xstar(pltz) != pytest.approx(td.ldi_xstar(binz))
    assert td.ldi_bound(pltz) != pytest.approx(td.ldi_bound(binz))
    assert td.ldi_envelope(pltz) != pytest.approx(td.ldi_envelope(binz))
    # the intensity given picks the model: exactly one of t and n
    for both_or_neither in (dict(t=500.0, n=500), {}):
        with pytest.raises(ValueError, match="exactly one of t"):
            td.LdiInput(window=w2, **base, **both_or_neither)


def test_thermo_exponent_values():
    # branches at alpha=0, d=2, t=100, u=1: {100^-1, 1, 100^-(1/8)} -> 0.01
    assert td.thermo_exponent(1.0, 100.0, 0.0, 2) == pytest.approx(0.01)
    assert td.thermo_exponent(2.0, 100.0, 1.0, 2) == pytest.approx(
        min(100.0**0.0 * 4.0, 100.0 ** (1.0 / 6.0) * 2.0 ** (1.0 / 3.0),
            100.0 ** (1.0 / 8.0) * 2.0**0.75))
    us = np.linspace(0.0, 5.0, 21)
    vals = [td.thermo_exponent(float(u), 50.0, 1.0, 2) for u in us]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
