"""Exact moment formulas, sandwiches, Sigma matrices, and CLT-bound terms."""

import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gilbertsim import geometry as geo
from gilbertsim import theory_moments as tm
from gilbertsim.errors import (DivergentCovarianceError, NonIntegrableError,
                               UnsupportedDimensionError)
from gilbertsim.experiments import ExperimentConfig, predictions
from test_geometry import contains

PI = math.pi
BOX = geo.ConvexWindow.box((1.0, 1.0))


def test_expectation_exact_values():
    # oracle: disc moments of (1-|y1|)(1-|y2|)
    ref = PI * 0.05**2 - (8.0 / 3.0) * 0.05**3 + 0.05**4 / 2.0
    assert tm.expectation_exact(BOX, 100.0, 0.05, 0.0) == pytest.approx(5000.0 * ref)
    assert tm.expectation_exact(BOX, 100.0, 0.05, 0.0) == pytest.approx(37.6189, abs=5e-4)
    assert tm.expectation_exact(BOX, 0.0, 0.05, 0.0) == 0.0
    with pytest.raises(NonIntegrableError):
        tm.expectation_exact(BOX, 10.0, 0.05, -2.0)


def test_expectation_bounds_plug_in():
    lo, hi = tm.expectation_bounds(BOX, 100.0, 0.05, 0.0)
    assert hi == pytest.approx((PI / 2.0) * 1e4 * 0.0025)
    assert lo == pytest.approx(hi - (2.0 / 6.0) * 1e4 * 0.05**3 * 4.0)


def test_expectation_sandwich_sweep():
    rng = np.random.default_rng(21)
    windows = [BOX, geo.ConvexWindow.ball(0.8, 2), geo.ConvexWindow.box((2.0, 1.0, 0.5)),
               geo.ConvexWindow.box((1.5,))]
    for _ in range(50):
        w = windows[int(rng.integers(len(windows)))]
        alpha = float(rng.choice([-0.5, 0.0, 1.0, 2.0]))
        delta = float(rng.uniform(0.02, 0.2))
        t = float(rng.uniform(1.0, 300.0))
        val = tm.expectation_exact(w, t, delta, alpha)
        lo, hi = tm.expectation_bounds(w, t, delta, alpha)
        assert lo - 1e-12 * abs(hi) <= val <= hi + 1e-12 * abs(hi)


def _box_series_terms(sides, delta, alpha):
    """Terms k = 0..d of a box's radial moment for delta <= min(side):
    (-1)^k e_{d-k}(s) omega_{d,k} delta^(a+d+k) / (a+d+k)."""
    d = len(sides)
    terms = []
    for k in range(d + 1):
        e = sum(math.prod(c) for c in itertools.combinations(sides, d - k))
        omega = 2.0 * PI ** ((d - k) / 2.0) / math.gamma((d + k) / 2.0)
        p = alpha + d + k
        terms.append((-1) ** k * e * omega * delta**p / p)
    return terms


@st.composite
def box_sandwich_cases(draw):
    d = draw(st.integers(1, 4))
    sides = tuple(draw(st.floats(0.2, 2.0)) for _ in range(d))
    # delta >= min(side)/4 keeps the k >= 2 tail far above the rounding of
    # exact - lower, a difference of two nearly equal numbers
    delta = min(sides) * draw(st.floats(0.25, 1.0))
    alpha = draw(st.floats(-d + 0.1, 3.0))
    return sides, delta, alpha, draw(st.floats(1.0, 1e4))


@settings(max_examples=200)
@given(box_sandwich_cases())
@example(((1.0, 1.0), 0.25, 0.0, 100.0))
@example(((1.0, 0.8, 0.6, 0.5), 0.5, -3.5, 300.0))
@example(((0.7,), 0.7, -0.9, 10.0))
@example(((2.0, 0.28125), 0.0703125, -1.875, 55.0))  # the tail is only 1.7e-4 of exact
def test_property_box_expectation_sandwich_is_series_cut(case):
    # For a box with delta <= min(side) the sandwich is the exact series cut
    # after k = 0 (upper) and k = 1 (lower); the k >= 2 tail is its gap.
    sides, delta, alpha, t = case
    w = geo.ConvexWindow.box(sides)
    terms = [0.5 * t * t * v for v in _box_series_terms(sides, delta, alpha)]
    lo, hi = tm.expectation_bounds(w, t, delta, alpha)
    exact = tm.expectation_exact(w, t, delta, alpha)
    assert hi == pytest.approx(terms[0], rel=1e-12)
    assert lo == pytest.approx(terms[0] + terms[1], rel=1e-12)
    if len(sides) == 1:  # no tail: the lower value is exact
        assert exact == pytest.approx(lo, rel=1e-12)
    else:
        # exact - lo cancels: its rounding floor is a few ulps of exact
        floor = (len(sides) + 2) * sys.float_info.epsilon * abs(exact)
        assert exact - lo == pytest.approx(sum(terms[2:]), rel=1e-12, abs=floor)


def test_expectation_interval_width_vanishes_like_delta():
    ratios = []
    for delta in (0.1, 0.05, 0.025, 0.0125):
        lo, hi = tm.expectation_bounds(BOX, 100.0, delta, 1.0)
        ratios.append((hi - lo) / hi)
    for a, b in zip(ratios, ratios[1:]):
        assert b == pytest.approx(a / 2.0, rel=0.05)  # width/upper ~ O(delta)


def _covariance_mc_oracle(window, t, delta, a, b, n_samples, seed):
    """Importance-sampled Monte Carlo for the exact covariance split."""
    rng = np.random.default_rng(seed)
    ball = geo.ConvexWindow.ball(delta, window.dim)
    y = geo.sample_uniform(window, rng, n_samples)
    z1 = geo.sample_uniform(ball, rng, n_samples)
    z2 = geo.sample_uniform(ball, rng, n_samples)
    w1 = np.linalg.norm(z1, axis=1) ** a * contains(window, y + z1)
    w2 = np.linalg.norm(z2, axis=1) ** b * contains(window, y + z2)
    vals = w1 * w2 * window.volume * ball.volume**2
    hh = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(n_samples)
    pair = geo.covariogram_radial_integral(window, delta, a + b)
    return t**3 * hh + 0.5 * t * t * pair, t**3 * se


MC_ORACLE_CASES = [  # (window, delta, oracle samples)
    (BOX, 0.2, 400_000),
    (geo.ConvexWindow.ball(1.0, 2), 0.3, 400_000),
    (geo.ConvexWindow.box((1.0, 0.8, 1.2)), 0.2, 400_000),
    (geo.ConvexWindow.ball(0.8, 3), 0.25, 400_000),
    (geo.ConvexWindow.box((1.0,)), 0.2, 400_000),
    # the 3-d ball's I_hh with its cap term c taken as 0.99c fails here (z about -5);
    # at 400,000 samples it would pass (z = -3.9)
    (geo.ConvexWindow.ball(1.3, 3), 0.5, 2_000_000),
]


@pytest.mark.parametrize("window,delta,n_samples", MC_ORACLE_CASES,
                         ids=[f"window{k}-{case[1]}" for k, case in enumerate(MC_ORACLE_CASES)])
def test_covariance_exact_vs_mc_oracle(window, delta, n_samples):
    t = 50.0
    for k, (a, b) in enumerate([(0.0, 0.0), (0.0, 1.0), (1.0, 2.0)]):
        exact = tm.covariance_exact(window, t, delta, a, b)
        mc, se = _covariance_mc_oracle(window, t, delta, a, b, n_samples, 1000 + k)
        assert abs(exact - mc) <= 4.0 * se
        lo, hi = tm.covariance_bounds(window, t, delta, a, b)
        assert lo - 1e-9 * abs(hi) <= exact <= hi + 1e-9 * abs(hi)


def test_covariance_symmetry_and_small_t_limit():
    assert tm.covariance_exact(BOX, 80.0, 0.1, 0.5, 1.5) == pytest.approx(
        tm.covariance_exact(BOX, 80.0, 0.1, 1.5, 0.5), rel=1e-12)
    # t -> 0: Cov / t^2 -> (1/2) * pair moment
    pair = geo.covariogram_radial_integral(BOX, 0.1, 1.0)
    for t in (1.0, 0.1, 0.01):
        ratio = tm.covariance_exact(BOX, t, 0.1, 0.5, 0.5) / (t * t)
        if t <= 0.01:
            assert ratio == pytest.approx(0.5 * pair, rel=1e-3)


# (sides, t, delta, alpha, beta, covariance_exact) computed with the boundary
# layers re-integrated at each delta, before the delta = 1 deficit tables.
COVARIANCE_PINS = [
    ((1.5,), 200.0, 0.1, 0.0, 1.0, 22753.333333333332),
    ((1.5,), 200.0, 0.1, -0.4, 2.0, 6327.61084081587),
    ((1.0, 1.0), 100.0, 0.05, 0.0, 0.0, 94.9823482995014),
    ((1.0, 1.0), 100.0, 0.05, 0.0, 1.0, 3.150991497340116),
    ((1.0, 1.0), 100.0, 0.05, 1.0, 1.0, 0.1098135429106048),
    ((2.0, 0.7), 300.0, 0.12, -0.5, 1.5, 6105.0108550921905),
    ((2.0, 0.7), 300.0, 0.12, -0.4, -0.4, 584793.1524420587),
    ((1.0, 0.8, 1.2), 1000.0, 0.07, 0.0, 1.0, 123.1905212015808),
    ((1.0, 0.8, 1.2), 1000.0, 0.07, 1.0, 1.0, 6.555450098698177),
    ((1.0, 0.8, 1.2), 1000.0, 0.07, -1.2, 2.0, 265.0051906049106),
    ((0.6, 1.9, 1.1), 500.0, 0.25, 3.0, 0.5, 1249.5217285336478),
]


@pytest.mark.parametrize("sides,t,delta,a,b,ref", COVARIANCE_PINS)
def test_box_covariance_regression_pins(sides, t, delta, a, b, ref):
    window = geo.ConvexWindow.box(sides)
    assert tm.covariance_exact(window, t, delta, a, b) == pytest.approx(ref, rel=1e-12)
    # swapping the exponents gives the same bits
    assert tm.covariance_exact(window, t, delta, b, a) == tm.covariance_exact(window, t, delta, a, b)


def test_box_covariance_cold_cache_equals_warm():
    cases = [(sides, t, delta, a, b) for sides, t, delta, a, b, _ in COVARIANCE_PINS]

    def values():
        return [tm.covariance_exact(geo.ConvexWindow.box(s), t, d, a, b)
                for s, t, d, a, b in cases]

    first = values()
    warm = values()
    _clear_theory_caches()
    cold = values()
    assert first == warm == cold
    assert not any(table.flags.writeable for table in tm._unit_deficits(3, 0.0))


def _clear_table_caches():
    tm._unit_deficits.cache_clear()
    tm._cap_rule.cache_clear()


def _clear_theory_caches(keep=()):
    """Empty every cache of the theory modules but those named in keep."""
    for module in (tm, geo):
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and name not in keep:
                value.cache_clear()


def test_theory_caches_are_keyed_by_every_input():
    # boxes that share (d, alpha, beta) but differ in sides, in delta or in both,
    # taken in turn so that each call finds the caches warm from another box:
    # every value keeps the bits it has with every theory cache cleared but the
    # cap rules and Gauss nodes (keyed by the layer alone, and tested by
    # test_cap_rule_cache_keeps_table_bits), and so does the swapped (beta, alpha)
    cases = [(sides, delta, a, b)
             for a, b in ((0.0, 1.0), (-0.4, 2.0), (1.0, 1.0))
             for sides, delta in (((1.5,), 0.1), ((1.5,), 0.3), ((0.7,), 0.3),
                                  ((1.0, 1.0), 0.05), ((1.0, 1.0), 0.12), ((2.0, 0.7), 0.12),
                                  ((1.0, 0.8, 1.2), 0.07), ((1.0, 0.8, 1.2), 0.25),
                                  ((0.6, 1.9, 1.1), 0.25))]

    def cov(sides, delta, a, b):
        return tm.covariance_exact(geo.ConvexWindow.box(sides), 300.0, delta, a, b)

    cold = []
    for case in cases:
        _clear_theory_caches(keep=("_cap_rule", "_leggauss"))
        cold.append(cov(*case))
    for case, value in zip(cases, cold):
        sides, delta, a, b = case
        assert cov(*case).hex() == value.hex(), case
        assert cov(sides, delta, b, a).hex() == value.hex(), case


def test_cap_rule_cache_keeps_table_bits():
    # the gamma-free cap rule is built once per (d, j, order) and shared by
    # every gamma: a table from a warm rule equals one built from scratch
    _clear_table_caches()
    tm._unit_deficits(3, 0.0)
    warm = tm._unit_deficits(3, 1.0)
    _clear_table_caches()
    cold = tm._unit_deficits(3, 1.0)
    assert len(warm) == len(cold) == 3
    for a, b in zip(warm, cold):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    tm._unit_deficits(2, 0.5)
    assert tm._cap_rule.cache_info().currsize <= 4
    for key in [(2, 2, 40), (3, 2, 40), (3, 3, 12)]:
        assert not any(a.flags.writeable for a in tm._cap_rule(*key))


@pytest.mark.parametrize("j", [2, 3])
def test_cap_rule_slabs_equal_the_one_shot_sphere_measure(j):
    # the 3-d cap measure is built one slab of the first wall coordinate at a
    # time; each step is elementwise or a sum over the slice axis alone, so it
    # keeps the bits of one _sphere_measure call on the whole grid
    order = 6
    g = tm.gl_nodes(0.0, 1.0, order)[0]
    walls = np.meshgrid(*[g] * j, indexing="ij")
    r, wt = tm.gl_nodes(np.minimum(np.sqrt(sum(w * w for w in walls)), 1.0), 1.0, order)
    rs = np.maximum(r, 1e-300)
    slices = tm._GL_SLICES if j == 2 else order
    oracle = wt * tm._sphere_measure([w[..., None] / rs for w in walls], slices)
    nodes, weighted = tm._cap_rule(3, j, order)
    assert nodes.tobytes() == r.tobytes()
    assert weighted.shape == oracle.shape == (order,) * (j + 1)
    assert weighted.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("key", [(3, 2, 40), (3, 3, 12)])
def test_cold_cap_rule_peaks_below_8_mb(key):
    # one first-wall slab of slice nodes is alive at a time; built in one
    # piece, the edge rule peaked at 66 MB and the corner rule at 11 MB
    tm._cap_rule.cache_clear()
    tracemalloc.start()
    try:
        tm._cap_rule(*key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@st.composite
def dims_and_exponents(draw):
    d = draw(st.sampled_from((2, 3)))
    return d, draw(st.floats(-d + 0.05, 5.0))


@settings(max_examples=20)
@given(dims_and_exponents())
@example((2, -1.95))
@example((3, -2.95))
@example((3, -2.0))
@example((3, 5.0))
def test_property_unit_deficit_tables_bounded_monotone_symmetric(case):
    # D_g on the m-wall layer lies in [0, (1 - 2^-m) C_g]: at most the m
    # half-balls cut by the walls, less their overlaps.  It shrinks as any wall
    # moves away, and the walls play symmetric roles; the d = 3 slice
    # quadrature breaks that symmetry by its own error (about 4e-5 C_g).
    d, gamma = case
    full = d * geo.unit_ball_volume(d) / (gamma + d)
    sym_tol = (1e-15 if d == 2 else 1e-4) * full
    for m, table in enumerate(tm._unit_deficits(d, gamma), start=1):
        assert table.ndim == m
        assert np.all(table >= 0.0)
        assert np.all(table <= (1.0 - 2.0**-m) * full)
        for axis in range(m):
            assert np.all(np.diff(table, axis=axis) < 0.0)
        for perm in itertools.permutations(range(m)):
            assert np.max(np.abs(table - table.transpose(perm))) <= sym_tol


def test_box_covariance_rejects_d4_before_quadrature():
    _clear_theory_caches()
    window = geo.ConvexWindow.box((1.0, 1.0, 1.0, 1.0))
    with pytest.raises(UnsupportedDimensionError,
                       match=r"exact box covariance implemented for d <= 3"):
        tm.covariance_exact(window, 10.0, 0.1, 0.0, 0.0)
    with pytest.raises(UnsupportedDimensionError,
                       match=r"exact covariance for boxes requires delta <= min\(side\)/2"):
        tm.covariance_exact(geo.ConvexWindow.box((1.0, 0.3)), 10.0, 0.2, 0.0, 0.0)
    # neither failure built a table or a layer's weights
    assert tm._unit_deficits.cache_info().currsize == tm._layer_weights.cache_info().currsize == 0


ALPHA_GRID = (-0.4, 0.0, 0.5, 1.0, 2.0)


@st.composite
def window_alpha_grid(draw):
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        window = geo.ConvexWindow.box(tuple(draw(st.floats(0.5, 2.0)) for _ in range(d)))
    else:
        window = geo.ConvexWindow.ball(draw(st.floats(0.25, 1.0)), draw(st.integers(2, 3)))
    delta = draw(st.floats(0.01, 0.5)) * 2.0 * window.inradius
    t = draw(st.floats(1.0, 2000.0))
    alphas = draw(st.lists(st.sampled_from(ALPHA_GRID), min_size=2, max_size=3, unique=True))
    return window, t, delta, alphas


@settings(max_examples=25)
@given(window_alpha_grid())
# a ball case whose matrix was 1 ulp off symmetric while the ball I_hh
# multiplied the two h profiles in argument order
@example((geo.ConvexWindow.ball(0.75, 3), 1.0, 0.75, [-0.4, 0.0, 0.5]))
def test_property_window_covariance_matrix_symmetric_psd(case):
    window, t, delta, alphas = case
    cov = np.array([[tm.covariance_exact(window, t, delta, a, b) for b in alphas]
                    for a in alphas])
    assert np.array_equal(cov, cov.T)
    scale = 1.0 / np.sqrt(np.diag(cov))
    corr = cov * scale[:, None] * scale[None, :]
    assert np.linalg.eigvalsh(corr).min() >= -1e-9
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas):
            lo, hi = tm.covariance_bounds(window, t, delta, a, b)
            assert lo - 1e-12 * abs(hi) <= cov[i, j] <= hi + 1e-12 * abs(hi)


@settings(max_examples=25)
@given(window_alpha_grid())
def test_property_window_expectation_inside_bounds(case):
    window, t, delta, alphas = case
    for alpha in alphas:
        val = tm.expectation_exact(window, t, delta, alpha)
        lo, hi = tm.expectation_bounds(window, t, delta, alpha)
        assert lo - 1e-12 * abs(hi) <= val <= hi + 1e-12 * abs(hi)


@st.composite
def scale_cases(draw):
    """A window W, delta up to the exact covariance's reach, t, two exponents
    and a scale s, with sW."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 3))
        sides = [draw(st.floats(0.2, 3.0)) for _ in range(d)]
        window, limit = geo.ConvexWindow.box(sides), min(sides) / 2.0

        def scaled(s):
            return geo.ConvexWindow.box([v * s for v in sides])
    else:
        d = draw(st.integers(2, 3))
        radius = draw(st.floats(0.2, 3.0))
        window, limit = geo.ConvexWindow.ball(radius, d), radius

        def scaled(s):
            return geo.ConvexWindow.ball(radius * s, d)
    delta = draw(st.floats(0.01, 1.0)) * limit
    alphas = [draw(st.floats(-d / 2.0 + 0.1, 2.5)) for _ in range(2)]
    s = draw(st.floats(0.01, 10.0))
    return window, scaled(s), draw(st.floats(50.0, 2000.0)), delta, alphas, s


# Over 6,000 random draws from the same ranges, the worst deviation was 7.9e-15
# of the scale each check below uses.
SCALE_REL = 1e-13


@settings(max_examples=100)
@given(scale_cases())
def test_property_theory_is_scale_equivariant(case):
    # y -> s y maps (W, t, delta) to (sW, t s^-d, s delta) and L^(a) to
    # s^a L^(a): means scale by s^a, covariances by s^(a+b), and the Kolmogorov
    # bound, covariance terms over a variance, not at all. A sandwich is held
    # to its larger end, since its lower end subtracts a surface term; the
    # Kolmogorov bound divides by the variance sandwich's lower end, so its
    # rounding grows with V / (V - S delta).
    window, image, t, delta, (a, b), s = case
    at = (t * s**-window.dim, delta * s)

    def check(scaled, values, power):
        scaled, values = np.atleast_1d(scaled), np.atleast_1d(values)
        gap = np.abs(scaled - s**power * values).max()
        assert gap <= SCALE_REL * s**power * np.abs(values).max()

    check(tm.expectation_exact(image, *at, a), tm.expectation_exact(window, t, delta, a), a)
    check(tm.expectation_bounds(image, *at, a), tm.expectation_bounds(window, t, delta, a), a)
    check(tm.covariance_exact(image, *at, a, b), tm.covariance_exact(window, t, delta, a, b),
          a + b)
    check(tm.covariance_bounds(image, *at, a, b), tm.covariance_bounds(window, t, delta, a, b),
          a + b)
    inner = geo.inner_parallel_volume_lower_bound(window, delta)
    rounding = window.volume / inner if inner > 0.0 else 1.0
    assert math.isclose(tm.kolmogorov_bound(image, *at, a),
                        tm.kolmogorov_bound(window, t, delta, a), rel_tol=SCALE_REL * rounding)

    common = dict(alphas=tuple(dict.fromkeys((a, b))), kind="predict")  # distinct alphas
    base = predictions(ExperimentConfig(window=window, t=t, delta=delta, **common))
    moved = predictions(ExperimentConfig(window=image, t=at[0], delta=at[1], **common))
    assert [e["name"] for e in base] == [e["name"] for e in moved]
    for entry, image_entry in zip(base, moved):
        params = entry["params"]
        power = (2.0 * params["alpha"] if entry["name"].startswith("variance")
                 else params["alpha"] + params.get("beta", 0.0))
        check(image_entry["value"], entry["value"], power)


def test_covariance_divergent_parameters_raise():
    with pytest.raises(DivergentCovarianceError):
        tm.covariance_exact(BOX, 10.0, 0.1, -2.1, 1.0)  # alpha <= -d
    with pytest.raises(DivergentCovarianceError):
        tm.covariance_exact(BOX, 10.0, 0.1, -1.2, -0.9)  # alpha + beta <= -d
    with pytest.raises(DivergentCovarianceError):
        tm.covariance_bounds(BOX, 10.0, 0.1, -2.5, 1.0)


def test_covariance_bounds_sigma_constants():
    # d=2, alpha=beta=0: sigma1 = pi/2, sigma2 = pi^2
    t, delta = 7.0, 0.03
    lo, hi = tm.covariance_bounds(BOX, t, delta, 0.0, 0.0)
    core = (PI / 2.0) * t * t * delta**2 + PI**2 * t**3 * delta**4
    assert hi == pytest.approx(core * BOX.volume)
    assert lo == pytest.approx(core * (BOX.volume - BOX.surface_area * delta))
    lo_deg, _ = tm.covariance_bounds(BOX, t, 0.3, 0.0, 0.0)  # delta >= V/S
    assert lo_deg <= 0.0


def test_variance_asymptotic_value_and_ratio():
    # paper formula: first coefficient d*kappa_d / (2(2a+d)) = pi/2 at a=0, d=2
    val = tm.variance_asymptotic(BOX, 100.0, 0.05, 0.0)
    assert val == pytest.approx((PI / 2.0) * 1e4 * 0.0025 + PI**2 * 1e6 * 0.05**4)
    assert val == pytest.approx(100.9549, abs=1e-3)
    # ratio to the exact variance tends to 1 as delta -> 0
    errs = []
    for delta in (0.1, 0.05, 0.025):
        exact = tm.covariance_exact(BOX, 100.0, delta, 1.0, 1.0)
        errs.append(abs(tm.variance_asymptotic(BOX, 100.0, delta, 1.0) / exact - 1.0))
    assert errs[-1] < 0.05
    assert errs[2] < errs[1] < errs[0]


def test_variance_asymptotic_thermo_term_balance():
    # at t * delta^d = 1 the two variance terms are within a constant factor
    t = 400.0
    delta = t ** (-1.0 / 2.0)
    term1 = (PI / 2.0) * t * t * delta**2
    term2 = PI**2 * t**3 * delta**4
    assert 0.1 < term1 / term2 < 10.0


def test_sigma_matrix_cases():
    alphas = (0.0, 1.0)
    sparse = tm.RegimeSchedule(a=1.0, gamma=0.75)
    thermo = tm.RegimeSchedule(a=1.0, gamma=0.5)
    dense = tm.RegimeSchedule(a=1.0, gamma=0.3)
    s1 = tm.sigma_matrix(alphas, 2, 1.0, sparse)
    assert s1 == pytest.approx(PI * np.array([[1 / 2, 1 / 3], [1 / 3, 1 / 4]]))
    s_th = tm.sigma_matrix(alphas, 2, 1.0, thermo)
    s2 = 4.0 * PI**2 * np.array([[1 / 4, 1 / 6], [1 / 6, 1 / 9]])
    assert s_th == pytest.approx(s1 + s2)  # c = 1
    sd = tm.sigma_matrix(alphas, 2, 1.0, dense)
    assert sd == pytest.approx(s2)
    assert abs(np.linalg.det(sd)) < 1e-12  # rank one
    for sched in (sparse, thermo):
        eig = np.linalg.eigvalsh(tm.sigma_matrix(alphas, 2, 1.0, sched))
        assert eig[0] > 0.0


def test_sigma_matrix_thermo_continuity():
    alphas = (0.0, 1.0)
    s1 = tm.sigma_matrix(alphas, 2, 1.0, tm.RegimeSchedule(a=1e-4, gamma=0.5))
    sparse = tm.sigma_matrix(alphas, 2, 1.0, tm.RegimeSchedule(a=1.0, gamma=0.8))
    assert s1 == pytest.approx(sparse, abs=1e-6)  # c -> 0+ recovers Sigma_1
    s_big = tm.sigma_matrix(alphas, 2, 1.0, tm.RegimeSchedule(a=100.0, gamma=0.5))
    dense = tm.sigma_matrix(alphas, 2, 1.0, tm.RegimeSchedule(a=1.0, gamma=0.2))
    assert s_big == pytest.approx(dense, abs=1e-3)  # c -> inf recovers Sigma_2
    # continuity at c = 1 between the two thermodynamic branches
    lo = tm.sigma_matrix(alphas, 2, 1.0, tm.RegimeSchedule(a=1.0 - 1e-9, gamma=0.5))
    hi = tm.sigma_matrix(alphas, 2, 1.0, tm.RegimeSchedule(a=1.0 + 1e-9, gamma=0.5))
    assert lo == pytest.approx(hi, rel=1e-6)


def test_regime_schedule_classification():
    assert tm.RegimeSchedule(1.0, 0.75).classify(2) == "sparse"
    assert tm.RegimeSchedule(2.0, 0.5).classify(2) == "thermodynamic"
    assert tm.RegimeSchedule(2.0, 0.5).limit(1, 2) == pytest.approx(4.0)
    assert tm.RegimeSchedule(1.0, 0.75).limit(1, 2) == 0.0
    assert tm.RegimeSchedule(1.0, 0.3).classify(2) == "dense"
    assert tm.RegimeSchedule(1.0, 0.3).limit(1, 2) == math.inf
    assert tm.RegimeSchedule(1.0, 1.0).limit(2, 2) == pytest.approx(1.0)
    assert tm.RegimeSchedule(1.0, 0.8).limit(2, 2) == math.inf
    assert tm.RegimeSchedule(1.0, 1.2).limit(2, 2) == 0.0
    # gamma exactly at k/d is the thermodynamic boundary for that k
    assert tm.RegimeSchedule(3.0, 1.0 / 3.0).limit(1, 3) == 27.0
    assert tm.RegimeSchedule(3.0, 2.0 / 3.0).limit(2, 3) == 27.0


@pytest.mark.parametrize("exponents,rel", [((0.0, 1.0, 2.0), 1e-9), ((-0.45, -0.2), 1e-6)])
def test_one_dimensional_ball_is_the_segment_box(exponents, rel):
    # a 1-d ball of radius R is the segment [-R, R], so its exact moments are
    # those of box:(2R); the ball I_hh takes its d = 1 branch.  Near the r^gamma
    # singularity of negative exponents the fixed ball rule is good to ~3e-7.
    for R, frac in itertools.product((0.25, 1.0, 3.0), (0.02, 0.2, 0.5)):
        ball, box = geo.ConvexWindow.ball(R, 1), geo.ConvexWindow.box((2.0 * R,))
        delta = 2.0 * R * frac
        for a in exponents:
            assert tm.expectation_exact(ball, 7.0, delta, a) == pytest.approx(
                tm.expectation_exact(box, 7.0, delta, a), rel=1e-9)
            for b in exponents:
                assert tm.covariance_exact(ball, 7.0, delta, a, b) == pytest.approx(
                    tm.covariance_exact(box, 7.0, delta, a, b), rel=rel)


def test_growth_orders_of_expectation():
    # edge count ~ t^2 delta^d, total length ~ t^2 delta^(d+1): bounded ratios
    for alpha, power in ((0.0, 2.0), (1.0, 3.0)):
        ratios = [tm.expectation_exact(BOX, 50.0, delta, alpha) / (50.0**2 * delta**power)
                  for delta in (0.02, 0.05, 0.1, 0.2)]
        assert max(ratios) / min(ratios) < 1.5


def test_m_bounds_plug_in_value():
    m11, m12, m22 = tm.m_bounds(BOX, 100.0, 0.05, 0.0, 0.0)
    # d=2: 16 pi^4 V t^5 delta^8 / ((a+d)^2 (b+d)^2) with the 1/16 denominator
    assert m11 == pytest.approx(16.0 * PI**4 * 1e10 * 0.05**8 / 16.0)
    assert m11 == pytest.approx(PI**4 * 0.390625)
    assert m12 > 0 and m22 > 0
    bigger = tm.m_bounds(BOX, 200.0, 0.05, 0.0, 0.0)
    assert all(b > a for a, b in zip((m11, m12, m22), bigger))


def test_m11_upper_bound_dominates_mc_oracle():
    # true M11 = t^5 int h_a^2 h_b^2 estimated with four independent draws
    window, t, delta, a, b = BOX, 20.0, 0.2, 0.0, 1.0
    rng = np.random.default_rng(31)
    n = 300_000
    ball = geo.ConvexWindow.ball(delta, 2)
    y = geo.sample_uniform(window, rng, n)
    prod = np.ones(n)
    for gamma in (a, a, b, b):
        z = geo.sample_uniform(ball, rng, n)
        prod *= np.linalg.norm(z, axis=1) ** gamma * contains(window, y + z) * ball.volume
    est = float(prod.mean()) * window.volume * t**5
    se = float(prod.std(ddof=1)) / math.sqrt(n) * window.volume * t**5
    m11_ub = tm.m_bounds(window, t, delta, a, b)[0]
    assert est + 4.0 * se <= m11_ub
    assert est > 0.05 * m11_ub  # the bound is the right order of magnitude


def test_kolmogorov_bound_rate_shape():
    # thermodynamic schedule: bound ~ t^(-1/2); halving t multiplies by ~sqrt(2)
    for t in (4000.0, 16000.0):
        b_full = tm.kolmogorov_bound(BOX, t, t**-0.5, 0.0)
        b_half = tm.kolmogorov_bound(BOX, t / 2.0, (t / 2.0) ** -0.5, 0.0)
        assert b_half / b_full == pytest.approx(math.sqrt(2.0), rel=0.05)
        assert b_full > 0.0
    t, delta = 4000.0, 4000.0**-0.5
    exact = 621.0 * tm._m_numerator(BOX, t, delta, 0.0, 0.0) \
        / tm.covariance_exact(BOX, t, delta, 0.0, 0.0)
    conservative = tm.kolmogorov_bound(BOX, t, delta, 0.0)
    assert exact <= conservative


def test_kolmogorov_bound_degenerate_variance():
    # V - S*delta < 0: the sandwich's variance bound is <= 0, so the bound
    # divides by the exact variance instead
    t, delta = 100.0, 0.26
    assert tm.covariance_bounds(BOX, t, delta, 0.0, 0.0)[0] <= 0.0
    assert tm.kolmogorov_bound(BOX, t, delta, 0.0) == 621.0 * tm._m_numerator(
        BOX, t, delta, 0.0, 0.0) / tm.covariance_exact(BOX, t, delta, 0.0, 0.0)


def test_d3_bound_structure_and_decay():
    sched = tm.RegimeSchedule(a=1.0, gamma=0.5)
    vals = [tm.d3_bound(BOX, t, sched.delta_at(t), (0.0, 1.0), sched)
            for t in (1e3, 1e4, 1e5)]
    assert all(v > 0 for v in vals)
    assert vals[2] < vals[1] < vals[0]


def test_d3_bound_m1_recomposition():
    # m=1: the bound is |Sigma - scaled var|/2 plus the M-term sum without 621
    sched = tm.RegimeSchedule(a=1.0, gamma=0.5)
    t, alpha = 2e3, 1.0
    delta = sched.delta_at(t)
    norm = tm.normalization(t, delta, alpha, 2)
    var_scaled = tm.covariance_exact(BOX, t, delta, alpha, alpha) / norm**2
    sig = tm.sigma_matrix((alpha,), 2, 1.0, sched)[0, 0]
    m11, m12, m22 = tm.m_bounds(BOX, t, delta, alpha, alpha)
    numer = math.sqrt(m11) + 2.0 * math.sqrt(m12) + math.sqrt(m22)
    scale = max(t**2 * delta**2, t**3 * delta**4) * delta ** (2.0 * alpha)
    manual = 0.5 * abs(sig - var_scaled) \
        + 4.0 * math.sqrt(2.0) * (math.sqrt(var_scaled) + 1.0) * numer / scale
    assert tm.d3_bound(BOX, t, delta, (alpha,), sched) == pytest.approx(manual, rel=1e-9)


def test_d3_first_sum_order_delta_in_thermo():
    # |Sigma - Cov(scaled)| summed ~ O(delta) when R~_t = 0 (thermodynamic)
    sched = tm.RegimeSchedule(a=1.0, gamma=0.5)
    alphas = (0.0, 1.0)
    sums = []
    for t in (1e3, 4e3, 1.6e4):
        delta = sched.delta_at(t)
        sig = tm.sigma_matrix(alphas, 2, 1.0, sched)
        norms = [tm.normalization(t, delta, a, 2) for a in alphas]
        acc = 0.0
        for i in range(2):
            for j in range(2):
                cov = tm.covariance_exact(BOX, t, delta, alphas[i], alphas[j])
                acc += abs(sig[i, j] - cov / (norms[i] * norms[j]))
        sums.append((acc, delta))
    c_fit = sums[0][0] / sums[0][1]
    for acc, delta in sums[1:]:
        assert acc <= 2.0 * c_fit * delta


# Slack on the predicted decay of the covariance-to-Sigma gap per decade of t.
# Over 300 random boxes and alpha pairs the largest ratio to 10^-rho was 1.060
# (3-d dense, t = 1e4 -> 1e5); the 1x0.8x0.6 box reaches 1.053 there, and 1.087
# at t = 1e3 -> 1e4, which this test does not use.
DECAY_SLACK = 0.15


@settings(max_examples=60)
@given(st.integers(2, 3).flatmap(lambda d: st.tuples(*[st.floats(0.5, 2.0)] * d)),
       st.lists(st.sampled_from(ALPHA_GRID), min_size=2, max_size=2, unique=True))
@example((1.0, 1.0), [0.0, 1.0])
@example((1.0, 0.8, 0.6), [0.0, 1.0])
def test_scaled_covariance_tends_to_sigma_at_the_predicted_rate(sides, alphas):
    # Along delta_t = t^-gamma the scaled exact covariance tends to sigma_matrix
    # in every regime. Its relative gap falls per decade of t by 10^-rho, with
    # rho = gamma at the thermodynamic point (the surface layer S delta / V) and
    # otherwise min(|1 - gamma d|, gamma): t delta^d (sparse) or 1/(t delta^d)
    # (dense), or the surface layer when that is slower.
    window = geo.ConvexWindow.box(sides)
    d = window.dim
    for gamma in (1.5 / d, 1.0 / d, 0.6 / d):  # sparse, thermodynamic, dense
        sched = tm.RegimeSchedule(a=1.0, gamma=gamma)
        sig = tm.sigma_matrix(alphas, d, window.volume, sched)

        def gap(t):
            delta = sched.delta_at(t)
            norms = [tm.normalization(t, delta, a, d) for a in alphas]
            return max(abs(tm.covariance_exact(window, t, delta, alphas[i], alphas[j])
                           / (norms[i] * norms[j]) - sig[i, j]) / abs(sig[i, j])
                       for i in range(2) for j in range(i, 2))

        thermo = sched.classify(d) == "thermodynamic"
        rho = gamma if thermo else min(abs(1.0 - gamma * d), gamma)
        gaps = [gap(t) for t in (1e4, 1e5, 1e6)]
        for before, after in zip(gaps, gaps[1:]):
            assert after <= 10.0 ** -rho * (1.0 + DECAY_SLACK) * before
