"""Each public argument check raises its documented error type."""

import numpy as np
import pytest

from gilbertsim import experiments as ex
from gilbertsim import geometry as geo
from gilbertsim import gilbert_graph as gg
from gilbertsim import theory_deviations as td
from gilbertsim import theory_limits as tl
from gilbertsim import theory_moments as tm
from gilbertsim.errors import (DivergentCovarianceError, NonIntegrableError,
                               UnsupportedDimensionError)
from gilbertsim.point_process import PointSample

BOX = geo.ConvexWindow.box((1.0, 1.0))
PAIR = PointSample(np.array([[0.1, 0.1], [0.2, 0.2]]))


def _ldi(**changed):
    return td.LdiInput(**{**dict(window=BOX, delta=0.1, alpha=1.0, median=1.0, u=1.0, t=10.0),
                          **changed})


@pytest.mark.parametrize("call,error,message", [
    (lambda: geo.unit_ball_volume(-1), ValueError, "dimension must be >= 0"),
    (lambda: geo.ConvexWindow(kind="box", dim=0), ValueError, "dimension must be >= 1"),
    (lambda: geo.ConvexWindow(kind="box", dim=2, sides=(1.0,)), ValueError,
     "one side length per dimension"),
    (lambda: geo.inner_parallel_volume_lower_bound(BOX, -0.1), ValueError, "delta must be >= 0"),
    (lambda: geo.covariogram(BOX, [0.1]), ValueError, "y must have dimension 2"),
    (lambda: geo._box_angular((1.0,) * 5, 0.5), UnsupportedDimensionError, "up to d=4"),
    (lambda: geo.covariogram_radial_integral(BOX, 0.0, 1.0), ValueError, "delta must be > 0"),
    (lambda: ex.ks_statistic([], lambda x: x), ValueError, "at least one sample"),
    (lambda: ex.clopper_pearson_upper(3, 2, 0.95), ValueError, "need 0 <= k <= n"),
    (lambda: gg.build_edges(PAIR, 0.0), ValueError, "delta must be > 0"),
    (lambda: gg.build_edges_bruteforce(PAIR, 0.0), ValueError, "delta must be > 0"),
    (lambda: gg.build_edges_batch(PAIR.points, [2], 0.0), ValueError, "delta must be > 0"),
    (lambda: td.chernoff_poisson_tail(0.0, 1.0), ValueError, "a must be > 0"),
    (lambda: td.chernoff_poisson_tail(1.0, -1.0), ValueError, "y must be >= 0"),
    (lambda: td.chernoff_binomial_tail(0, 0.5, 1.0), ValueError, "m must be >= 1"),
    (lambda: td.chernoff_binomial_tail(5, 1.0, 1.0), ValueError, r"p must lie in \(0, 1\)"),
    (lambda: _ldi(alpha=-1.0), ValueError, "alpha must be >= 0"),
    (lambda: _ldi(median=-1.0), ValueError, "median and u must be >= 0"),
    (lambda: _ldi(delta=0.0), ValueError, "delta must be > 0"),
    (lambda: _ldi(t=0.0), ValueError, "t must be > 0, or n >= 1"),
    (lambda: _ldi(t=None, n=0), ValueError, "t must be > 0, or n >= 1"),
    (lambda: td.ldi_xstar_objective(_ldi(), 0.0), ValueError, "s must be > 0"),
    (lambda: td.thermo_exponent(-1.0, 10.0, 1.0, 2), ValueError, "need u >= 0 and t > 0"),
    (lambda: tl.EdgeLengthProcessLimit(1.0, 2, 1.0).order_statistic_survival(0, 1.0),
     ValueError, "m must be >= 1"),
    (lambda: tm.expectation_bounds(BOX, 10.0, 0.1, -2.0), NonIntegrableError,
     "alpha must exceed -d"),
    (lambda: tm.sigma_matrix([1.0, 1.0], 2, 1.0, tm.RegimeSchedule(1.0, 0.5)), ValueError,
     "alphas must be distinct"),
    (lambda: tm.sigma_matrix([-1.5, 1.0], 2, 1.0, tm.RegimeSchedule(1.0, 0.5)), ValueError,
     "alphas must exceed -d/2"),
    (lambda: tm.m_bounds(BOX, 10.0, 0.1, -1.0, 1.0), DivergentCovarianceError,
     r"require alpha, beta > -d/2"),
], ids=["unit_ball_volume", "window_dim", "box_sides", "inner_parallel_delta",
        "covariogram_y", "box_angular_dim", "radial_integral_delta", "ks_empty",
        "clopper_pearson_k", "build_edges_delta", "bruteforce_delta", "batch_delta",
        "poisson_tail_a",
        "poisson_tail_y", "binomial_tail_m", "binomial_tail_p", "ldi_alpha", "ldi_median",
        "ldi_delta", "ldi_t", "ldi_n", "xstar_objective_s", "thermo_exponent",
        "order_statistic_m", "expectation_bounds_alpha", "sigma_distinct", "sigma_alphas",
        "m_bounds_alpha"])
def test_argument_check_raises_its_type(call, error, message):
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error
