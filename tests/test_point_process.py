"""Poisson/binomial sampling: distributional checks and reproducibility."""

import math

import numpy as np
import pytest

from gilbertsim import geometry as geo
from gilbertsim import point_process as pp

W = geo.ConvexWindow.box((1.0, 1.0))


def test_poisson_count_mean_and_variance():
    t = 100.0
    reps = 10_000
    counts = np.array([pp.sample_poisson(W, t, pp.replication_rng(5, r)).n_points
                       for r in range(reps)])
    mean_tol = 4.0 * math.sqrt(t / reps)
    assert abs(counts.mean() - t) <= mean_tol
    assert abs(counts.var(ddof=1) - t) <= 0.10 * t


def test_poisson_counts_independent_on_disjoint_halves():
    reps = 10_000
    left = np.empty(reps)
    right = np.empty(reps)
    for r in range(reps):
        s = pp.sample_poisson(W, 50.0, pp.replication_rng(6, r))
        left[r] = np.count_nonzero(s.points[:, 0] < 0.5)
        right[r] = s.n_points - left[r]
    corr = np.corrcoef(left, right)[0, 1]
    assert abs(corr) <= 0.03


def test_binomial_count_exact_and_uniform():
    for r in range(20):
        s = pp.sample_binomial(W, 5, pp.replication_rng(7, r))
        assert s.n_points == 5
    s = pp.sample_binomial(W, 10_000, pp.replication_rng(8, 0))
    se = 1.0 / math.sqrt(12.0 * 10_000)
    assert np.all(np.abs(s.points.mean(axis=0) - 0.5) <= 3.0 * se)


def test_pair_distance_probability_matches_covariogram_integral():
    # P(||X1 - X2|| <= delta) = int g_W 1(||y||<=delta) dy / V^2
    delta = 0.2
    p = geo.covariogram_radial_integral(W, delta, 0.0) / W.volume**2
    reps = 100_000
    hits = 0
    for r in range(reps):
        s = pp.sample_binomial(W, 2, pp.replication_rng(9, r))
        hits += float(np.linalg.norm(s.points[0] - s.points[1])) <= delta
    phat = hits / reps
    assert abs(phat - p) <= 3.0 * math.sqrt(p * (1.0 - p) / reps)


def test_determinism_same_seed_same_sample():
    a = pp.sample_poisson(W, 200.0, pp.replication_rng(42, 3))
    b = pp.sample_poisson(W, 200.0, pp.replication_rng(42, 3))
    assert np.array_equal(a.points, b.points)
    c = pp.sample_poisson(W, 200.0, pp.replication_rng(42, 4))
    assert a.n_points != c.n_points or not np.array_equal(a.points, c.points)


def test_streams_are_disjoint():
    a = pp.sample_poisson(W, 200.0, pp.replication_rng(42, 0, stream=pp.STREAM_SAMPLE))
    b = pp.sample_poisson(W, 200.0, pp.replication_rng(42, 0, stream=pp.STREAM_PILOT))
    assert a.n_points != b.n_points or not np.array_equal(a.points, b.points)


class _DupRng:
    """Stub generator: first draw contains an exact duplicate row."""

    def __init__(self):
        self.calls = 0
        self.inner = np.random.default_rng(0)

    def random(self, shape):
        self.calls += 1
        if self.calls == 1:
            pts = self.inner.random(shape)
            pts[1] = pts[0]  # force exact float duplicate
            return pts
        return self.inner.random(shape)


def test_duplicate_points_are_redrawn():
    pts = pp._draw_distinct(W, 4, _DupRng())
    assert pts.shape == (4, 2)
    assert np.unique(pts, axis=0).shape[0] == 4


class _FirstCoordTieRng:
    """Stub generator: distinct rows whose first coordinates collide."""

    def __init__(self):
        self.calls = 0

    def random(self, shape):
        self.calls += 1
        pts = np.random.default_rng(1).random(shape)
        pts[1, 0] = pts[0, 0]
        return pts


def test_distinct_rows_with_tied_first_coordinate_are_kept():
    rng = _FirstCoordTieRng()
    pts = pp._draw_distinct(W, 4, rng)
    assert rng.calls == 1
    assert np.array_equal(pts, _FirstCoordTieRng().random((4, 2)))


def test_sample_metadata():
    s = pp.sample_poisson(W, 10.0, pp.replication_rng(1, 2))
    assert s.model == "poisson" and s.intensity == 10.0
    s2 = pp.sample_binomial(W, 3, pp.replication_rng(1, 0))
    assert s2.model == "binomial" and s2.size == 3
    with pytest.raises(ValueError):
        pp.sample_poisson(W, 0.0, pp.replication_rng(1, 0))
    with pytest.raises(ValueError):
        pp.sample_binomial(W, 0, pp.replication_rng(1, 0))
