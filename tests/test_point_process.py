"""Poisson/binomial sampling: distributional checks and reproducibility."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _oracle_state_and_draws(rng: np.random.Generator) -> tuple:
    state = rng.bit_generator.state
    return (state, rng.poisson(3.0, 3).tolist(), rng.random(2).tolist(),
            rng.standard_normal(2).tolist(), rng.integers(0, 2**40, 2).tolist())


WORD = 2**32


@settings(max_examples=300)
@given(seed=st.one_of(st.just(0), st.integers(0, WORD**4 - 1), st.integers(WORD**4, WORD**7)),
       stream=st.one_of(st.integers(0, 2), st.integers(0, WORD**2)),
       batch=st.one_of(st.integers(0, 300), st.integers(0, WORD**2)),
       replications=st.lists(st.one_of(st.integers(0, 500), st.integers(WORD, WORD**3)),
                             min_size=1, max_size=4))
# seeds of 0, 1, 4 and 5 words; stream and batch at 2^32; r = 0 and r >= 2^32, in
# either order, so a replication with fewer words follows one with more
@example(seed=0, stream=0, batch=0, replications=[0, 1])
@example(seed=WORD - 1, stream=WORD, batch=0, replications=[WORD, 0])
@example(seed=WORD**4 - 1, stream=1, batch=WORD, replications=[0, WORD**2 + 5])
@example(seed=WORD**4, stream=2, batch=WORD**2 - 1, replications=[399, WORD - 1, WORD])
def test_property_replication_rngs_are_numpys_seed_sequence(seed, stream, batch, replications):
    # each generator's PCG64 state and first draws equal those of numpy's
    # default_rng(SeedSequence(seed, spawn_key=(stream, batch, r))); the one
    # generator replication_rngs reuses is read before it moves on
    got = [_oracle_state_and_draws(rng)
           for rng in pp.replication_rngs(seed, replications, stream, batch)]
    want = [_oracle_state_and_draws(np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(stream, batch, r)))) for r in replications]
    assert got == want
    alone = pp.replication_rng(seed, replications[-1], stream, batch)
    assert _oracle_state_and_draws(alone) == want[-1]


@pytest.mark.parametrize("seed,stream,batch,replication",
                         [(-1, 0, 0, 0), (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1)])
def test_negative_seed_or_key_raises_as_numpy_does(seed, stream, batch, replication):
    with pytest.raises(ValueError):
        np.random.SeedSequence(seed, spawn_key=(stream, batch, replication))
    with pytest.raises(ValueError):
        pp.replication_rng(seed, replication, stream, batch)


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
    assert pp.sample_binomial(W, 3, pp.replication_rng(1, 0)).n_points == 3
    with pytest.raises(ValueError):
        pp.sample_poisson(W, 0.0, pp.replication_rng(1, 0))
    with pytest.raises(ValueError):
        pp.sample_binomial(W, 0, pp.replication_rng(1, 0))
