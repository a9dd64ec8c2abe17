"""Edge enumeration and edge statistics against the brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gilbertsim import geometry as geo
from gilbertsim import gilbert_graph as gg
from gilbertsim import point_process as pp

W2 = geo.ConvexWindow.box((1.0, 1.0))


def make_sample(points, window=W2):
    pts = np.asarray(points, dtype=float)
    return pp.PointSample(points=pts, window=window, model="binomial", size=len(pts))


def test_three_point_example():
    s = make_sample([[0.0, 0.0], [0.05, 0.0], [0.5, 0.5]])
    for build in (gg.build_edges, gg.build_edges_bruteforce):
        e = build(s, 0.1)
        assert e.edges == [(0, 1, 0.05)]


def test_trivial_sizes():
    assert gg.build_edges(make_sample(np.zeros((0, 2))), 0.1).n_edges == 0
    assert gg.build_edges(make_sample([[0.5, 0.5]]), 0.1).n_edges == 0


def test_tie_at_delta_included():
    s = make_sample([[0.0, 0.0], [0.25, 0.0]])
    for build in (gg.build_edges, gg.build_edges_bruteforce):
        assert build(s, 0.25).n_edges == 1
        assert build(s, 0.2499999).n_edges == 0


def edgesets_identical(a, b):
    return (np.array_equal(a.i, b.i) and np.array_equal(a.j, b.j)
            and np.array_equal(a.lengths, b.lengths))


def test_oracle_equivalence_random_configs():
    rng = np.random.default_rng(202)
    for trial in range(25):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 800))
        if rng.random() < 0.6:
            w = geo.ConvexWindow.box(tuple(rng.uniform(0.5, 2.0, d)))
        else:
            w = geo.ConvexWindow.ball(float(rng.uniform(0.4, 1.2)), d)
        s = pp.sample_binomial(w, n, pp.replication_rng(303, trial))
        delta = float(rng.uniform(0.005, 0.9))
        assert edgesets_identical(gg.build_edges(s, delta),
                                  gg.build_edges_bruteforce(s, delta))


@st.composite
def windows(draw):
    d = draw(st.integers(1, 3))
    if draw(st.booleans()):
        return geo.ConvexWindow.box(tuple(draw(st.floats(0.2, 2.0)) for _ in range(d)))
    return geo.ConvexWindow.ball(draw(st.floats(0.2, 1.5)), d)


def snap_to_boundary(window, pts, rows, axes):
    """Move the given rows onto the window boundary (box: one face per row)."""
    for k, axis in zip(rows, axes):
        if window.kind == "box":
            side = window.sides[axis % window.dim]
            pts[k, axis % window.dim] = 0.0 if axis >= window.dim else side
        elif np.any(pts[k]):
            pts[k] *= window.radius / np.linalg.norm(pts[k])


@settings(max_examples=150, deadline=None)
@given(window=windows(), n=st.integers(2, 150), seed=st.integers(0, 2**32 - 1),
       delta=st.floats(0.005, 1.5), snap=st.data())
def test_property_fast_search_equals_oracle(window, n, seed, delta, snap):
    pts = geo.sample_uniform(window, np.random.default_rng(seed), n)
    rows = snap.draw(st.lists(st.integers(0, n - 1), max_size=n))
    axes = snap.draw(st.lists(st.integers(0, 2 * window.dim - 1),
                              min_size=len(rows), max_size=len(rows)))
    snap_to_boundary(window, pts, rows, axes)
    s = make_sample(pts, window)
    assert edgesets_identical(gg.build_edges(s, delta), gg.build_edges_bruteforce(s, delta))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 3), m=st.integers(2, 6), spacing=st.floats(0.01, 0.5),
       origin=st.floats(0.0, 1.0), diagonal=st.integers(1, 3))
def test_property_lattice_ties_at_delta(d, m, spacing, origin, diagonal):
    # neighbors at distance exactly delta (up to rounding of the coordinates):
    # the axis spacing for diagonal=1, the face/body diagonals for 2 and 3
    grid = np.stack(np.meshgrid(*[np.arange(m)] * d, indexing="ij"), -1).reshape(-1, d)
    pts = origin + spacing * grid
    delta = spacing * math.sqrt(min(diagonal, d))
    window = geo.ConvexWindow.box((origin + spacing * m,) * d)
    s = make_sample(pts, window)
    fast = gg.build_edges(s, delta)
    assert edgesets_identical(fast, gg.build_edges_bruteforce(s, delta))
    assert np.all(fast.lengths <= delta)


def test_delta_larger_than_window_single_cell():
    s = pp.sample_binomial(W2, 40, pp.replication_rng(4, 0))
    assert edgesets_identical(gg.build_edges(s, 5.0), gg.build_edges_bruteforce(s, 5.0))
    assert gg.build_edges(s, 5.0).n_edges == 40 * 39 // 2


def test_monotonicity_in_delta():
    s = pp.sample_binomial(W2, 300, pp.replication_rng(5, 0))
    small = gg.build_edges(s, 0.05)
    big = gg.build_edges(s, 0.08)
    small_set = set(zip(small.i.tolist(), small.j.tolist()))
    big_set = set(zip(big.i.tolist(), big.j.tolist()))
    assert small_set <= big_set


def test_rigid_motion_and_scaling_invariance():
    rng = np.random.default_rng(17)
    pts = rng.random((120, 2))
    delta = 0.1
    dists = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    iu = np.triu_indices(120, 1)
    # keep a safety margin so float rotations cannot flip edge membership
    assert np.min(np.abs(dists[iu] - delta)) > 1e-6
    base = gg.build_edges(make_sample(pts), delta)
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    big = geo.ConvexWindow.box((4.0, 4.0))
    moved = make_sample(pts @ rot.T + np.array([1.3, 0.9]), big)
    rotated = gg.build_edges(moved, delta)
    assert rotated.n_edges == base.n_edges  # L^(0) invariant under rigid motions
    assert gg.length_power(rotated, (1.0,))[0] == pytest.approx(
        gg.length_power(base, (1.0,))[0], rel=1e-9)
    # exact scaling by a power of two: L^(alpha) multiplies by s^alpha exactly
    scaled = gg.build_edges(make_sample(2.0 * pts, big), 2.0 * delta)
    assert np.array_equal(scaled.i, base.i) and np.array_equal(scaled.j, base.j)
    for alpha in (0.0, 1.0, 2.0):
        assert gg.length_power(scaled, (alpha,))[0] == pytest.approx(
            2.0**alpha * gg.length_power(base, (alpha,))[0], rel=1e-12)


def test_length_power_examples():
    s = make_sample([[0.0, 0.0], [0.05, 0.0], [0.5, 0.5]])
    e = gg.build_edges(s, 0.1)
    vals = gg.length_power(e, (0.0, 1.0, 2.0))
    assert vals == pytest.approx([1.0, 0.05, 0.0025])
    empty = gg.build_edges(make_sample([[0.1, 0.1]]), 0.1)
    assert np.all(gg.length_power(empty, (0.0, 1.0)) == 0.0)


def test_length_power_hand_enumeration():
    # 3-4-5 right triangle: pairwise lengths 0.03, 0.04, 0.05
    pts = np.array([[0.0, 0.0], [0.03, 0.0], [0.03, 0.04]])
    e = gg.build_edges(make_sample(pts), 0.1)
    assert e.n_edges == 3
    assert gg.length_power(e, (1.0,))[0] == pytest.approx(0.03 + 0.04 + 0.05, rel=1e-12)


def test_local_statistic_identity_and_degree():
    s = pp.sample_binomial(W2, 200, pp.replication_rng(6, 0))
    delta = 0.1
    e = gg.build_edges(s, delta)
    for alpha in (0.0, 1.0):
        total = sum(gg.local_statistic(s, i, delta, alpha) for i in range(s.n_points))
        assert 0.5 * total == pytest.approx(gg.length_power(e, (alpha,))[0], rel=1e-9)
    deg = np.bincount(e.i, minlength=200) + np.bincount(e.j, minlength=200)
    for i in (0, 17, 100):
        assert gg.local_statistic(s, i, delta, 0.0) == deg[i]
    lonely = make_sample([[0.0, 0.0], [0.9, 0.9]])
    assert gg.local_statistic(lonely, 0, 0.1, 1.0) == 0.0


def test_max_degree():
    single = gg.build_edges(make_sample([[0.0, 0.0], [0.05, 0.0]]), 0.1)
    assert gg.max_degree(single) == 1
    star = make_sample([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5], [0.5, 0.55], [0.5, 0.45]])
    assert gg.max_degree(gg.build_edges(star, 0.06)) == 4
    s = pp.sample_binomial(W2, 400, pp.replication_rng(7, 1))
    e1 = gg.build_edges(s, 0.07)
    e2 = gg.build_edges_bruteforce(s, 0.07)
    def degrees(e):
        return np.bincount(e.i, minlength=400) + np.bincount(e.j, minlength=400)
    assert np.array_equal(degrees(e1), degrees(e2))
    assert gg.max_degree(e1) == gg.max_degree(e2)


def test_order_statistics():
    s = make_sample([[0.0, 0.0], [0.05, 0.0], [0.05, 0.035]])
    e = gg.build_edges(s, 0.06)  # lengths 0.05 and 0.035 (third pair at ~0.061)
    got = gg._smallest_powers(e.lengths, 2.0, 3)
    assert got[0] == pytest.approx(0.035**2)
    assert got[1] == pytest.approx(0.0025)
    assert math.isinf(got[2])
    empty = gg.build_edges(make_sample([[0.0, 0.0]]), 0.1)
    assert np.all(np.isinf(gg._smallest_powers(empty.lengths, 1.0, 4)))


def test_order_statistics_match_sorted_oracle():
    rng = np.random.default_rng(88)
    for trial in range(20):
        s = pp.sample_binomial(W2, int(rng.integers(5, 200)), pp.replication_rng(99, trial))
        e = gg.build_edges(s, 0.15)
        alpha = float(rng.uniform(0.5, 3.0))
        got = gg._smallest_powers(e.lengths, alpha, 1)
        oracle = np.min(e.lengths) ** alpha if e.n_edges else math.inf
        assert got[0] == pytest.approx(oracle) or (math.isinf(got[0]) and math.isinf(oracle))


@pytest.mark.parametrize("size", [0, 1, 3, 5, 6, 40])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_smallest_powers_match_full_sort(size, alpha):
    # ties: lengths repeat, and alpha = 0 makes every power 1
    rng = np.random.default_rng(size)
    lengths = rng.choice([0.01, 0.02, 0.03, 0.04], size=size)
    got = gg._smallest_powers(lengths, alpha, 5)
    want = np.full(5, np.inf)
    k = min(5, size)
    want[:k] = np.sort(lengths**alpha)[:k]
    assert np.array_equal(got, want)
