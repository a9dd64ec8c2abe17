"""Edge enumeration and edge statistics against the brute-force oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gilbertsim import experiments as ex
from gilbertsim import geometry as geo
from gilbertsim import gilbert_graph as gg
from gilbertsim import point_process as pp

W2 = geo.ConvexWindow.box((1.0, 1.0))


def make_sample(points):
    return pp.PointSample(points=np.asarray(points, dtype=float))


def local_statistic(sample: pp.PointSample, idx: int, delta: float, alpha: float) -> float:
    """Sum of length^alpha over edges incident to vertex idx."""
    pts = sample.points
    n = pts.shape[0]
    if not 0 <= idx < n:
        raise IndexError(f"vertex index {idx} out of range")
    dist = gg._pair_distance(pts, idx, np.arange(n))
    mask = (dist <= delta)
    mask[idx] = False
    if not mask.any():
        return 0.0
    return float(np.sum(dist[mask] ** alpha))


def test_three_point_example():
    s = make_sample([[0.0, 0.0], [0.05, 0.0], [0.5, 0.5]])
    for build in (gg.build_edges, gg.build_edges_bruteforce):
        e = build(s, 0.1)
        assert list(zip(e.i.tolist(), e.j.tolist(), e.lengths.tolist())) == [(0, 1, 0.05)]


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


@settings(max_examples=150)
@given(window=windows(), n=st.integers(2, 150), seed=st.integers(0, 2**32 - 1),
       delta=st.floats(0.005, 1.5), snap=st.data())
def test_property_fast_search_equals_oracle(window, n, seed, delta, snap):
    pts = geo.sample_uniform(window, np.random.default_rng(seed), n)
    rows = snap.draw(st.lists(st.integers(0, n - 1), max_size=n))
    axes = snap.draw(st.lists(st.integers(0, 2 * window.dim - 1),
                              min_size=len(rows), max_size=len(rows)))
    snap_to_boundary(window, pts, rows, axes)
    s = make_sample(pts)
    assert edgesets_identical(gg.build_edges(s, delta), gg.build_edges_bruteforce(s, delta))


@settings(max_examples=100)
@given(d=st.integers(1, 3), m=st.integers(2, 6), spacing=st.floats(0.01, 0.5),
       origin=st.floats(0.0, 1.0), diagonal=st.integers(1, 3))
# a body-diagonal lattice where summing the squares in einsum's order,
# (x^2 + z^2) + y^2, puts some pairs on the other side of delta
@example(d=3, m=4, spacing=0.3379556763015149, origin=0.4227846732701278, diagonal=3)
def test_property_lattice_ties_at_delta(d, m, spacing, origin, diagonal):
    # neighbors at distance exactly delta (up to rounding of the coordinates):
    # the axis spacing for diagonal=1, the face/body diagonals for 2 and 3
    grid = np.stack(np.meshgrid(*[np.arange(m)] * d, indexing="ij"), -1).reshape(-1, d)
    pts = origin + spacing * grid
    delta = spacing * math.sqrt(min(diagonal, d))
    s = make_sample(pts)
    fast = gg.build_edges(s, delta)
    assert edgesets_identical(fast, gg.build_edges_bruteforce(s, delta))
    assert np.all(fast.lengths <= delta)
    # local_statistic decides ties with the same length formula
    deg = np.bincount(fast.i, minlength=len(pts)) + np.bincount(fast.j, minlength=len(pts))
    assert [local_statistic(s, v, delta, 0.0) for v in range(len(pts))] == deg.tolist()


@st.composite
def chunk_samples(draw, window, delta):
    """One sample of a chunk: uniform (some rows snapped to the boundary), a
    lattice whose neighbours lie at exactly delta up to rounding, or a cluster
    whose squared differences underflow; of 0, 1 or many points."""
    d = window.dim
    kind = draw(st.sampled_from(["uniform", "lattice", "underflow"]))
    if kind == "lattice":
        m, k = draw(st.integers(2, 5)), draw(st.integers(1, d))
        grid = np.stack(np.meshgrid(*[np.arange(m)] * d, indexing="ij"), -1).reshape(-1, d)
        # spacing * sqrt(k) = delta: axis, face or body diagonals; squares of
        # 1e150 and more would overflow, as they do for any run at that scale
        spacing = delta / math.sqrt(k) if delta <= 1e150 else 1.0
        return make_sample(draw(st.floats(0.0, 1.0)) + spacing * grid)
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "underflow":  # every squared difference below 1e-320: length 0 or subnormal
        return make_sample(1e-160 * rng.random((n, d)))
    pts = geo.sample_uniform(window, rng, n)
    if n:
        rows = draw(st.lists(st.integers(0, n - 1), max_size=n))
        axes = draw(st.lists(st.integers(0, 2 * d - 1), min_size=len(rows), max_size=len(rows)))
        snap_to_boundary(window, pts, rows, axes)
    return make_sample(pts)


@st.composite
def chunks(draw):
    d = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["box", "ball", "extreme"]))
    if shape == "box":
        window = geo.ConvexWindow.box(tuple(draw(st.floats(0.2, 2.0)) for _ in range(d)))
    elif shape == "ball":
        window = geo.ConvexWindow.ball(draw(st.floats(0.2, 1.5)), d)
    else:  # 1e100 x 1e-100 (x 1)
        window = geo.ConvexWindow.box((1e100, 1e-100, 1.0)[:d])
    delta = draw(st.floats(0.005, 1.5) | st.floats(5e-324, 1e300)
                 | st.sampled_from([5e-324, 1e-300, 1e300]))
    samples = draw(st.lists(chunk_samples(window, delta), min_size=1, max_size=6))
    return samples, delta


@settings(max_examples=200)
@given(chunk=chunks())
# an axis lattice at spacing delta: cells exactly delta wide (no 1e-9 margin)
# put two of its neighbours two cells apart
@example(chunk=([make_sample(0.503676979200579 + 0.487252358377654 * np.arange(6.0)[:, None])],
                0.487252358377654))
def test_property_batch_equals_oracle_per_sample(chunk):
    samples, delta = chunk
    with np.errstate(over="raise", divide="raise", invalid="raise"):  # as cli.main runs
        batch = gg.build_edges_batch(samples, delta)
        oracle = [gg.build_edges_bruteforce(s, delta) for s in samples]
    assert len(batch) == len(samples)
    for sample, got, want in zip(samples, batch, oracle):
        assert got.sample is sample
        assert got.i.dtype == got.j.dtype == np.int64
        assert edgesets_identical(got, want) and got.lengths.tobytes() == want.lengths.tobytes()


@pytest.mark.parametrize("d,delta", [(1, 1e-300), (2, 1e-300), (3, 5e-324), (2, 1e-120)])
def test_batch_grid_stays_small_at_extreme_delta(d, delta):
    # a delta-wide grid over 1e100-wide boxes would have ~1e400 cells per axis;
    # the cap keeps the cast finite and the cell-start table about 4 per point
    window = geo.ConvexWindow.box((1e100, 1e-100, 1.0)[:d])
    samples = [pp.sample_binomial(window, 300, pp.replication_rng(8, r)) for r in range(8)]
    tracemalloc.start()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            batch = gg.build_edges_batch(samples, delta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1000 * 2400  # bytes; 2400 points
    for sample, got in zip(samples, batch):
        assert edgesets_identical(got, gg.build_edges(sample, delta))


@settings(max_examples=200)
@given(d=st.integers(1, 4), data=st.data())
def test_property_pair_distance_is_left_to_right_fold(d, data):
    # pins the canonical formula: sqrt(((dx0^2 + dx1^2) + dx2^2) + ...) per pair,
    # whatever order einsum or a SIMD sum would pick
    n = data.draw(st.integers(1, 12))
    coords = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    pts = np.array(data.draw(st.lists(st.lists(coords, min_size=d, max_size=d),
                                      min_size=n, max_size=n)))
    index = st.lists(st.integers(0, n - 1), min_size=1, max_size=30)
    a = np.array(data.draw(index))
    b = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=len(a), max_size=len(a))))

    def fold(p, q):
        total = 0.0
        for k in range(d):
            diff = float(pts[p, k]) - float(pts[q, k])
            total += diff * diff
        return math.sqrt(total)

    want = np.array([fold(p, q) for p, q in zip(a, b)])
    assert gg._pair_distance(pts, a, b).tobytes() == want.tobytes()
    # the oracle's broadcast form (rows against columns) gives the same bits
    grid = gg._pair_distance(pts, a[:, None], np.arange(n)[None, :])
    assert grid.tobytes() == np.array([[fold(p, q) for q in range(n)] for p in a]).tobytes()


# 46340 is the last n with n^2 <= int32 max, so the last with an int32 key;
# from 46342 on the largest key (n-2)*n + n-1 itself overflows an int32
@pytest.mark.parametrize("n", [46340, 46341, 46342])
def test_sorted_pairs_matches_lexsort_at_key_dtype_boundary(n):
    rng = np.random.default_rng(n)
    a = rng.integers(0, n - 1, 20000)
    b = a + 1 + (rng.random(20000) * (n - 1 - a)).astype(np.int64)
    # the largest keys
    a = np.concatenate([a, [n - 2, n - 3, 0]])
    b = np.concatenate([b, [n - 1, n - 1, n - 1]])
    pairs = np.unique(np.stack([a, b], axis=1), axis=0)
    pairs = pairs[rng.permutation(len(pairs))]
    i, j = gg._sorted_pairs(pairs.copy(), n)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    assert i.dtype == np.int64 and j.dtype == np.int64
    assert np.array_equal(i, pairs[order, 0]) and np.array_equal(j, pairs[order, 1])


# simulate_dense's sample (box:1x1, t = 5000, delta = 5000^-0.3, ~225k edges)
DENSE_T = 5000.0
DENSE_DELTA = DENSE_T**-0.3


@pytest.mark.parametrize("window,t,delta", [
    (W2, DENSE_T, DENSE_DELTA),
    (W2, DENSE_T, DENSE_T**-0.5),  # thermodynamic: t delta^2 = 1
    (geo.ConvexWindow.box((1.0, 1.0, 1.0)), 3000.0, 0.22),  # ~100 neighbors per point
], ids=["dense", "thermodynamic", "box3d"])
def test_oracle_equivalence_at_benchmark_size(window, t, delta):
    s = pp.sample_poisson(window, t, pp.replication_rng(24, 0))
    assert edgesets_identical(gg.build_edges(s, delta), gg.build_edges_bruteforce(s, delta))


def test_dense_build_edges_peaks_below_32_bytes_per_edge():
    # i and j are written over query_pairs' own buffer, which tracemalloc does
    # not see; the int32 key and the length gathers take 24 B per edge, and
    # new int64 i and j arrays would add 16 more
    s = pp.sample_poisson(W2, DENSE_T, pp.replication_rng(24, 1))
    gg.build_edges(s, DENSE_DELTA)  # warm-up: scipy's import and first-call state
    tracemalloc.start()
    try:
        edges = gg.build_edges(s, DENSE_DELTA)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * edges.n_edges


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
    moved = make_sample(pts @ rot.T + np.array([1.3, 0.9]))
    rotated = gg.build_edges(moved, delta)
    assert rotated.n_edges == base.n_edges  # L^(0) invariant under rigid motions
    assert gg.length_power(rotated, (1.0,))[0] == pytest.approx(
        gg.length_power(base, (1.0,))[0], rel=1e-9)
    # exact scaling by a power of two: L^(alpha) multiplies by s^alpha exactly
    scaled = gg.build_edges(make_sample(2.0 * pts), 2.0 * delta)
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
        total = sum(local_statistic(s, i, delta, alpha) for i in range(s.n_points))
        assert 0.5 * total == pytest.approx(gg.length_power(e, (alpha,))[0], rel=1e-9)
    deg = np.bincount(e.i, minlength=200) + np.bincount(e.j, minlength=200)
    for i in (0, 17, 100):
        assert local_statistic(s, i, delta, 0.0) == deg[i]
    lonely = make_sample([[0.0, 0.0], [0.9, 0.9]])
    assert local_statistic(lonely, 0, 0.1, 1.0) == 0.0


def test_max_degree():
    single = gg.build_edges(make_sample([[0.0, 0.0], [0.05, 0.0]]), 0.1)
    assert gg.max_degree(single) == 1
    star = make_sample([[0.5, 0.5], [0.55, 0.5], [0.45, 0.5], [0.5, 0.55], [0.5, 0.45]])
    assert gg.max_degree(gg.build_edges(star, 0.06)) == 4
    isolated_last = make_sample([[0.0, 0.0], [0.05, 0.0], [0.9, 0.9]])
    assert gg.max_degree(gg.build_edges(isolated_last, 0.1)) == 1
    s = pp.sample_binomial(W2, 400, pp.replication_rng(7, 1))
    e1 = gg.build_edges(s, 0.07)
    e2 = gg.build_edges_bruteforce(s, 0.07)
    def degrees(e):
        return np.bincount(e.i, minlength=400) + np.bincount(e.j, minlength=400)
    assert np.array_equal(degrees(e1), degrees(e2))
    assert gg.max_degree(e1) == gg.max_degree(e2) == degrees(e1).max()


def test_order_statistics():
    s = make_sample([[0.0, 0.0], [0.05, 0.0], [0.05, 0.035]])
    e = gg.build_edges(s, 0.06)  # lengths 0.05 and 0.035 (third pair at ~0.061)
    got = ex._smallest_powers(e.lengths**2.0, 3)
    assert got[0] == pytest.approx(0.035**2)
    assert got[1] == pytest.approx(0.0025)
    assert math.isinf(got[2])
    empty = gg.build_edges(make_sample([[0.0, 0.0]]), 0.1)
    assert np.all(np.isinf(ex._smallest_powers(empty.lengths**1.0, 4)))


def test_order_statistics_match_sorted_oracle():
    rng = np.random.default_rng(88)
    for trial in range(20):
        s = pp.sample_binomial(W2, int(rng.integers(5, 200)), pp.replication_rng(99, trial))
        e = gg.build_edges(s, 0.15)
        alpha = float(rng.uniform(0.5, 3.0))
        got = ex._smallest_powers(e.lengths**alpha, 1)
        oracle = np.min(e.lengths) ** alpha if e.n_edges else math.inf
        assert got[0] == pytest.approx(oracle) or (math.isinf(got[0]) and math.isinf(oracle))


@pytest.mark.parametrize("size", [0, 1, 3, 5, 6, 40])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.5])
def test_smallest_powers_match_full_sort(size, alpha):
    # ties: lengths repeat, and alpha = 0 makes every power 1
    rng = np.random.default_rng(size)
    lengths = rng.choice([0.01, 0.02, 0.03, 0.04], size=size)
    got = ex._smallest_powers(lengths**alpha, 5)
    want = np.full(5, np.inf)
    k = min(5, size)
    want[:k] = np.sort(lengths**alpha)[:k]
    assert np.array_equal(got, want)
