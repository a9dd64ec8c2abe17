"""Gilbert graph edges at radius delta and edge-derived statistics.

build_edges is the performance core: scipy's kd-tree (cKDTree.query_pairs)
lists candidate pairs within a radius widened by a relative 1e-12, and an
exact re-filter keeps those whose canonical length is <= delta.
build_edges_bruteforce is the O(n^2) oracle with the same output contract;
both take their final edge lengths from one canonical formula, so the results
agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .point_process import PointSample


@dataclass(frozen=True, eq=False)
class EdgeSet:
    """Edges (i < j) with their Euclidean lengths, all <= delta."""

    i: np.ndarray  # int64
    j: np.ndarray  # int64
    lengths: np.ndarray  # float64
    delta: float
    sample: PointSample

    @property
    def n_edges(self) -> int:
        return self.i.shape[0]

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [(int(a), int(b), float(l)) for a, b, l in zip(self.i, self.j, self.lengths)]


@dataclass(frozen=True)
class LengthPowerSpec:
    """Distinct length-power exponents; admissible range depends on consumer."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        if len(set(self.alphas)) != len(self.alphas):
            raise ValueError("alphas must be distinct")
        if not self.alphas:
            raise ValueError("alphas must be non-empty")


def _pair_distance(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Canonical edge length formula; every EdgeSet's lengths come from here."""
    diff = points.take(a, axis=0) - points.take(b, axis=0)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _canonical_edgeset(points: np.ndarray, a: np.ndarray, b: np.ndarray,
                       delta: float, sample: PointSample) -> EdgeSet:
    """Orient i<j, sort by (i, j), compute lengths in one canonical pass."""
    i = np.minimum(a, b).astype(np.int64)
    j = np.maximum(a, b).astype(np.int64)
    # pairs are unique, so one fused key sorts lexicographically by (i, j)
    order = np.argsort(i * np.int64(points.shape[0]) + j)
    i = i[order]
    j = j[order]
    return EdgeSet(i=i, j=j, lengths=_pair_distance(points, i, j),
                   delta=float(delta), sample=sample)


def _empty_edgeset(delta: float, sample: PointSample) -> EdgeSet:
    z = np.zeros(0, dtype=np.int64)
    return EdgeSet(i=z, j=z.copy(), lengths=np.zeros(0), delta=float(delta), sample=sample)


def build_edges(sample: PointSample, delta: float) -> EdgeSet:
    """Exact edge set: kd-tree candidates, re-filtered at length <= delta."""
    if not (delta > 0):
        raise ValueError("delta must be > 0")
    pts = sample.points
    n = pts.shape[0]
    # The tree rounds its distances its own way; the widened radius keeps every
    # pair whose canonical length is <= delta among the candidates.
    pairs = cKDTree(pts).query_pairs(delta * (1 + 1e-12), output_type="ndarray")
    # query_pairs yields i < j, so the sorted fused key orders pairs by (i, j)
    i, j = np.divmod(np.sort(pairs[:, 0] * np.int64(n) + pairs[:, 1]), n)
    lengths = _pair_distance(pts, i, j)
    keep = lengths <= delta
    return EdgeSet(i=i[keep], j=j[keep], lengths=lengths[keep], delta=float(delta),
                   sample=sample)


def build_edges_bruteforce(sample: PointSample, delta: float, block: int = 512) -> EdgeSet:
    """All-pairs oracle; same output contract and sort order as build_edges."""
    if not (delta > 0):
        raise ValueError("delta must be > 0")
    pts = sample.points
    n = pts.shape[0]
    if n < 2:
        return _empty_edgeset(delta, sample)
    pair_a: list[np.ndarray] = []
    pair_b: list[np.ndarray] = []
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        diff = pts[i0:i1, None, :] - pts[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        rows = np.arange(i0, i1)[:, None]
        cols = np.arange(n)[None, :]
        mask = (dist <= delta) & (cols > rows)
        a, b = np.nonzero(mask)
        pair_a.append(a + i0)
        pair_b.append(b)
    a = np.concatenate(pair_a)
    b = np.concatenate(pair_b)
    if a.size == 0:
        return _empty_edgeset(delta, sample)
    return _canonical_edgeset(pts, a, b, delta, sample)


def length_power(edges: EdgeSet, spec) -> np.ndarray:
    """Sum of length^alpha over edges, one entry per alpha.

    Equals the half-sum over ordered distinct pairs within delta, since each
    unordered edge is stored once.
    """
    alphas = spec.alphas if isinstance(spec, LengthPowerSpec) else tuple(spec)
    out = np.zeros(len(alphas))
    if edges.n_edges == 0:
        return out
    for k, alpha in enumerate(alphas):
        out[k] = float(np.sum(edges.lengths**alpha))
    return out


def local_statistic(sample: PointSample, idx: int, delta: float, alpha: float) -> float:
    """Sum of length^alpha over edges incident to vertex idx."""
    pts = sample.points
    n = pts.shape[0]
    if not 0 <= idx < n:
        raise IndexError(f"vertex index {idx} out of range")
    diff = pts - pts[idx]
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    mask = (dist <= delta)
    mask[idx] = False
    if not mask.any():
        return 0.0
    return float(np.sum(dist[mask] ** alpha))


def max_degree(edges: EdgeSet) -> int:
    if edges.n_edges == 0:
        return 0
    n = edges.sample.n_points
    deg = np.bincount(edges.i, minlength=n) + np.bincount(edges.j, minlength=n)
    return int(deg.max())


def degree_histogram(edges: EdgeSet) -> np.ndarray:
    """Counts of vertices by degree (index = degree)."""
    n = edges.sample.n_points
    if edges.n_edges == 0:
        return np.array([n], dtype=np.int64)
    deg = np.bincount(edges.i, minlength=n) + np.bincount(edges.j, minlength=n)
    return np.bincount(deg)


def _smallest_powers(lengths: np.ndarray, alpha: float, m: int) -> np.ndarray:
    """m smallest values of length^alpha, +inf padded (no exponent checks)."""
    out = np.full(m, np.inf)
    if lengths.size == 0:
        return out
    powers = lengths**alpha
    k = min(m, powers.size)
    out[:k] = np.sort(np.partition(powers, k - 1)[:k])
    return out


def edge_length_order_statistics(edges: EdgeSet, alpha: float, m: int) -> np.ndarray:
    """m smallest edge length powers in nondecreasing order, +inf padded."""
    if not (alpha > 0):
        raise ValueError("alpha must be > 0 for order statistics")
    if m < 1:
        raise ValueError("m must be >= 1")
    return _smallest_powers(edges.lengths, alpha, m)
