"""Gilbert graph edges at radius delta and edge-derived statistics.

build_edges is the performance core: scipy's kd-tree, built unbalanced
(cKDTree(..., balanced_tree=False) builds and queries faster and lists the
same pairs), lists candidate pairs within a radius widened by a relative
1e-12 (query_pairs), and an exact re-filter keeps those whose canonical
length is <= delta. build_edges_bruteforce is the O(n^2) oracle with the
same output contract.

The one canonical length formula is _pair_distance: the squared coordinate
differences added left to right, one column at a time,
sqrt(((dx0^2 + dx1^2) + dx2^2) + ...), each column gathered from a
contiguous (d, n) copy of the points. Every edge length and the oracle's
<= delta mask come from it, so the results agree bitwise, ties at exactly
delta included.

Candidate pairs are put in (i, j) order by sorting one fused key i*n + j. The
key is int32 when n^2 <= int32 max (n <= 46340) and int64 above; EdgeSet's
i and j are int64 either way, written over query_pairs' own (m, 2) buffer.

The reductions take a length power once per alpha: a caller raises the
lengths to alpha and hands the same array to the sum and to
_smallest_powers.

scipy.spatial is imported inside build_edges, so importing this module (and
the CLI) loads none of scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .point_process import PointSample

_INT32_MAX = int(np.iinfo(np.int32).max)
_BRUTE_BLOCK = 512  # rows per all-pairs distance block in the oracle


@dataclass(frozen=True, eq=False)
class EdgeSet:
    """Edges (i < j) with their Euclidean lengths, all <= delta. Only the benchmark's
    oracle check still reads `sample`; nothing in the package does."""

    i: np.ndarray  # int64
    j: np.ndarray  # int64
    lengths: np.ndarray  # float64
    sample: PointSample

    @property
    def n_edges(self) -> int:
        return self.i.shape[0]

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        return [(int(a), int(b), float(l)) for a, b, l in zip(self.i, self.j, self.lengths)]


def _pair_distance(points: np.ndarray, a, b) -> np.ndarray:
    """Canonical edge length formula; every EdgeSet's lengths come from here.

    The squared coordinate differences are added left to right, one column at
    a time: sqrt(((dx0^2 + dx1^2) + dx2^2) + ...). Each column is gathered from
    a contiguous (d, n) copy of the points. a and b are index arrays that
    broadcast against each other.
    """
    def squared_diff(c):
        dx = c.take(a) - c.take(b)
        dx *= dx
        return dx

    first, *rest = np.ascontiguousarray(points.T)
    sq = squared_diff(first)
    for c in rest:
        sq += squared_diff(c)
    return np.sqrt(sq, out=sq)


def _sorted_pairs(pairs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unique int64 pairs a < b of vertices 0..n-1, sorted by (a, b): (i, j).

    The pairs are unique, so sorting the fused key a*n + b orders them
    lexicographically; the key is int32 whenever n^2 fits. i and j are
    written over the (m, 2) pairs array's buffer, which the key has replaced.
    """
    dtype = np.int32 if n * n <= _INT32_MAX else np.int64
    key = np.multiply(pairs[:, 0], n, dtype=dtype)
    np.add(key, pairs[:, 1], out=key, dtype=dtype)
    key.sort()
    i, j = pairs.reshape(2, -1)
    q = key // n  # numpy divides by a scalar fastest in the key's own dtype
    i[...] = q
    q *= n
    np.subtract(key, q, out=j)
    return i, j


def build_edges(sample: PointSample, delta: float) -> EdgeSet:
    """Exact edge set: kd-tree candidates, re-filtered at length <= delta."""
    if not (delta > 0):
        raise ValueError("delta must be > 0")
    from scipy.spatial import cKDTree  # slow to import; a box predict needs none of it

    pts = sample.points
    # The tree rounds its distances its own way; the widened radius keeps every
    # pair whose canonical length is <= delta among the candidates. An
    # unbalanced tree builds and queries faster and finds the same pairs.
    pairs = cKDTree(pts, balanced_tree=False).query_pairs(delta * (1 + 1e-12),
                                                          output_type="ndarray")
    # query_pairs yields i < j
    i, j = _sorted_pairs(pairs, pts.shape[0])
    lengths = _pair_distance(pts, i, j)
    keep = lengths <= delta
    if not keep.all():
        i, j, lengths = i[keep], j[keep], lengths[keep]
    return EdgeSet(i=i, j=j, lengths=lengths, sample=sample)


def build_edges_bruteforce(sample: PointSample, delta: float) -> EdgeSet:
    """All-pairs oracle; same output contract and sort order as build_edges.

    Blocks of rows are scanned in order and np.nonzero lists each block's
    pairs row-major, so the pairs come out sorted by (i, j) without a sort.
    """
    if not (delta > 0):
        raise ValueError("delta must be > 0")
    pts = sample.points
    n = pts.shape[0]
    cols = np.arange(n)[None, :]
    # the empty int64 seeds fix the output dtypes and cover n < 2
    pair_i: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    pair_j: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    lengths: list[np.ndarray] = [np.zeros(0)]
    for i0 in range(0, n, _BRUTE_BLOCK):
        rows = np.arange(i0, min(i0 + _BRUTE_BLOCK, n))[:, None]
        dist = _pair_distance(pts, rows, cols)
        mask = (dist <= delta) & (cols > rows)
        a, b = np.nonzero(mask)
        pair_i.append(a + i0)
        pair_j.append(b)
        lengths.append(dist[mask])
    return EdgeSet(i=np.concatenate(pair_i), j=np.concatenate(pair_j),
                   lengths=np.concatenate(lengths), sample=sample)


def length_power(edges: EdgeSet, alphas) -> np.ndarray:
    """Sum of length^alpha over edges, one entry per alpha in alphas.

    Equals the half-sum over ordered distinct pairs within delta, since each
    unordered edge is stored once.
    """
    out = np.zeros(len(alphas))
    for k, alpha in enumerate(alphas):
        out[k] = float(np.sum(edges.lengths**alpha))
    return out


def max_degree(edges: EdgeSet) -> int:
    """The largest vertex degree; edges.i must be sorted, as build_edges and
    build_edges_bruteforce leave it."""
    if edges.n_edges == 0:
        return 0
    deg = np.bincount(edges.j)  # i < j, so every endpoint lies below deg.size
    deg += np.diff(np.searchsorted(edges.i, np.arange(deg.size + 1)))
    return int(deg.max())


def _smallest_powers(powers: np.ndarray, m: int) -> np.ndarray:
    """m smallest of the given length powers, sorted, +inf padded."""
    out = np.full(m, np.inf)
    if powers.size == 0:
        return out
    k = min(m, powers.size)
    out[:k] = np.sort(np.partition(powers, k - 1)[:k])
    return out
