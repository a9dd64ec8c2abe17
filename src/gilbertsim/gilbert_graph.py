"""Gilbert graph edges at radius delta and edge-derived statistics.

Two functions list the same edge sets. build_edges takes one sample: scipy's
kd-tree, built unbalanced (cKDTree(..., balanced_tree=False) builds and
queries faster and lists the same pairs), lists candidate pairs within a
radius widened by a relative 1e-12 (query_pairs), and an exact re-filter
keeps those whose canonical length is <= delta. build_edges_batch takes a
chunk of samples as one (n, d) points buffer and each sample's point count,
and lists candidates from one numpy cell grid over all of them, which saves
scipy's fixed cost per sample: it is the faster of the two on sparse samples,
one large sample or many small ones, and the kd-tree on dense ones
(experiments.run_replications picks). It returns an EdgeChunk, the chunk's
edges in flat arrays with each sample's edges one stretch of them; a sample's
own EdgeSet, numbered from its first point, is made only when asked for
(EdgeChunk.edge_set). build_edges_bruteforce is the O(n^2) oracle with
build_edges' output contract.

The one canonical length formula is _pair_distance: the squared coordinate
differences added left to right, one column at a time,
sqrt(((dx0^2 + dx1^2) + dx2^2) + ...), each column gathered from a
contiguous (d, n) copy of the points. Every edge length and the oracle's
<= delta mask come from it, so the results agree bitwise, ties at exactly
delta included.

Candidate pairs are put in (i, j) order by sorting one fused key i*n + j. The
key is int32 when n^2 <= int32 max (n <= 46340) and int64 above; EdgeSet's
i and j are int64 either way, written over query_pairs' own (m, 2) buffer.

scipy.spatial is imported inside build_edges, so importing this module (and
the CLI), or building edges with build_edges_batch, loads none of scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .point_process import PointSample

_INT32_MAX = int(np.iinfo(np.int32).max)
_BRUTE_BLOCK = 512  # rows per all-pairs distance block in the oracle
# build_edges_batch's grid: cells per point of a sample, the most cells on one
# axis (so a cell coordinate is off by far less than the 1e-9 margin), and the
# smallest cell side (a pair whose squares underflow has length 0 at any delta)
_CELLS_PER_POINT = 4
_MAX_CELLS_PER_AXIS = 2**16
_MIN_CELL = 2.0**-490


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


@dataclass(frozen=True, eq=False)
class EdgeChunk:
    """The edges of a chunk of samples in flat arrays: sample k is rows
    offsets[k]..offsets[k+1]-1 of the (n, d) points buffer, and its edges are
    entries bounds[k]..bounds[k+1]-1 of i, j (int64 rows of the buffer, i < j,
    sorted by (i, j)) and lengths."""

    points: np.ndarray
    offsets: list[int]
    i: np.ndarray
    j: np.ndarray
    lengths: np.ndarray
    bounds: list[int]

    def stretches(self, values: np.ndarray) -> list[np.ndarray]:
        """Each sample's stretch of values, an array with an entry per edge of the chunk."""
        return [values[e0:e1] for e0, e1 in zip(self.bounds, self.bounds[1:])]

    def edge_set(self, k: int) -> EdgeSet:
        """Sample k's EdgeSet, its vertices numbered from the sample's first point."""
        p0, p1 = self.offsets[k:k + 2]
        e0, e1 = self.bounds[k:k + 2]
        i, j = self.i[e0:e1], self.j[e0:e1]
        if p0:
            i, j = i - p0, j - p0
        return EdgeSet(i=i, j=j, lengths=self.lengths[e0:e1],
                       sample=PointSample(points=self.points[p0:p1]))


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


def _forward_runs(cells: list[int]) -> list[tuple[int, int]]:
    """(first, last) linear offsets of the cell runs a point's forward
    half-neighbourhood is read from, in a grid of the given cells per axis
    (last axis fastest). A run is a row of cells along the last axis: the own
    cell and the next one, then, for every offset of the leading axes whose
    first nonzero entry is +1, the three cells around it; (3^(d-1) + 1)/2 runs.
    """
    strides = [math.prod(cells[k + 1:]) for k in range(len(cells))]
    runs = [(0, 1)]
    for lead in itertools.product((-1, 0, 1), repeat=len(cells) - 1):
        if next((o for o in lead if o), 0) == 1:
            centre = sum(o * s for o, s in zip(lead, strides))
            runs.append((centre - 1, centre + 1))
    return runs


def build_edges_batch(points: np.ndarray, counts: list[int], delta: float) -> EdgeChunk:
    """The edges of a chunk of samples, from one numpy cell grid over all of them
    (no kd-tree): sample k is the counts[k] rows of the (n, d) points buffer
    after those of samples 0..k-1, and EdgeChunk.edge_set(k) is build_edges' EdgeSet
    of it, bit for bit.

    The points are copied once, into (d, n) columns, and sorted by (sample,
    cell) id. A cell is at least delta*(1 + 1e-9) wide on every axis, so a pair
    whose canonical length is <= delta lies in the same or neighbouring cells,
    and at least _MIN_CELL, so a pair whose squared differences underflow
    (length 0 at any delta) does too. Each axis has at most _MAX_CELLS_PER_AXIS
    cells, and a sample about _CELLS_PER_POINT cells per point in all, so the
    float-to-int cast stays small at any delta. The last cell of every axis
    stays empty, so a run never wraps into a real cell. A point's candidates are
    its forward runs, each a contiguous stretch of the sorted points read from a
    cell-start table; those whose canonical length is <= delta are sorted by
    one fused (i, j) key over the chunk, so each sample's edges are one
    contiguous stretch of them.
    """
    if not (delta > 0):
        raise ValueError("delta must be > 0")
    offsets = np.cumsum([0, *counts])
    n = int(offsets[-1])
    if n < 2:
        none = np.zeros(0, dtype=np.int64)
        return EdgeChunk(points, offsets.tolist(), none, none, np.zeros(0),
                         [0] * len(offsets))
    columns = np.ascontiguousarray(points.T)  # a transpose _pair_distance need not copy
    per_axis = min(_MAX_CELLS_PER_AXIS,
                   max(1, int((_CELLS_PER_POINT * n / len(counts)) ** (1 / len(columns)))))
    least = max(float(delta) * (1 + 1e-9), _MIN_CELL)
    ids = np.repeat(np.arange(len(counts)), counts)
    cells = []
    for c in columns:  # ids = ((sample * cells0 + cell0) * cells1 + cell1) * ...
        lo = float(c.min())
        span = float(c.max()) - lo
        side = max(span / per_axis, least)
        cells.append(int(span / side) + 2)
        ids *= cells[-1]
        ids += ((c - lo) / side).astype(np.int64)
    table = len(counts) * math.prod(cells)
    starts = np.zeros(table + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=table), out=starts[1:])
    key = np.multiply(ids, n, dtype=np.int32 if table * n <= _INT32_MAX else np.int64)
    del ids  # each table is freed once read, before the candidates' distances are taken
    key += np.arange(n, dtype=key.dtype)
    key.sort()
    cell = (key // n).astype(np.int64)  # the sorted points' cell ids
    order = key.astype(np.int64)
    del key
    order -= cell * n  # the sorted points' indices

    runs = _forward_runs(cells)
    begin = np.empty((len(runs), n), dtype=np.int64)
    end = np.empty_like(begin)
    begin[0] = np.arange(1, n + 1)  # the own cell, from the next point on
    for r, (first, last) in enumerate(runs):
        if r:
            starts.take(cell + first, out=begin[r])
        starts.take(cell + last + 1, out=end[r])
    del cell, starts
    width = (end - begin).ravel()
    del end
    before = np.cumsum(width)
    total = int(before[-1])
    before -= width
    a = np.repeat(np.tile(order, len(runs)), width)
    at = np.repeat(begin.ravel() - before, width)  # each candidate's place in the sorted points
    del begin, before, width
    at += np.arange(total)
    b = order.take(at)
    del at
    kept = np.flatnonzero(_pair_distance(columns.T, a, b) <= delta)
    pairs = np.empty((kept.size, 2), dtype=np.int64)
    a, b = a.take(kept), b.take(kept)
    np.minimum(a, b, out=pairs[:, 0])
    np.maximum(a, b, out=pairs[:, 1])
    i, j = _sorted_pairs(pairs, n)
    return EdgeChunk(points, offsets.tolist(), i, j, _pair_distance(columns.T, i, j),
                     np.searchsorted(i, offsets).tolist())


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
    lengths = edges.lengths
    # np.sum's own reduction, called without its Python wrappers: the same bits
    return np.array([np.add.reduce(lengths**alpha) for alpha in alphas], dtype=float)


def max_degree(edges: EdgeSet) -> int:
    """The largest vertex degree; edges.i must be sorted, as build_edges and
    build_edges_bruteforce leave it."""
    if edges.n_edges == 0:
        return 0
    deg = np.bincount(edges.j)  # i < j, so every endpoint lies below deg.size
    deg += np.diff(np.searchsorted(edges.i, np.arange(deg.size + 1)))
    return int(deg.max())
