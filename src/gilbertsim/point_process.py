"""Poisson and binomial point process sampling with reproducible streams.

Replication r of an experiment draws from a generator derived from
(master_seed, stream, r) via numpy's SeedSequence spawn keys, so results are
identical no matter how replications are scheduled across threads, and pilot
runs never share randomness with test runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ConvexWindow, sample_uniform

# Stream domains; keep disjoint so pilot/reference draws never collide with
# the main replication stream.
STREAM_SAMPLE = 0
STREAM_PILOT = 1
STREAM_REFERENCE = 2


def replication_rng(master_seed: int, replication: int, stream: int = STREAM_SAMPLE,
                    batch: int = 0) -> np.random.Generator:
    """Deterministic generator for one replication of one stream/batch."""
    ss = np.random.SeedSequence(int(master_seed),
                                spawn_key=(int(stream), int(batch), int(replication)))
    return np.random.default_rng(ss)


@dataclass(frozen=True, eq=False)
class PointSample:
    """One realization of a point process inside a window."""

    points: np.ndarray  # shape (n, dim)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _draw_distinct(window: ConvexWindow, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform points, redrawing any exact float duplicates."""
    pts = sample_uniform(window, rng, n)
    first = np.sort(pts[:, 0])
    if not (first[1:] == first[:-1]).any():
        return pts  # distinct first coordinates imply distinct rows
    while True:
        _, first_idx = np.unique(pts, axis=0, return_index=True)
        if first_idx.size == n:
            return pts
        dup = np.setdiff1d(np.arange(n), first_idx, assume_unique=False)
        pts[dup] = sample_uniform(window, rng, dup.size)


def sample_poisson(window: ConvexWindow, t: float, rng: np.random.Generator) -> PointSample:
    """Poisson process of intensity t: N ~ Poisson(t*V(W)) iid uniform points."""
    if not (t > 0):
        raise ValueError("intensity t must be > 0")
    n = int(rng.poisson(t * window.volume))
    pts = _draw_distinct(window, n, rng)
    return PointSample(points=pts)


def sample_binomial(window: ConvexWindow, n: int, rng: np.random.Generator) -> PointSample:
    """Binomial process: exactly n iid uniform points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = _draw_distinct(window, int(n), rng)
    return PointSample(points=pts)
