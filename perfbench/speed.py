"""Host-speed reference: a fixed kernel that does not use gilbertsim.

The benchmark's host is shared. The same call can run 20-40 % slower there
for stretches of seconds to many minutes, in CPU time as much as in wall time,
so neither a longer run nor CPU time removes it. Every timing the benchmark
reports is therefore scaled to one host speed: each timed call is followed,
outside its timing, by one run of ``kernel``, and the call's seconds are
multiplied by ``REFERENCE_S / <that kernel run's seconds>``. A change to the
program does not touch the kernel, so it moves a scaled timing as much as it
moves the raw one; the raw timings are printed as well.

The kernel mixes small-array numpy calls, a pure-Python loop and work on
arrays of a few MB, as the workloads do: a kernel of the first two alone
tracked the slow stretches of the workloads less well. Changing it or ``REFERENCE_S`` changes every timing metric, so
the baseline must then be measured again.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.spatial import cKDTree

# About the median seconds of one ``kernel()`` run on the machine that pinned the
# baseline (see ``machine`` in baseline.json); timings are reported at this speed.
REFERENCE_S = 0.050


def kernel() -> float:
    """Small-array numpy calls and a pure-Python loop, then a few calls on
    arrays larger than a core's private cache."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(300):
        pts = rng.random((200, 2))
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        diff = np.diff(pts[order], axis=0)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        acc += float(np.sum(dist[dist < 0.05] ** 1.5))
    table = {}
    for k in range(30000):
        x = (k * 0.618033988749895) % 1.0
        acc += math.sqrt(x) * math.exp(-x)
        table[k & 1023] = acc
    pts = rng.random((20000, 2))
    pairs = cKDTree(pts).query_pairs(0.006, output_type="ndarray")
    keys = pairs[:, 0].astype(np.int64) * len(pts) + pairs[:, 1]
    acc += np.unique(np.concatenate([keys, keys[::3]])).size
    acc += float(np.argsort(rng.random(200000))[0])
    return acc + len(table)


def probe() -> float:
    """Seconds one ``kernel()`` run takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
