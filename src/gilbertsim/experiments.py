"""Monte Carlo verification harness; the layout of every file a run writes.

Runs seeded replications of the Gilbert graph, estimates moments/tails/CDFs,
and compares them against the closed-form theory at named tolerances. Every
report is a pure function of (config, master_seed): replication r of stream s
draws from the generator numpy's SeedSequence(master_seed, spawn_key=(s, batch,
r)) seeds, bit for bit, a chunk of replications at a time (point_process
seeds and draws them; this module draws no random numbers itself). A chunk stays flat
arrays from its draw to its block of reduced rows (one points buffer, the
chunk's edges, each replication's stretch of them), and the blocks are copied
into the output in replication order, so serial and parallel runs give
identical bytes. Every verdict but three is built by one of a few check shapes
(within, sandwich, below, decreasing). LDI's two verdicts and the thermodynamic
slope build their Metric directly: each LDI verdict shows the smaller margin of
both bounds, and the slope passes strictly above its tolerance. Each file goes
through to_csv (given columns) or to_json: simulate's two, a report and its LDI
tables, predictions and covariogram_table.
"""

from __future__ import annotations

import ctypes
import functools
import math
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .errors import ConfigError, TooFewReplicationsError
from .geometry import ConvexWindow, covariogram, unit_ball_volume
from .gilbert_graph import EdgeChunk, build_edges, build_edges_batch, max_degree
from .point_process import (STREAM_PILOT, STREAM_REFERENCE, STREAM_SAMPLE,
                            PointSample, replication_rng, replication_samples)
from .theory_deviations import (LdiInput, ldi_bound, ldi_envelope,
                                thermo_exponent)
from .theory_limits import EdgeLengthProcessLimit
from .theory_moments import (RegimeSchedule, covariance_bounds,
                             covariance_exact, d3_bound, expectation_bounds,
                             expectation_exact, kolmogorov_bound,
                             normalization, sigma_matrix)

# Fixed verdict tolerances; each report lists them under config.tolerances.
TOLERANCES = {
    "mean_se_mult": 4.0,      # mean-type checks: |empirical - theory| <= k*SE
    "cov_rel": 0.10,          # relative error vs exact covariance
    "cov_entry_abs": 0.1,     # absolute entry tolerance for Sigma (or 4*SE)
    "ks": 0.05,               # default Kolmogorov-Smirnov tolerance
    "ks_first_order_stat": 0.03,
    "eig_max": 0.05,          # dense-regime smallest-eigenvalue collapse
    "corr_max": 0.05,         # interval-count independence
    "slope_max": -0.3,        # log-log KS rate-shape check
    "cp_confidence": 0.999,   # Clopper-Pearson level for tail upper bounds
    "a_limit_rel": 0.02,      # a_t(u) convergence at the largest t
    "r_const_rel": 0.01,      # r_t * t constancy once rho < inradius
    "tail_slope_min": 0.0,    # thermodynamic deviation slope test
}

# Expected edges a run may hold in memory at once. A replication (build_edges
# and its reduction) peaks at 42-47 B per edge (peak RSS of `simulate` above
# the RSS after importing the CLI and scipy.spatial, 1.3e6-1.9e6 edges in
# d = 2), so the cap is about 0.95 GB.
EDGE_BUDGET = 2e7
# Expected points a run may hold in memory at once. A replication with almost
# no edges (the points, their duplicate check, the kd-tree and the pair sort)
# peaks at about 16 d + 32 B per point: 46 B (box) and 64 B (ball) in d = 2,
# 129 B (box) and 144 B (ball) in d = 7 (peak RSS of `simulate`, 2e6 points).
# So the cap is 0.5-1.4 GB, and it keeps t V below numpy's Poisson limit.
POINT_BUDGET = 1e7
# Runs of sparse replications are built on build_edges_batch's grid, a chunk of
# about _CHUNK_POINTS points at a time (_chunk_size). A replication's edges take,
# on the grid and on its own kd-tree (serial, d = 2): 20 and 80 us at 200 points
# of degree 1.6 (chunks of 61), 0.68 and 1.8 ms at 5,000 points of degree pi, and
# 2.8 and 5.7 ms at 12,288 points of degree 7.9. Dense replications are faster
# on their own kd-trees (ROADMAP, Settled). A chunk of 16,384 points peaked
# above test_a_chunk_peaks_below_8_mb's 8 MiB in d = 3.
_BATCH_DEGREE = (8.0, 8.0, 4.0)  # by d = 1, 2, 3; no run in d >= 4 is chunked
_CHUNK_POINTS = 12288
# The fewest points a chunked run expects in all, and the most replications in a chunk.
_RUN_FLOOR = 4096
# Worker threads a run may start, one per replication in flight.
MAX_JOBS = 64
# Rows of a CSV file converted and joined at a time.
_CSV_BLOCK = 2**13


@dataclass(frozen=True)
class ExperimentConfig:
    window: ConvexWindow
    alphas: tuple[float, ...]
    kind: str  # a _SUITES key: the verify kind, "simulate" or "predict"
    replications: int | None = None  # required where the row builds graphs
    master_seed: int = 0
    t: float | None = None
    n: int | None = None
    t_grid: tuple[float, ...] | None = None
    schedule: RegimeSchedule | None = None
    delta: float | None = None
    n_jobs: int = 1

    def __post_init__(self):
        if self.kind not in _SUITES:
            raise ConfigError(f"unknown kind {self.kind!r}")
        if self.replications is not None and self.replications < 2:
            raise ConfigError("replications must be >= 2")
        if self.master_seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.master_seed!r}")
        if self.delta is None and self.schedule is None:
            raise ConfigError("either delta or schedule must be given")
        if self.delta is not None and self.schedule is not None:
            raise ConfigError("delta and schedule both set the distance parameter; give one")
        if self.n is not None and (self.t is not None or self.t_grid is not None):
            raise ConfigError("t or t_grid (Poisson model) and n (binomial model) "
                              "pick different models; give one")
        positive = [("t", self.t), ("n", self.n), ("delta", self.delta)]
        positive += [("t_grid", v) for v in self.t_grid or ()]
        for key, val in positive:
            if val is not None and not (math.isfinite(val) and val > 0):
                raise ConfigError(f"{key} must be finite and > 0, got {val!r}")
        grid = self.t_grid or ()
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError(f"t_grid must be strictly increasing, got {list(grid)!r}")
        if self.schedule is not None:
            for key, val in [(k, v) for k, v in positive if k != "delta"]:
                if val is not None and not self.schedule.delta_at(val) > 0:
                    raise ConfigError(f"the schedule's delta underflows to 0 at {key} = {val!r}")
        for alpha in self.alphas:
            if not math.isfinite(alpha):
                raise ConfigError(f"alpha must be finite, got {alpha!r}")
        if not self.alphas or len(set(self.alphas)) != len(self.alphas):
            raise ConfigError(f"alphas must be one or more distinct values, got "
                              f"{list(self.alphas)!r}")
        if not 1 <= self.n_jobs <= MAX_JOBS:
            raise ConfigError(f"n_jobs must be between 1 and {MAX_JOBS}, got {self.n_jobs!r}")
        _check_row(self)

    @property
    def model(self) -> str:
        """The point process: n binomial points if n is given, else Poisson."""
        return "poisson" if self.n is None else "binomial"

    def intensity(self) -> float:
        """The single intensity of a run: t (Poisson model) or n (binomial)."""
        return float(self.t if self.n is None else self.n)

    def delta_for(self, t: float) -> float:
        if self.schedule is not None:
            return self.schedule.delta_at(t)
        return float(self.delta)

    def intensity_grid(self) -> tuple[float, ...]:
        return tuple(self.t_grid) if self.t_grid else (self.intensity(),)

    def echo(self) -> dict:
        """The report's record of the run: its model and every set field but
        n_jobs, which serial and parallel runs must not differ by."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "n_jobs"
               and getattr(self, f.name) not in (None, ())}
        out.update(window=self.window.label(), dim=self.window.dim, model=self.model,
                   seed=out.pop("master_seed"), tolerances=dict(TOLERANCES))
        if self.schedule is not None:
            out["schedule"] = {"a": self.schedule.a, "gamma": self.schedule.gamma}
        return out


@functools.cache
def _keep_freed_heap() -> None:
    """Pin glibc's malloc thresholds, once per process; elsewhere do nothing.

    By default glibc moves its mmap threshold as blocks are freed and trims
    the heap top above 128 KiB, so a dense replication's transient buffers
    (query_pairs' doubling vector, up to about 4 MB, and numpy's temporaries)
    can be unmapped or trimmed after one replication and faulted in again by
    the next: about 2,360 page faults per replication at t = 5000 on box:1x1
    in a process that imported scipy.stats first. Fixed thresholds (mmap at
    32 MiB, glibc's maximum on 64-bit; trim at 64 MiB) keep freed heap for
    reuse, up to 64 MiB in each malloc arena. glibc gives a thread that
    allocates its own arena, so run_replications pins them for a serial run
    only: a dense serial run's peak RSS rose 0.6 % (78.2 -> 78.7 MB), while
    on 8 threads it rose from 139-147 MB to 150-153 MB and all of it stayed
    after the run. A threaded run that follows a serial one in the same
    process runs with them pinned.
    """
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):  # musl and other libcs
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h
    libc.mallopt(m_mmap_threshold, 32 << 20)
    libc.mallopt(m_trim_threshold, 64 << 20)


def run_replications(config: ExperimentConfig, reduce, *, t: float | None = None,
                     reps: int | None = None, stream: int = STREAM_SAMPLE,
                     batch: int = 0) -> np.ndarray:
    """Float rows, one per replication, stacked in replication order:
    reduce(reps, chunk) returns the block of rows of the consecutive
    replications reps, replication reps[k] being sample k of the EdgeChunk chunk.

    Replication r is a pure function of (master_seed, stream, batch, r), so the
    rows are the same whether they run serially or on n_jobs threads; each
    thread keeps the caller's numpy floating-point error handling. A chunk
    draws its points with replication_samples. A run of sparse replications
    (_chunk_size) builds its edges a chunk of one replication or more at a time
    with build_edges_batch, each replication's as build_edges builds them, bit
    for bit; any other run is a chunk per replication that calls build_edges,
    its one EdgeSet's arrays the chunk's. The threads take whole chunks, and
    each block is copied into the output as it comes.
    """
    if config.n_jobs == 1:
        _keep_freed_heap()
    intensity = t if t is not None else config.intensity()
    dlt = config.delta_for(float(intensity))
    n_reps = int(reps if reps is not None else config.replications)
    size = _chunk_size(config, float(intensity), dlt, n_reps)  # 0: a kd-tree per replication
    step = size or 1

    def rows(first: int) -> np.ndarray:
        chunk = range(first, min(first + step, n_reps))
        points, counts = replication_samples(config.window, intensity, config.model,
                                             config.master_seed, chunk, stream=stream, batch=batch)
        if size:
            return reduce(chunk, build_edges_batch(points, counts, dlt))
        one = build_edges(PointSample(points=points), dlt)
        return reduce(chunk, EdgeChunk(points, [0, len(points)], one.i, one.j, one.lengths,
                                       [0, one.n_edges]))

    firsts = range(0, n_reps, step)

    def stacked(blocks):
        out = None
        for first, block in zip(firsts, blocks):
            if out is None:
                out = np.empty((n_reps, *block.shape[1:]))
            out[first:first + len(block)] = block
        return out

    if config.n_jobs > 1:
        # a worker thread starts from numpy's default error handling, not the caller's
        keep_errstate = functools.partial(np.seterr, **np.geterr())
        with ThreadPoolExecutor(max_workers=config.n_jobs, initializer=keep_errstate) as pool:
            return stacked(pool.map(rows, firsts))
    return stacked(map(rows, firsts))


def _chunk_size(config: ExperimentConfig, intensity: float, delta: float, n_reps: int) -> int:
    """Replications per chunk of a run built on build_edges_batch's grid, or 0
    for a run that calls build_edges once per replication.

    A run goes on the grid if it is in d <= 3, each replication expects at most
    _CHUNK_POINTS points (t V, or n) and each point at most _BATCH_DEGREE[d - 1]
    neighbours (t kappa_d delta^d), and the run expects at least _RUN_FLOOR
    points in all. A chunk then holds about _CHUNK_POINTS points' worth of
    replications, one or more but at most _RUN_FLOOR; in both counts each
    replication counts as at least one point.
    """
    d = config.window.dim
    volume = config.window.volume
    points = intensity * volume if config.model == "poisson" else intensity
    counted = max(points, 1.0)
    if not (d <= len(_BATCH_DEGREE) and counted <= _CHUNK_POINTS
            and counted * n_reps >= _RUN_FLOOR
            and points / volume * unit_ball_volume(d) * delta**d <= _BATCH_DEGREE[d - 1]):
        return 0
    return min(_RUN_FLOOR, int(_CHUNK_POINTS // counted))


def _length_powers(config: ExperimentConfig, **kwargs) -> np.ndarray:
    """(R, n_alphas) matrix of L^(alpha); kwargs are run_replications' t, reps, stream, batch.
    Each entry is length_power's, bit for bit: np.add.reduce of the replication's
    stretch of the chunk's lengths**alpha, taken once per chunk."""
    alphas = config.alphas

    def reduce(reps, chunk):
        block = np.empty((len(reps), len(alphas)))
        for a, alpha in enumerate(alphas):
            block[:, a] = [np.add.reduce(own) for own in chunk.stretches(chunk.lengths**alpha)]
        return block

    return run_replications(config, reduce, **kwargs)


def empirical_moments(matrix: np.ndarray) -> tuple[np.ndarray, ...]:
    """Column means, unbiased covariance, standard errors of the means, and
    moment-based standard errors of the covariance entries.

    Var(s_ij) ~ (E[(x_i-mu_i)^2 (x_j-mu_j)^2] - c_ij^2)/R; unlike the
    normal-theory formula this stays honest for the heavy-tailed small-t data.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    r = matrix.shape[0]
    if r < 2:
        raise TooFewReplicationsError("need at least 2 replications")
    means = matrix.mean(axis=0)
    cov = np.atleast_2d(np.cov(matrix, rowvar=False, ddof=1))
    se = matrix.std(axis=0, ddof=1) / math.sqrt(r)
    z = matrix - means
    m22 = (z**2).T @ (z**2) / r
    cov_se = np.sqrt(np.maximum(m22 - (z.T @ z / (r - 1))**2, 0.0) / r)
    return means, cov, se, cov_se


class EmpiricalCdf:
    """Step CDF of a reference sample, with left limits for atom handling."""

    def __init__(self, samples: np.ndarray):
        self.sorted = np.sort(np.asarray(samples, dtype=float))
        self.n = self.sorted.size

    def __call__(self, x):
        return np.searchsorted(self.sorted, x, side="right") / self.n

    def left(self, x):
        return np.searchsorted(self.sorted, x, side="left") / self.n


def ks_statistic(samples, cdf, cdf_left=None, mass: float = 1.0) -> float:
    """sup_x |F_hat - F| over the sample points, both one-sided gaps.

    cdf_left supplies F(x-) for reference CDFs with atoms.  mass is the target
    law's mass below +inf, the rest an atom at +inf; the empirical mass of the
    finite samples is scored against it.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 1:
        raise ValueError("need at least one sample")
    finite = np.isfinite(x)
    xs = np.sort(x[finite])
    k = xs.size
    if k == 0:
        return mass
    fvals = np.asarray(cdf(xs), dtype=float)
    lvals = np.asarray(cdf_left(xs), dtype=float) if cdf_left is not None else fvals
    hi = np.arange(1, k + 1) / n
    lo = np.arange(0, k) / n
    d = max(float(np.max(hi - fvals)), float(np.max(lvals - lo)))
    if k < n:
        d = max(d, abs(mass - k / n))
    return max(d, 0.0)


def clopper_pearson_upper(k: int, n: int, confidence: float) -> float:
    """One-sided upper confidence bound for a binomial proportion."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == n:
        return 1.0
    from scipy.special import betaincinv  # slow to import; loaded on first use

    return float(betaincinv(k + 1, n - k, confidence))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class Metric:
    name: str
    empirical: object
    theory: object
    tolerance_name: str
    verdict: bool
    anchor: str
    se: float | None = None
    tolerance_value: float | None = None  # None: TOLERANCES[tolerance_name]

    def __post_init__(self):
        if self.tolerance_value is None:
            self.tolerance_value = TOLERANCES[self.tolerance_name]


@dataclass
class ExperimentReport:
    config: dict
    metrics: list[Metric]
    tables: dict = field(default_factory=dict)  # table name -> its CSV text

    @property
    def passed(self) -> bool:
        return all(m.verdict for m in self.metrics)


def report_tables(config: ExperimentConfig) -> list[str]:
    """The names of a config's report tables, in alphas order: one per alpha for LDI."""
    return [f"ldi_alpha_{alpha}" for alpha in config.alphas] if config.kind == "LDI" else []


def _round_trip(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "inf", "-inf" or "nan": JSON has no non-finite numbers
    if isinstance(value, (list, tuple)):
        return [_round_trip(v) for v in value]
    return value


def report_to_json(report: ExperimentReport) -> str:
    """Deterministic JSON per the external schema {config, metrics, seed, version}."""
    payload = {
        "config": report.config,
        "metrics": [
            {
                "name": m.name,
                "empirical": _round_trip(m.empirical),
                "theory": _round_trip(m.theory),
                "se": _round_trip(m.se),
                "tolerance": {"name": m.tolerance_name, "value": _round_trip(m.tolerance_value)},
                "verdict": "pass" if m.verdict else "fail",
                "paper_anchor": m.anchor,
            }
            for m in report.metrics
        ],
        "seed": report.config["seed"],
        "version": __version__,
    }
    return to_json(payload)


def _smallest_powers(powers: np.ndarray, m: int) -> np.ndarray:
    """m smallest of the given length powers, sorted, +inf padded. A chunk's length
    powers are taken once per alpha: the caller hands a replication's stretch of
    them to the sum and to this."""
    out = np.full(m, np.inf)
    if powers.size == 0:
        return out
    k = min(m, powers.size)
    out[:k] = np.sort(np.partition(powers, k - 1)[:k])
    return out


def simulate(config: ExperimentConfig, edges: bool = False) -> tuple[str, str | None]:
    """`simulate`'s table rep,alpha,L_value,n_points,max_degree,S1..S5 (S the 5
    smallest length powers), the columns of the stacked replication rows, and, if
    edges, replication 0's own edge set, not built again, as i,j,length (else None)."""
    first = []

    def reduce(reps, chunk):
        block = np.empty((len(reps), len(config.alphas), 8))
        for k, r in enumerate(reps):
            edge_set = chunk.edge_set(k)
            if r == 0 and edges:
                first.append(edge_set)
            block[k, :, 1:3] = chunk.offsets[k + 1] - chunk.offsets[k], max_degree(edge_set)
        for a, alpha in enumerate(config.alphas):  # one alpha's powers alive at a time
            for k, own in enumerate(chunk.stretches(chunk.lengths**alpha)):
                block[k, a, 0] = np.add.reduce(own)  # length_power's L
                block[k, a, 3:] = _smallest_powers(own, 5)
        return block

    stacked = run_replications(config, reduce).reshape(-1, 8)  # a row per (rep, alpha)
    table = to_csv("rep,alpha,L_value,n_points,max_degree,S1,S2,S3,S4,S5",
                   np.repeat(np.arange(config.replications), len(config.alphas)),
                   np.tile(config.alphas, config.replications), stacked[:, 0],
                   *stacked[:, 1:3].T.astype(np.int64), *stacked[:, 3:].T)
    if not edges:
        return table, None
    (dump,) = first
    return table, to_csv("i,j,length", dump.i, dump.j, dump.lengths)


def covariogram_table(window: ConvexWindow, direction, rmax: float, steps: int) -> str:
    """`covariogram`'s table r,covariogram: g_W(r u) at steps radii r evenly
    spaced on [0, rmax], for the unit vector u = direction."""
    radii = np.linspace(0.0, rmax, steps).tolist()
    return to_csv("r,covariogram", radii, [covariogram(window, r * direction) for r in radii])


def to_csv(header: str, *columns) -> str:
    """Every CSV file: the header, then a line per row of equal-length homogeneous columns
    (arrays or lists), each cell written by repr. Only here are cells made plain Python
    values, by tolist() of one block of `_CSV_BLOCK` rows at a time, joined block by block."""
    blocks = [header + "\n"]
    for k in range(0, len(columns[0]), _CSV_BLOCK):
        rows = zip(*(np.asarray(column[k:k + _CSV_BLOCK]).tolist() for column in columns))
        blocks.append("".join(",".join(map(repr, row)) + "\n" for row in rows))
    return "".join(blocks)


def to_json(payload) -> str:
    """Every JSON file: the bytes of json.dumps(payload, sort_keys=True, indent=2,
    allow_nan=False) and a newline, in one recursive pass with a join per container
    (with an indent, json.dumps skips its C encoder for a chain of Python generators).
    A non-finite float raises ValueError, and a type JSON lacks raises TypeError.
    Unlike json.dumps, which writes an int, float, bool or None key as a string, a
    key that is not a str raises TypeError: every payload here is keyed by names."""
    return _json_text(payload, "\n") + "\n"


def _json_text(value, newline: str) -> str:
    """value's JSON text; newline is the line break and indent its closing bracket
    sits at. Scalars are written as json.dumps writes them: str by
    encode_basestring_ascii, int and float (np.float64 too) by the base repr."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) \
            + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is not a str fails the sort or encode_basestring_ascii
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": " + _json_text(value[k], inner)
             for k in sorted(value)]) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _within(name: str, empirical, theory, allowed: float, tolerance_name: str,
            anchor: str, se: float | None = None,
            tolerance_value: float | None = None) -> Metric:
    """Pass when every |empirical - theory| <= allowed (k*SE, or a relative or
    absolute tolerance); empirical is a value or a list of values."""
    gap = float(np.max(np.abs(np.subtract(empirical, theory))))
    return Metric(name=name, empirical=empirical, theory=theory, se=se,
                  tolerance_name=tolerance_name, tolerance_value=tolerance_value,
                  verdict=gap <= allowed, anchor=anchor)


def _sandwich(name: str, value: float, bounds, se: float, anchor: str) -> Metric:
    """Pass when value lies in the theory sandwich (lo, hi), each end widened by k*SE."""
    lo, hi = bounds
    widen = TOLERANCES["mean_se_mult"] * se
    return Metric(name=name, empirical=value, theory=bounds, se=se,
                  tolerance_name="mean_se_mult", verdict=lo - widen <= value <= hi + widen,
                  anchor=anchor)


def _below(name: str, value: float, tolerance_name: str, anchor: str, theory=0.0,
           limit: float | None = None) -> Metric:
    """Pass when value <= limit, by default TOLERANCES[tolerance_name]: a KS
    distance, slope, eigenvalue or correlation."""
    limit = TOLERANCES[tolerance_name] if limit is None else limit
    return Metric(name=name, empirical=value, theory=theory, tolerance_name=tolerance_name,
                  verdict=value <= limit, anchor=anchor)


def _decreasing(name: str, values, tolerance_name: str, anchor: str, theory=None) -> Metric:
    """Pass when values fall strictly from each t of the grid to the next."""
    return Metric(name=name, empirical=values, theory=theory, tolerance_name=tolerance_name,
                  verdict=all(b < a for a, b in zip(values[:-1], values[1:])), anchor=anchor)


def _ks_along_grid(ks_list: list[float], final: str, final_anchor: str, falling: str,
                   falling_anchor: str) -> list[Metric]:
    """The KS at the largest t below its tolerance and, on a grid of two or
    more t, the KS distances strictly decreasing along it."""
    metrics = [_below(final, ks_list[-1], "ks", final_anchor)]
    if len(ks_list) >= 2:
        metrics.append(_decreasing(falling, ks_list, "ks", falling_anchor))
    return metrics


def _normal_ks(col: np.ndarray) -> float:
    """KS distance between the standardised column and the standard normal law."""
    from scipy.special import ndtr  # slow to import; loaded on first use

    sd = col.std(ddof=1)
    z = (col - col.mean()) / sd if sd > 0 else col * 0.0
    return ks_statistic(z, ndtr)


# paper anchors of the moment table, shared by `verify --kind Moments` and `predict`
_MEAN_ANCHOR = "mean: closed-form radial covariogram integral"
_MEAN_SANDWICH_ANCHOR = "mean sandwich: volume and surface-correction bounds"
_COV_ANCHOR = "covariance: quadrature of the two-point moment split"


def _moment_theory(config: ExperimentConfig, t: float, delta: float):
    """The moment table at (t, delta): per alpha, (exact mean, mean sandwich), and
    per index pair i <= j of the alphas, (exact covariance, covariance sandwich).

    Covariances come first: a window without an exact covariance stops the run
    before any mean's quadrature.
    """
    window, alphas = config.window, config.alphas
    covs = {(i, j): (covariance_exact(window, t, delta, alphas[i], alphas[j]),
                     covariance_bounds(window, t, delta, alphas[i], alphas[j]))
            for i in range(len(alphas)) for j in range(i, len(alphas))}
    means = [(expectation_exact(window, t, delta, alpha),
              expectation_bounds(window, t, delta, alpha)) for alpha in alphas]
    return means, covs


def verify_moments(config: ExperimentConfig) -> ExperimentReport:
    """Sample means/covariances against exact values and sandwiches. Every theory
    value comes first, so one that cannot be computed stops the run before any
    replication."""
    t = config.intensity()
    alphas = config.alphas
    mean_theory, cov_theory = _moment_theory(config, t, config.delta_for(t))
    means, cov, se, cse = empirical_moments(_length_powers(config))
    k_se = TOLERANCES["mean_se_mult"]
    rel = TOLERANCES["cov_rel"]
    metrics = []
    for i, (alpha, (exact, bounds)) in enumerate(zip(alphas, mean_theory)):
        mean, mse = float(means[i]), float(se[i])
        metrics += [
            _within(f"mean[alpha={alpha}] vs exact", mean, exact, k_se * mse, "mean_se_mult",
                    _MEAN_ANCHOR, se=mse),
            _sandwich(f"mean[alpha={alpha}] in sandwich", mean, bounds, mse,
                      _MEAN_SANDWICH_ANCHOR)]
    for (i, j), (exact, bounds) in cov_theory.items():
        a, b = alphas[i], alphas[j]
        value, vse = float(cov[i, j]), float(cse[i, j])
        metrics += [
            _sandwich(f"cov[{a},{b}] in sandwich", value, bounds, vse,
                      "covariance sandwich with inner-parallel volume bound"),
            _within(f"cov[{a},{b}] vs exact", value, exact, max(rel * abs(exact), k_se * vse),
                    "cov_rel", _COV_ANCHOR, se=vse)]
    return ExperimentReport(config.echo(), metrics)


def predictions(config: ExperimentConfig) -> list[dict]:
    """`predict`'s entries {name, value, params, paper_anchor, estimated}: the moment
    table, the leading-order variance per alpha and, with a schedule and two or
    more alphas, the regime's covariance matrix and the d3 bound."""
    t = config.intensity()
    delta = config.delta_for(t)
    window, alphas = config.window, config.alphas
    mean_theory, cov_theory = _moment_theory(config, t, delta)
    params = {"window": window.label(), "t": t, "delta": delta}

    def entry(name, value, anchor, **extra):
        return {"name": name, "value": value, "params": dict(params, **extra),
                "paper_anchor": anchor, "estimated": False}

    out = []
    for i, (alpha, (exact, bounds)) in enumerate(zip(alphas, mean_theory)):
        out += [entry(f"expectation[alpha={alpha}]", exact, _MEAN_ANCHOR, alpha=alpha),
                entry(f"expectation_bounds[alpha={alpha}]", bounds, _MEAN_SANDWICH_ANCHOR,
                      alpha=alpha),
                # variance_asymptotic: the (alpha, alpha) covariance sandwich's upper value
                entry(f"variance_asymptotic[alpha={alpha}]", cov_theory[i, i][1][1],
                      "leading-order variance", alpha=alpha)]
    out += [entry(f"covariance[{alphas[i]},{alphas[j]}]", exact, _COV_ANCHOR,
                  alpha=alphas[i], beta=alphas[j]) for (i, j), (exact, _) in cov_theory.items()]
    if config.schedule is not None and len(alphas) >= 2:
        vector = {"alphas": list(alphas), "regime": config.schedule.classify(window.dim)}
        sig = sigma_matrix(alphas, window.dim, window.volume, config.schedule)
        out += [entry("sigma_matrix", sig.tolist(), "asymptotic covariance matrix by regime",
                      **vector),
                entry("d3_bound", d3_bound(window, t, delta, alphas, config.schedule),
                      "multivariate normal approximation: explicit d3 bound", **vector)]
    return out


def verify_clt(config: ExperimentConfig) -> ExperimentReport:
    """Standardized KS against the normal law along a t-grid, with the
    explicit Kolmogorov bound and a log-log rate-shape check."""
    grid = config.intensity_grid()
    # every bound before the first replication: one that fails stops the run early
    bounds = [[kolmogorov_bound(config.window, t, config.delta_for(t), alpha)
               for alpha in config.alphas] for t in grid]
    metrics: list[Metric] = []
    ks_by_alpha = {a: [] for a in config.alphas}
    for b_idx, t in enumerate(grid):
        powers = _length_powers(config, t=t, batch=b_idx)
        for i, alpha in enumerate(config.alphas):
            ks = _normal_ks(powers[:, i])
            ks_by_alpha[alpha].append(ks)
            bound = bounds[b_idx][i]
            metrics.append(_below(f"KS[alpha={alpha}, t={t:g}] vs normal bound", ks, "ks",
                                  "normal approximation: explicit Kolmogorov-distance bound",
                                  theory=bound, limit=bound))
    for alpha, ks_list in ks_by_alpha.items():
        metrics += _ks_along_grid(
            ks_list, f"KS[alpha={alpha}] final",
            "normal approximation at the largest intensity", f"KS[alpha={alpha}] decreasing",
            "normal approximation error decays with intensity")
        if len(ks_list) >= 2:
            slope = float(np.polyfit(np.log(grid), np.log(ks_list), 1)[0])
            metrics.append(_below(f"KS[alpha={alpha}] log-log slope", slope, "slope_max",
                                  "rate shape: KS decays like an inverse square root",
                                  theory=-0.5))
    return ExperimentReport(config.echo(), metrics)


def verify_multivariate(config: ExperimentConfig) -> ExperimentReport:
    """Scaled covariance against the regime matrix; marginal normality or
    dense-regime rank collapse."""
    t = config.intensity()
    delta = config.delta_for(t)
    d = config.window.dim
    alphas = config.alphas
    norms = np.array([normalization(t, delta, a, d) for a in alphas])
    exacts = np.array([expectation_exact(config.window, t, delta, a) for a in alphas])
    scaled = (_length_powers(config) - exacts) / norms
    _, cov, _, cse = empirical_moments(scaled)
    sig = sigma_matrix(alphas, d, config.window.volume, config.schedule)
    abs_tol = TOLERANCES["cov_entry_abs"]
    k_se = TOLERANCES["mean_se_mult"]
    metrics = []
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas[i:], i):
            tol = max(abs_tol, k_se * float(cse[i, j]))
            metrics.append(_within(f"Sigma[{a},{b}]", float(cov[i, j]), float(sig[i, j]), tol,
                                   "cov_entry_abs", "asymptotic covariance matrix by regime",
                                   se=float(cse[i, j]), tolerance_value=tol))
    if config.schedule.classify(d) == "dense":
        metrics.append(_below("dense-regime smallest eigenvalue",
                              float(np.linalg.eigvalsh(cov)[0]), "eig_max",
                              "rank-one limit covariance in the dense regime"))
    else:
        metrics += [_below(f"marginal KS[alpha={alpha}]", _normal_ks(scaled[:, i]), "ks",
                           "multivariate normal limit: marginal distribution check")
                    for i, alpha in enumerate(alphas)]
    return ExperimentReport(config.echo(), metrics)


def _limit(config: ExperimentConfig) -> EdgeLengthProcessLimit:
    """The limit process of the run's one alpha, its window and its c."""
    (alpha,) = config.alphas
    return EdgeLengthProcessLimit(alpha, config.window.dim, config.window.volume,
                                  _edge_limit(config))


def _in_floats(config: ExperimentConfig, value_of, what: str, at: str) -> float:
    """value_of(), or a ConfigError naming what and at when it overflows or is not > 0."""
    try:
        value = value_of()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ConfigError(f"{config.kind}: {what} underflows to 0 or overflows at {at}")
    return value


def _limit_rescale(config: ExperimentConfig, limit: EdgeLengthProcessLimit, t: float) -> float:
    """limit.rescale(t), checked to lie in the floats."""
    return _in_floats(config, lambda: limit.rescale(t), "the rescale t^(2 alpha/d)",
                      f"alpha = {limit.alpha!r}, t = {t!r}")


def verify_compound_poisson(config: ExperimentConfig) -> ExperimentReport:
    """Rescaled functional against the compound-Poisson limit along a t-grid."""
    grid = config.intensity_grid()
    limit = _limit(config)
    rescales = [_limit_rescale(config, limit, t) for t in grid]
    ref_rng = replication_rng(config.master_seed, 0, STREAM_REFERENCE)
    ref_cdf = EmpiricalCdf(limit.sample_sum(ref_rng, 1_000_000))
    ks_list = []
    for b_idx, (t, rescale) in enumerate(zip(grid, rescales)):
        powers = _length_powers(config, t=t, batch=b_idx)[:, 0]
        ks_list.append(ks_statistic(rescale * powers, ref_cdf, cdf_left=ref_cdf.left))
    atom = float(np.mean(powers == 0.0))  # at the largest t
    se = math.sqrt(max(atom * (1.0 - atom), 1e-12) / config.replications)
    metrics = [_within("void probability P(L=0)", atom, limit.atom_at_zero,
                       TOLERANCES["mean_se_mult"] * se, "mean_se_mult",
                       "compound Poisson limit: atom at zero", se=se)]
    metrics += _ks_along_grid(
        ks_list, "KS vs compound-Poisson reference (final)",
        "compound Poisson limit of the rescaled functional",
        "KS vs compound-Poisson reference decreasing",
        "compound Poisson approximation improves with intensity")
    return ExperimentReport(config.echo(), metrics)


def _edge_limit(config: ExperimentConfig) -> float:
    """c = lim t^2 delta^d of the run's schedule: 0, a^d or inf; inf without a schedule."""
    return math.inf if config.schedule is None else config.schedule.limit(2, config.window.dim)


def verify_order_statistics(config: ExperimentConfig) -> ExperimentReport:
    """Rescaled order statistics against the limit laws; interval counts
    approximately independent with the intensity-measure means."""
    t = config.intensity()
    (alpha,) = config.alphas
    limit = _limit(config)
    rescale = _limit_rescale(config, limit, t)
    intervals, nus = limit.unit_intervals(3)

    def reduce(reps, chunk):
        # the 5 smallest powers, then the counts of rescaled powers per interval
        block = np.empty((len(reps), 5 + len(intervals)))
        powers = chunk.lengths**alpha
        for k, (own, scaled) in enumerate(zip(chunk.stretches(powers),
                                               chunk.stretches(rescale * powers))):
            block[k, :5] = _smallest_powers(own, 5)
            block[k, 5:] = [np.count_nonzero((scaled >= lo) & (scaled < hi))
                            for lo, hi in intervals]
        return block

    rows = run_replications(config, reduce)
    metrics: list[Metric] = []
    for m in range(1, 6):
        # with c finite the law keeps P(Poisson(kd V c/2) < m) at +inf (fewer than m edges)
        ks = ks_statistic(rescale * rows[:, m - 1], lambda u, m=m: np.array(
            [limit.order_statistic_cdf(m, float(x)) for x in np.atleast_1d(u)]),
            mass=limit.order_statistic_cdf(m, math.inf))
        tol_name = "ks_first_order_stat" if m == 1 else "ks"
        metrics.append(_below(f"KS order statistic m={m}", ks, tol_name,
                              "order-statistic limit law of rescaled edge-length powers"))
    counts = rows[:, 5:]
    for k, ((lo, hi), nu) in enumerate(zip(intervals, nus)):
        se = float(counts[:, k].std(ddof=1)) / math.sqrt(config.replications)
        metrics.append(_within(f"interval count mean [{lo:.4g},{hi:.4g})",
                               float(counts[:, k].mean()), nu,
                               TOLERANCES["mean_se_mult"] * se, "mean_se_mult",
                               "intensity measure of the limiting edge-length process", se=se))
    # An interval beyond the limit's total mass kd V c/2 holds no point and is
    # left out.  Any other count that is the same in every replication has no
    # correlation: NaN here, and the check fails.
    live = [k for k, nu in enumerate(nus) if nu > 0]
    if len(live) >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            cc = np.corrcoef(counts[:, live], rowvar=False)
        metrics.append(_below("interval count max |corr|",
                              float(np.max(np.abs(cc - np.eye(cc.shape[0])))), "corr_max",
                              "independence over disjoint sets in the Poisson process limit"))
    return ExperimentReport(config.echo(), metrics)


def verify_ldi(config: ExperimentConfig) -> ExperimentReport:
    """Empirical tails (Clopper-Pearson upper bounds) below both deviation
    bounds on a u-grid; optional thermodynamic slope test along a t-grid."""
    metrics: list[Metric] = []
    tables: dict = {}
    conf = TOLERANCES["cp_confidence"]
    reps = config.replications
    delta = config.delta_for(config.intensity())
    pilot = _length_powers(config, reps=max(2, reps // 2), stream=STREAM_PILOT)
    test = _length_powers(config)
    for i, (alpha, name) in enumerate(zip(config.alphas, report_tables(config))):
        med = float(np.median(pilot[:, i]))
        dev_max = float(np.max(np.abs(pilot[:, i] - med)))
        # Grid up to twice the largest pilot deviation: beyond that the bounds
        # decay below what a zero-hit tail estimate can statistically resolve.
        scale = dev_max if dev_max > 0 else max(med, 1.0)
        u_grid = [float(u) for u in np.geomspace(scale / 50.0, 2.0 * scale, 20)]
        devs = np.abs(test[:, i] - med)
        hits = [int(np.count_nonzero(devs >= u)) for u in u_grid]
        inputs = [LdiInput(window=config.window, delta=delta, alpha=alpha, median=med, u=u,
                           t=config.t, n=config.n) for u in u_grid]
        bounds = [ldi_bound(inp) for inp in inputs]
        envelopes = [ldi_envelope(inp) for inp in inputs]
        tables[name] = to_csv("u,empirical_tail,ldi_bound,ldi_envelope",
                              u_grid, [k / reps for k in hits], bounds, envelopes)
        uppers = [clopper_pearson_upper(k, reps, conf) for k in hits]
        worst_margin = min(math.inf, *(b - up for up, bnd, env in zip(uppers, bounds, envelopes)
                                       for b in (bnd, env)))
        for label, column, form in (("optimized", bounds, "s-optimized"),
                                    ("envelope", envelopes, "explicit envelope")):
            # one verdict over the whole u-grid
            metrics.append(Metric(
                name=f"tails below {label} bound [alpha={alpha}]",
                empirical=worst_margin, theory=0.0, tolerance_name="cp_confidence",
                verdict=all(up <= b for up, b in zip(uppers, column)),
                anchor=f"median deviation inequality, {form}"))
    if config.t_grid:  # a grid only under a thermodynamic schedule (_SUITES' rule)
        metrics.append(_thermo_slope_metric(config))
    return ExperimentReport(config.echo(), metrics, tables)


def _thermo_slope_metric(config: ExperimentConfig) -> Metric:
    """Slope of -log empirical tail against the thermodynamic exponent shape."""
    grid = config.intensity_grid()
    d = config.window.dim
    (alpha,) = config.alphas
    t0 = grid[0]
    col = _length_powers(config, t=t0, reps=max(2, config.replications // 2),
                         stream=STREAM_PILOT, batch=100)[:, 0]
    med0 = float(np.median(col))
    u0 = float(np.quantile(np.abs(col - med0), 0.98))
    shapes = []
    neglogs = []
    for b_idx, t in enumerate(grid):
        u_t = u0 * (t / t0) ** (2.0 / 3.0)
        colt = _length_powers(config, t=t, batch=200 + b_idx)[:, 0]
        tail = float(np.mean(np.abs(colt - np.median(colt)) >= u_t))
        tail = max(tail, 0.5 / config.replications)
        shapes.append(thermo_exponent(u_t, t, alpha, d))
        neglogs.append(-math.log(tail))
    slope = float(np.polyfit(shapes, neglogs, 1)[0])
    return Metric(
        name="thermodynamic tail exponent slope", empirical=slope, theory=None,
        tolerance_name="tail_slope_min", verdict=slope > TOLERANCES["tail_slope_min"],
        anchor="thermodynamic-regime deviation exponent shape")


def verify_pp_conditions(config: ExperimentConfig) -> ExperimentReport:
    """Tabulate the convergence conditions along a t-grid (quadrature only)."""
    grid = config.intensity_grid()
    d = config.window.dim
    process_limit = _limit(config)
    alpha = process_limit.alpha
    kd = unit_ball_volume(d)
    levels = (0.5, 1.0, 2.0)
    # every radius before any quadrature: u^(1/alpha) leaves the floats at a tiny alpha
    rhos = {u: [_in_floats(config, lambda: process_limit.radius(t, config.delta_for(t), u),
                           "rho = min(delta, u^(1/alpha) t^(-2/d))",
                           f"alpha = {alpha!r}, u = {u!r}, t = {t!r}")
                for t in grid] for u in levels}
    metrics: list[Metric] = []
    for u in levels:
        # a_t(u) = E L^(0) at distance rho, r_t(u) = t kappa_d rho^d
        a_vals = [expectation_exact(config.window, t, rho, 0.0) for t, rho in zip(grid, rhos[u])]
        r_vals = [t * kd * rho**d for t, rho in zip(grid, rhos[u])]
        limit = process_limit.intensity(u)
        metrics += [
            _within(f"a_t(u={u}) at largest t", a_vals[-1], limit,
                    TOLERANCES["a_limit_rel"] * abs(limit), "a_limit_rel",
                    "mean count condition of the process limit"),
            _decreasing(f"r_t(u={u}) decreasing to zero", r_vals, "r_const_rel",
                        "local mass condition of the process limit", theory=0.0)]
        # r_t * t is constant once rho = u^(1/alpha) t^(-2/d) is below delta and the inradius
        ratios = [r_t * t / (kd * u ** (d / alpha))
                  for t, r_t, rho in zip(grid, r_vals, rhos[u])
                  if rho < min(config.delta_for(t), config.window.inradius)]
        if ratios:
            metrics.append(_within(f"r_t*t constancy (u={u})", ratios, 1.0,
                                   TOLERANCES["r_const_rel"], "r_const_rel",
                                   "interior local-mass value below the inradius"))
    return ExperimentReport(config.echo(), metrics)


# The rules of every run command, checked when its config is built (README's table mirrors
# them): verifier (None for simulate and predict, which are not verify kinds), alpha range,
# "one alpha" or "many" (LDI: one with a t_grid), Poisson model, builds graphs (reps is
# required and the memory budget applies), schedule, the interval c = lim t^2 delta^d lies
# in (inf without a schedule), and the intensities it samples at.
Suite = namedtuple("Suite", "verify alpha alphas poisson graph schedule c intensities")
_SUITES = {
    "Moments": Suite(verify_moments, "> -d/2", "many", True, True, False, "[0, inf]",
                     "one t or n"),
    "CLT": Suite(verify_clt, "> -d/2", "many", True, True, False, "[0, inf]",
                 "one t or a t_grid"),
    "MultivariateCov": Suite(verify_multivariate, "> -d/2", "many", True, True, True,
                             "[0, inf]", "one t or n"),
    "CompoundPoisson": Suite(verify_compound_poisson, "> 0", "one alpha", True, True, True,
                             "(0, inf)", "one t or a t_grid"),
    "OrderStatistics": Suite(verify_order_statistics, "> 0", "one alpha", True, True, False,
                             "(0, inf]", "one t or n"),
    "LDI": Suite(verify_ldi, ">= 0", "one alpha with a t_grid", False, True, False, "[0, inf]",
                 "one t or n, and a thermodynamic t_grid"),
    "PPConditions": Suite(verify_pp_conditions, "> 0", "one alpha", True, False, False,
                          "(0, inf]", "a t_grid of two or more"),
    "simulate": Suite(None, "> -inf", "many", False, True, False, "[0, inf]", "one t or n"),
    "predict": Suite(None, "> -d/2", "many", True, False, False, "[0, inf]", "one t or n"),
}
VERIFICATION_KINDS = tuple(kind for kind, suite in _SUITES.items() if suite.verify)


def _check_row(config: ExperimentConfig) -> None:
    """Check every rule of the config's _SUITES row, each error naming its kind;
    then, if the row builds graphs, reps and the memory budget."""
    kind, suite = config.kind, _SUITES[config.kind]
    alphas, grid = list(config.alphas), list(config.t_grid or ())
    op, bound = suite.alpha.split()
    floor = -config.window.dim / 2.0 if bound == "-d/2" else float(bound)
    bad = [a for a in alphas if a < floor or (op == ">" and a == floor)]
    if bad:
        raise ConfigError(f"{kind} needs alpha {op} {floor:g}, got {bad!r}")
    if suite.poisson and config.model != "poisson":  # at t = n its formulas do not hold
        raise ConfigError(f"{kind} needs the Poisson model (t, not n): its theory values "
                          f"are for a Poisson process")
    if suite.schedule and config.schedule is None:
        raise ConfigError(f"{kind} needs a schedule")
    c = _edge_limit(config)
    if (c == 0 and suite.c[0] == "(") or (c == math.inf and suite.c[-1] == ")"):
        raise ConfigError(f"{kind} needs a schedule with t^2 delta^d -> c in {suite.c}; "
                          f"this run gives c = {c:g}")
    thermo = config.schedule is not None \
        and config.schedule.classify(config.window.dim) == "thermodynamic"
    # whether the kind samples at the one t or n, and the fewest t of a t_grid it samples at
    use_single, least = {"one t or n": (True, 0), "one t or a t_grid": (not grid, 1),
                         "a t_grid of two or more": (False, 2),
                         "one t or n, and a thermodynamic t_grid": (True, 2 if thermo else 0),
                         }[suite.intensities]
    name, single = ("t", config.t) if config.model == "poisson" else ("n", config.n)
    if grid and not least:
        raise ConfigError(f"{kind} samples at {suite.intensities}, not at the t_grid {grid!r}")
    if single is not None and not use_single:
        raise ConfigError(f"{kind} samples at {suite.intensities}, not at {name} = {single:g}")
    if 0 < len(grid) < least or not (use_single or grid):
        raise ConfigError(f"{kind} needs a t_grid of two or more t, got {grid!r}")
    if use_single and single is None:
        raise ConfigError(f"{kind} needs a single {name}")
    if len(alphas) > 1 and (suite.alphas == "one alpha" or (suite.alphas != "many" and grid)):
        raise ConfigError(f"{kind} checks exactly {suite.alphas}, got {alphas!r}")
    if not suite.graph:
        return
    if config.replications is None:
        raise ConfigError(f"missing required key 'reps': {kind} builds graphs")
    # The memory budget: the n_jobs replications in flight may hold, at any t or n
    # of the config, at most EDGE_BUDGET edges (E[edges] <= t^2 kappa_d delta^d V / 2,
    # as g_W <= V; checked first) and POINT_BUDGET points (t V, or n). A run built a
    # chunk at a time (_chunk_size) has n_jobs chunks in flight instead, each of at
    # most _RUN_FLOOR replications that expect at most _CHUNK_POINTS points in all
    # and _BATCH_DEGREE[d - 1] / 2 edges per point. A chunk's points, edges and rows
    # peak at 0.9-6.3 MB, the most at one replication of 12,288 points in d = 3
    # at degree 4 (tracemalloc over run_replications, d = 1-3, 0.001 to 12,288
    # points per replication, with the length powers or every replication's own
    # EdgeSet), far inside both.
    window, in_flight = config.window, min(config.n_jobs, config.replications)
    for value in [v for v in (single, *grid) if v is not None]:
        t = value if name == "t" else value / window.volume
        edges = (t * t * unit_ball_volume(window.dim) * config.delta_for(value) ** window.dim
                 * window.volume / 2.0)
        if not edges * in_flight <= EDGE_BUDGET:  # a NaN estimate fails too
            note = "" if math.isfinite(edges) else ", an estimate that is not finite,"
            raise ConfigError(
                f"at {name} = {value:g} a replication expects up to {edges:.3g} edges "
                f"(t^2 kappa_d delta^d V / 2){note} and {in_flight} run at once, above the "
                f"budget of {EDGE_BUDGET:.3g} edges in memory; lower t, n, delta or n_jobs")
        points = float(value) * (window.volume if name == "t" else 1.0)
        if points * in_flight > POINT_BUDGET:
            raise ConfigError(
                f"at {name} = {value:g} a replication expects {points:.3g} points and "
                f"{in_flight} run at once, above the budget of {POINT_BUDGET:.3g} points in "
                f"memory; lower {name} or n_jobs")


def run_verification(config: ExperimentConfig) -> ExperimentReport:
    """The report of the config's verify kind; its rules were checked when it was built."""
    if _SUITES[config.kind].verify is None:
        raise ConfigError(f"{config.kind} is not a verify kind")
    return _SUITES[config.kind].verify(config)
