"""Monte Carlo verification harness.

Runs seeded replications of the Gilbert graph, estimates moments/tails/CDFs,
and compares them against the closed-form theory at named tolerances. Every
report is a pure function of (config, master_seed): replication r of stream s
draws from SeedSequence(master_seed, spawn_key=(s, batch, r)), and reductions
are order-independent, so serial and parallel runs give identical bytes.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from . import __version__
from .errors import (ConfigError, DegenerateVarianceError,
                     TooFewReplicationsError)
from .geometry import ConvexWindow, unit_ball_volume
from .gilbert_graph import _smallest_powers, build_edges, length_power, max_degree
from .point_process import (STREAM_PILOT, STREAM_REFERENCE, STREAM_SAMPLE,
                            PointSample, replication_rng, sample_binomial,
                            sample_poisson)
from .theory_deviations import (LdiInput, ldi_bound, ldi_envelope,
                                thermo_exponent)
from .theory_limits import (CompoundPoissonModel, EdgeLengthProcessLimit,
                            order_statistic_cdf, pp_condition_limits,
                            pp_conditions, sample_compound_poisson)
from .theory_moments import (RegimeSchedule, covariance_bounds,
                             covariance_exact, expectation_bounds,
                             expectation_exact, kolmogorov_bound,
                             normalization, sigma_matrix)

VERIFICATION_KINDS = ("Moments", "CLT", "MultivariateCov", "CompoundPoisson",
                      "OrderStatistics", "LDI", "PPConditions")

DEFAULT_TOLERANCES = {
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


@dataclass(frozen=True)
class ExperimentConfig:
    window: ConvexWindow
    model: str  # "poisson" | "binomial"
    alphas: tuple[float, ...]
    replications: int
    master_seed: int
    kind: str
    t: float | None = None
    n: int | None = None
    t_grid: tuple[float, ...] | None = None
    schedule: RegimeSchedule | None = None
    delta: float | None = None
    tolerances: dict = field(default_factory=dict)
    n_jobs: int = 1

    def __post_init__(self):
        if self.model not in ("poisson", "binomial"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.kind not in VERIFICATION_KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}")
        if self.replications < 2:
            raise ConfigError("replications must be >= 2")
        if self.delta is None and self.schedule is None:
            raise ConfigError("either delta or schedule must be given")
        positive = [("t", self.t), ("n", self.n), ("delta", self.delta)]
        positive += [("t_grid", v) for v in self.t_grid or ()]
        for key, val in positive:
            if val is not None and not (math.isfinite(val) and val > 0):
                raise ConfigError(f"{key} must be finite and > 0, got {val!r}")
        for alpha in self.alphas:
            if not math.isfinite(alpha):
                raise ConfigError(f"alpha must be finite, got {alpha!r}")
        if len(set(self.alphas)) != len(self.alphas):
            raise ConfigError(f"alphas must be distinct, got {list(self.alphas)!r}")
        if self.n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 1, got {self.n_jobs!r}")
        for key, val in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ConfigError(f"unknown tolerance {key!r}")
            signed = key in ("slope_max", "tail_slope_min")
            if not math.isfinite(val) or (val <= 0 and not signed):
                raise ConfigError(f"tolerance {key!r} must be finite and > 0, got {val!r}")

    def tolerance(self, name: str) -> float:
        return self.tolerances.get(name, DEFAULT_TOLERANCES[name])

    def intensity(self) -> float:
        """The single intensity of a run: t (Poisson model) or n (binomial)."""
        value = self.t if self.model == "poisson" else self.n
        if value is None:
            raise ConfigError(f"this run needs a single {'t' if self.model == 'poisson' else 'n'}")
        return float(value)

    def delta_for(self, t: float) -> float:
        if self.schedule is not None:
            return self.schedule.delta_at(t)
        return float(self.delta)

    def intensity_grid(self) -> tuple[float, ...]:
        return tuple(self.t_grid) if self.t_grid else (self.intensity(),)

    def echo(self) -> dict:
        out = {
            "window": self.window.label(),
            "dim": self.window.dim,
            "model": self.model,
            "alphas": list(self.alphas),
            "replications": self.replications,
            "seed": self.master_seed,
            "kind": self.kind,
            "tolerances": {k: self.tolerance(k) for k in sorted(DEFAULT_TOLERANCES)},
        }
        if self.t is not None:
            out["t"] = self.t
        if self.n is not None:
            out["n"] = self.n
        if self.t_grid:
            out["t_grid"] = list(self.t_grid)
        if self.schedule is not None:
            out["schedule"] = {"a": self.schedule.a, "gamma": self.schedule.gamma}
        if self.delta is not None:
            out["delta"] = self.delta
        return out


@dataclass
class ReplicationStats:
    """Per-replication statistics, rows ordered by replication index."""

    length_powers: np.ndarray          # (R, n_alphas)
    n_points: np.ndarray               # (R,)
    max_degrees: np.ndarray            # (R,)
    order_stats: np.ndarray | None = None     # (R, n_alphas, m)
    interval_counts: np.ndarray | None = None  # (R, n_intervals)


def replication_sample(config: ExperimentConfig, intensity: float, r: int, *,
                       stream: int = STREAM_SAMPLE, batch: int = 0) -> PointSample:
    """Point sample of replication r, drawn from replication_rng(seed, r, stream, batch)."""
    rng = replication_rng(config.master_seed, r, stream, batch)
    if config.model == "poisson":
        return sample_poisson(config.window, float(intensity), rng)
    return sample_binomial(config.window, int(intensity), rng)


def run_replications(config: ExperimentConfig, *, t: float | None = None,
                     reps: int | None = None, stream: int = STREAM_SAMPLE,
                     batch: int = 0, order_stat_count: int = 0,
                     interval_bounds: np.ndarray | None = None,
                     rescale: float = 1.0) -> ReplicationStats:
    """Sample, build edges, and evaluate the requested statistics per replication.

    Deterministic per (master_seed, stream, batch, index); interval_bounds are
    boundaries on the rescaled alpha-powers of the first configured alpha.
    """
    intensity = t if t is not None else config.intensity()
    dlt = config.delta_for(float(intensity))
    n_reps = int(reps if reps is not None else config.replications)
    alphas = config.alphas
    m = len(alphas)
    want_counts = interval_bounds is not None

    def one(r: int):
        sample = replication_sample(config, intensity, r, stream=stream, batch=batch)
        edges = build_edges(sample, dlt)
        row_l = length_power(edges, alphas)
        row_os = None
        if order_stat_count:
            row_os = np.stack([_smallest_powers(edges.lengths, a, order_stat_count)
                               for a in alphas])
        row_cnt = None
        if want_counts:
            powers = rescale * edges.lengths ** alphas[0]
            row_cnt = np.array([np.count_nonzero((powers >= lo) & (powers < hi))
                                for lo, hi in interval_bounds])
        return (row_l, sample.n_points, max_degree(edges), row_os, row_cnt)

    if config.n_jobs > 1:
        with ThreadPoolExecutor(max_workers=config.n_jobs) as pool:
            results = list(pool.map(one, range(n_reps)))
    else:
        results = [one(r) for r in range(n_reps)]

    out = ReplicationStats(
        length_powers=np.array([r[0] for r in results]).reshape(n_reps, m),
        n_points=np.array([r[1] for r in results]),
        max_degrees=np.array([r[2] for r in results]),
    )
    if order_stat_count:
        out.order_stats = np.array([r[3] for r in results])
    if want_counts:
        out.interval_counts = np.array([r[4] for r in results])
    return out


def empirical_moments(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column means, unbiased covariance, and standard errors of the means."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    r = matrix.shape[0]
    if r < 2:
        raise TooFewReplicationsError("need at least 2 replications")
    means = matrix.mean(axis=0)
    cov = np.atleast_2d(np.cov(matrix, rowvar=False, ddof=1))
    se = matrix.std(axis=0, ddof=1) / math.sqrt(r)
    return means, cov, se


def covariance_entry_se(matrix: np.ndarray) -> np.ndarray:
    """Moment-based standard errors of sample covariance entries.

    Var(s_ij) ~ (E[(x_i-mu_i)^2 (x_j-mu_j)^2] - c_ij^2)/R; unlike the
    normal-theory formula this stays honest for the heavy-tailed small-t data.
    """
    x = np.atleast_2d(np.asarray(matrix, dtype=float))
    r = x.shape[0]
    if r < 2:
        raise TooFewReplicationsError("need at least 2 replications")
    z = x - x.mean(axis=0)
    cov = z.T @ z / (r - 1)
    m22 = (z**2).T @ (z**2) / r
    return np.sqrt(np.maximum(m22 - cov**2, 0.0) / r)


class EmpiricalCdf:
    """Step CDF of a reference sample, with left limits for atom handling."""

    def __init__(self, samples: np.ndarray):
        self.sorted = np.sort(np.asarray(samples, dtype=float))
        self.n = self.sorted.size

    def __call__(self, x):
        return np.searchsorted(self.sorted, x, side="right") / self.n

    def left(self, x):
        return np.searchsorted(self.sorted, x, side="left") / self.n


def ks_statistic(samples, cdf, cdf_left=None) -> float:
    """sup_x |F_hat - F| over the sample points, both one-sided gaps.

    cdf_left supplies F(x-) for reference CDFs with atoms; +inf samples count
    as empirical mass never reached by the target CDF.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 1:
        raise ValueError("need at least one sample")
    finite = np.isfinite(x)
    xs = np.sort(x[finite])
    k = xs.size
    if k == 0:
        return 1.0
    fvals = np.asarray(cdf(xs), dtype=float)
    lvals = np.asarray(cdf_left(xs), dtype=float) if cdf_left is not None else fvals
    hi = np.arange(1, k + 1) / n
    lo = np.arange(0, k) / n
    d = max(float(np.max(hi - fvals)), float(np.max(lvals - lo)))
    if k < n:
        d = max(d, 1.0 - k / n)
    return max(d, 0.0)


def clopper_pearson_upper(k: int, n: int, confidence: float) -> float:
    """One-sided upper confidence bound for a binomial proportion."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if k == n:
        return 1.0
    return float(sps.beta.ppf(confidence, k + 1, n - k))


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
    tolerance_value: float | None = None  # None: config.tolerance(tolerance_name)


@dataclass
class ExperimentReport:
    config: dict
    metrics: list[Metric]
    seed: int
    version: str
    tables: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(m.verdict for m in self.metrics)


def _round_trip(value):
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, (list, tuple, np.ndarray)):
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
        "seed": report.seed,
        "version": report.version,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def replications_to_csv(stats: ReplicationStats, alphas) -> str:
    """Long-format per-replication dump: rep,alpha,L_value,n_points,max_degree,S1..S5."""
    lines = ["rep,alpha,L_value,n_points,max_degree,S1,S2,S3,S4,S5"]
    r_total = stats.length_powers.shape[0]
    for r in range(r_total):
        for k, alpha in enumerate(alphas):
            if stats.order_stats is not None:
                svals = stats.order_stats[r, k]
            else:
                svals = np.full(5, np.inf)
            srepr = ",".join(repr(float(v)) for v in svals)
            lines.append(f"{r},{alpha!r},{float(stats.length_powers[r, k])!r},"
                         f"{stats.n_points[r]},{stats.max_degrees[r]},{srepr}")
    return "\n".join(lines) + "\n"


def ldi_table_to_csv(table: dict) -> str:
    lines = ["u,empirical_tail,ldi_bound,ldi_envelope"]
    for u, p, b, e in zip(table["u"], table["empirical_tail"],
                          table["ldi_bound"], table["ldi_envelope"]):
        lines.append(f"{u!r},{p!r},{b!r},{e!r}")
    return "\n".join(lines) + "\n"


def _finish(config: ExperimentConfig, metrics: list[Metric],
            tables: dict | None = None) -> ExperimentReport:
    """The suite's report; each metric without a per-entry tolerance value
    reports config.tolerance(tolerance_name), the value its verdict used."""
    for m in metrics:
        if m.tolerance_value is None:
            m.tolerance_value = config.tolerance(m.tolerance_name)
    return ExperimentReport(config=config.echo(), metrics=metrics,
                            seed=config.master_seed, version=__version__,
                            tables=tables or {})


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _normal_ks(col: np.ndarray) -> float:
    """KS distance between the standardised column and the standard normal law."""
    sd = col.std(ddof=1)
    z = (col - col.mean()) / sd if sd > 0 else col * 0.0
    return ks_statistic(z, sps.norm.cdf)


def _moment_metrics(config: ExperimentConfig, t: float, delta: float,
                    matrix: np.ndarray) -> list[Metric]:
    window = config.window
    k_se = config.tolerance("mean_se_mult")
    rel = config.tolerance("cov_rel")
    means, cov, se = empirical_moments(matrix)
    cse = covariance_entry_se(matrix)
    metrics = []
    for i, alpha in enumerate(config.alphas):
        exact = expectation_exact(window, t, delta, alpha)
        lo, hi = expectation_bounds(window, t, delta, alpha)
        tol = k_se * se[i]
        metrics.append(Metric(
            name=f"mean[alpha={alpha}] vs exact", empirical=float(means[i]),
            theory=exact, se=float(se[i]), tolerance_name="mean_se_mult",
            verdict=abs(means[i] - exact) <= tol,
            anchor="mean: closed-form radial covariogram integral"))
        metrics.append(Metric(
            name=f"mean[alpha={alpha}] in sandwich", empirical=float(means[i]),
            theory=(lo, hi), se=float(se[i]), tolerance_name="mean_se_mult",
            verdict=(lo - tol) <= means[i] <= (hi + tol),
            anchor="mean sandwich: volume and surface-correction bounds"))
    for i in range(len(config.alphas)):
        for j in range(i, len(config.alphas)):
            a, b = config.alphas[i], config.alphas[j]
            exact = covariance_exact(window, t, delta, a, b)
            lo, hi = covariance_bounds(window, t, delta, a, b)
            widen = k_se * cse[i, j]
            metrics.append(Metric(
                name=f"cov[{a},{b}] in sandwich", empirical=float(cov[i, j]),
                theory=(lo, hi), se=float(cse[i, j]), tolerance_name="mean_se_mult",
                verdict=(lo - widen) <= cov[i, j] <= (hi + widen),
                anchor="covariance sandwich with inner-parallel volume bound"))
            metrics.append(Metric(
                name=f"cov[{a},{b}] vs exact", empirical=float(cov[i, j]),
                theory=exact, se=float(cse[i, j]), tolerance_name="cov_rel",
                verdict=abs(cov[i, j] - exact) <= max(rel * abs(exact), widen),
                anchor="covariance: quadrature of the two-point moment split"))
    return metrics


def verify_moments(config: ExperimentConfig) -> ExperimentReport:
    """Sample means/covariances against exact values and sandwiches."""
    t = config.intensity()
    delta = config.delta_for(t)
    stats = run_replications(config)
    metrics = _moment_metrics(config, t, delta, stats.length_powers)
    return _finish(config, metrics)


def verify_clt(config: ExperimentConfig) -> ExperimentReport:
    """Standardized KS against the normal law along a t-grid, with the
    explicit Kolmogorov bound and a log-log rate-shape check."""
    grid = config.intensity_grid()
    ks_tol = config.tolerance("ks")
    slope_max = config.tolerance("slope_max")
    metrics: list[Metric] = []
    ks_by_alpha = {a: [] for a in config.alphas}
    for b_idx, t in enumerate(grid):
        delta = config.delta_for(t)
        stats = run_replications(config, t=t, batch=b_idx)
        for i, alpha in enumerate(config.alphas):
            ks = _normal_ks(stats.length_powers[:, i])
            ks_by_alpha[alpha].append(ks)
            try:
                bound = kolmogorov_bound(config.window, t, delta, alpha)
            except DegenerateVarianceError:
                # sandwich lower bound collapses for small windows; the exact
                # variance keeps the bound valid (just slower)
                bound = kolmogorov_bound(config.window, t, delta, alpha,
                                         exact_variance=True)
            metrics.append(Metric(
                name=f"KS[alpha={alpha}, t={t:g}] vs normal bound", empirical=ks,
                theory=bound, tolerance_name="ks", verdict=ks <= bound,
                anchor="normal approximation: explicit Kolmogorov-distance bound"))
    for alpha, ks_list in ks_by_alpha.items():
        metrics.append(Metric(
            name=f"KS[alpha={alpha}] final", empirical=ks_list[-1], theory=0.0,
            tolerance_name="ks", verdict=ks_list[-1] <= ks_tol,
            anchor="normal approximation at the largest intensity"))
        if len(ks_list) >= 2:
            decreasing = all(b < a for a, b in zip(ks_list[:-1], ks_list[1:]))
            metrics.append(Metric(
                name=f"KS[alpha={alpha}] decreasing", empirical=ks_list, theory=None,
                tolerance_name="ks", verdict=decreasing,
                anchor="normal approximation error decays with intensity"))
            slope = float(np.polyfit(np.log(grid), np.log(ks_list), 1)[0])
            metrics.append(Metric(
                name=f"KS[alpha={alpha}] log-log slope", empirical=slope,
                theory=-0.5, tolerance_name="slope_max", verdict=slope <= slope_max,
                anchor="rate shape: KS decays like an inverse square root"))
    return _finish(config, metrics)


def verify_multivariate(config: ExperimentConfig) -> ExperimentReport:
    """Scaled covariance against the regime matrix; marginal normality or
    dense-regime rank collapse."""
    if config.schedule is None:
        raise ConfigError("MultivariateCov needs a schedule")
    t = config.intensity()
    delta = config.delta_for(t)
    d = config.window.dim
    stats = run_replications(config)
    norms = np.array([normalization(t, delta, a, d) for a in config.alphas])
    exacts = np.array([expectation_exact(config.window, t, delta, a) for a in config.alphas])
    scaled = (stats.length_powers - exacts) / norms
    _, cov, _ = empirical_moments(scaled)
    sig = sigma_matrix(config.alphas, d, config.window.volume, config.schedule)
    cse = covariance_entry_se(scaled)
    abs_tol = config.tolerance("cov_entry_abs")
    k_se = config.tolerance("mean_se_mult")
    metrics = []
    for i in range(len(config.alphas)):
        for j in range(i, len(config.alphas)):
            tol = max(abs_tol, k_se * cse[i, j])
            metrics.append(Metric(
                name=f"Sigma[{config.alphas[i]},{config.alphas[j]}]",
                empirical=float(cov[i, j]), theory=float(sig[i, j]),
                se=float(cse[i, j]), tolerance_name="cov_entry_abs",
                tolerance_value=tol, verdict=abs(cov[i, j] - sig[i, j]) <= tol,
                anchor="asymptotic covariance matrix by regime"))
    regime = config.schedule.classify(d)
    if regime == "dense":
        eig = float(np.linalg.eigvalsh(cov)[0])
        metrics.append(Metric(
            name="dense-regime smallest eigenvalue", empirical=eig, theory=0.0,
            tolerance_name="eig_max", verdict=eig <= config.tolerance("eig_max"),
            anchor="rank-one limit covariance in the dense regime"))
    else:
        ks_tol = config.tolerance("ks")
        for i, alpha in enumerate(config.alphas):
            ks = _normal_ks(scaled[:, i])
            metrics.append(Metric(
                name=f"marginal KS[alpha={alpha}]", empirical=ks, theory=0.0,
                tolerance_name="ks", verdict=ks <= ks_tol,
                anchor="multivariate normal limit: marginal distribution check"))
    return _finish(config, metrics)


def verify_compound_poisson(config: ExperimentConfig) -> ExperimentReport:
    """Rescaled functional against the compound-Poisson limit along a t-grid."""
    if config.schedule is None:
        raise ConfigError("CompoundPoisson needs a schedule")
    grid = config.intensity_grid()
    d = config.window.dim
    alpha = config.alphas[0]
    c = config.schedule.edge_constant(d)
    if not math.isfinite(c) or c <= 0:
        raise ConfigError("CompoundPoisson needs t^2 delta^d -> c in (0, inf)")
    model = CompoundPoissonModel(c=c, dim=d, alpha=alpha, volume=config.window.volume)
    ref_rng = replication_rng(config.master_seed, 0, STREAM_REFERENCE)
    reference = sample_compound_poisson(model, ref_rng, 1_000_000)
    ref_cdf = EmpiricalCdf(reference)
    ks_tol = config.tolerance("ks")
    k_se = config.tolerance("mean_se_mult")
    metrics: list[Metric] = []
    ks_list = []
    for b_idx, t in enumerate(grid):
        stats = run_replications(config, t=t, batch=b_idx)
        rescaled = t ** (2.0 * alpha / d) * stats.length_powers[:, 0]
        ks = ks_statistic(rescaled, ref_cdf, cdf_left=ref_cdf.left)
        ks_list.append(ks)
        if b_idx == len(grid) - 1:
            atom = float(np.mean(stats.length_powers[:, 0] == 0.0))
            se = math.sqrt(max(atom * (1.0 - atom), 1e-12) / config.replications)
            metrics.append(Metric(
                name="void probability P(L=0)", empirical=atom,
                theory=model.atom_at_zero, se=se, tolerance_name="mean_se_mult",
                verdict=abs(atom - model.atom_at_zero) <= k_se * se,
                anchor="compound Poisson limit: atom at zero"))
    metrics.append(Metric(
        name="KS vs compound-Poisson reference (final)", empirical=ks_list[-1],
        theory=0.0, tolerance_name="ks", verdict=ks_list[-1] <= ks_tol,
        anchor="compound Poisson limit of the rescaled functional"))
    if len(ks_list) >= 2:
        metrics.append(Metric(
            name="KS vs compound-Poisson reference decreasing", empirical=ks_list,
            theory=None, tolerance_name="ks",
            verdict=all(b < a for a, b in zip(ks_list[:-1], ks_list[1:])),
            anchor="compound Poisson approximation improves with intensity"))
    return _finish(config, metrics)


def _edge_limit(config: ExperimentConfig) -> float | None:
    """lim t^2 delta^d of the run's schedule; None when it is infinite.

    The edge-length process limits need a positive limit; a schedule whose
    t^2 delta^d tends to 0 has no edges in the limit.
    """
    if config.schedule is None:
        return None
    c = config.schedule.edge_constant(config.window.dim)
    if c <= 0:
        raise ConfigError(f"{config.kind} needs t^2 delta^d -> c in (0, inf]; "
                          f"this schedule gives c = 0")
    return None if math.isinf(c) else c


def verify_order_statistics(config: ExperimentConfig) -> ExperimentReport:
    """Rescaled order statistics against the limit laws; interval counts
    approximately independent with the intensity-measure means."""
    t = config.intensity()
    d = config.window.dim
    alpha = config.alphas[0]
    c = _edge_limit(config)
    limit = EdgeLengthProcessLimit(alpha=alpha, edge_constant=c)
    rescale = t ** (2.0 * alpha / d)
    kd = unit_ball_volume(d)
    v = config.window.volume
    # Interval boundaries with unit limiting mass each: nu([0,u_k]) = k.
    bounds = [(2.0 * k / (kd * v)) ** (alpha / d) for k in range(4)]
    intervals = np.array(list(zip(bounds[:-1], bounds[1:])))
    stats = run_replications(config, order_stat_count=5,
                             interval_bounds=intervals, rescale=rescale)
    metrics: list[Metric] = []
    for m in range(1, 6):
        samples = rescale * stats.order_stats[:, 0, m - 1]
        ks = ks_statistic(samples, lambda u, m=m: np.array(
            [order_statistic_cdf(m, float(x), limit, v, d) for x in np.atleast_1d(u)]))
        tol_name = "ks_first_order_stat" if m == 1 else "ks"
        metrics.append(Metric(
            name=f"KS order statistic m={m}", empirical=ks, theory=0.0,
            tolerance_name=tol_name, verdict=ks <= config.tolerance(tol_name),
            anchor="order-statistic limit law of rescaled edge-length powers"))
    counts = stats.interval_counts
    k_se = config.tolerance("mean_se_mult")

    def mass(u: float) -> float:
        value = u ** (d / alpha)
        return min(value, c) if c is not None else value

    for k, (lo, hi) in enumerate(intervals):
        nu = 0.5 * kd * v * (mass(hi) - mass(lo))
        mean = float(counts[:, k].mean())
        se = float(counts[:, k].std(ddof=1)) / math.sqrt(config.replications)
        metrics.append(Metric(
            name=f"interval count mean [{lo:.4g},{hi:.4g})", empirical=mean,
            theory=nu, se=se, tolerance_name="mean_se_mult",
            verdict=abs(mean - nu) <= k_se * se,
            anchor="intensity measure of the limiting edge-length process"))
    cc = np.corrcoef(counts, rowvar=False)
    max_corr = float(np.max(np.abs(cc - np.eye(cc.shape[0]))))
    metrics.append(Metric(
        name="interval count max |corr|", empirical=max_corr, theory=0.0,
        tolerance_name="corr_max", verdict=max_corr <= config.tolerance("corr_max"),
        anchor="independence over disjoint sets in the Poisson process limit"))
    return _finish(config, metrics)


def verify_ldi(config: ExperimentConfig) -> ExperimentReport:
    """Empirical tails (Clopper-Pearson upper bounds) below both deviation
    bounds on a u-grid; optional thermodynamic slope test along a t-grid."""
    metrics: list[Metric] = []
    tables: dict = {}
    conf = config.tolerance("cp_confidence")
    pilot_reps = max(2, config.replications // 2)
    intensity = config.intensity()
    delta = config.delta_for(intensity)
    pilot = run_replications(config, reps=pilot_reps, stream=STREAM_PILOT)
    test = run_replications(config)
    for i, alpha in enumerate(config.alphas):
        med = float(np.median(pilot.length_powers[:, i]))
        dev_max = float(np.max(np.abs(pilot.length_powers[:, i] - med)))
        # Grid up to twice the largest pilot deviation: beyond that the bounds
        # decay below what a zero-hit tail estimate can statistically resolve.
        scale = dev_max if dev_max > 0 else max(med, 1.0)
        u_grid = np.geomspace(scale / 50.0, 2.0 * scale, 20)
        devs = np.abs(test.length_powers[:, i] - med)
        rows = {"u": [], "empirical_tail": [], "ldi_bound": [], "ldi_envelope": []}
        ok_bound = True
        ok_env = True
        worst_margin = math.inf
        for u in u_grid:
            k = int(np.count_nonzero(devs >= u))
            upper = clopper_pearson_upper(k, config.replications, conf)
            inp = LdiInput(mode=config.model, window=config.window, delta=delta,
                           alpha=alpha, median=med, u=float(u),
                           t=intensity if config.model == "poisson" else None,
                           n=int(intensity) if config.model == "binomial" else None)
            bnd = ldi_bound(inp)
            env = ldi_envelope(inp)
            rows["u"].append(float(u))
            rows["empirical_tail"].append(k / config.replications)
            rows["ldi_bound"].append(bnd)
            rows["ldi_envelope"].append(env)
            ok_bound &= upper <= bnd
            ok_env &= upper <= env
            worst_margin = min(worst_margin, bnd - upper, env - upper)
        tables[f"ldi_alpha_{alpha}"] = rows
        for bound, ok, form in (("optimized", ok_bound, "s-optimized"),
                                ("envelope", ok_env, "explicit envelope")):
            metrics.append(Metric(
                name=f"tails below {bound} bound [alpha={alpha}]",
                empirical=worst_margin, theory=0.0, tolerance_name="cp_confidence",
                verdict=ok, anchor=f"median deviation inequality, {form}"))
    if config.t_grid and config.schedule is not None \
            and config.schedule.classify(config.window.dim) == "thermodynamic" \
            and config.model == "poisson":
        metrics.append(_thermo_slope_metric(config))
    return _finish(config, metrics, tables)


def _thermo_slope_metric(config: ExperimentConfig) -> Metric:
    """Slope of -log empirical tail against the thermodynamic exponent shape."""
    grid = config.intensity_grid()
    d = config.window.dim
    alpha = config.alphas[0]
    t0 = grid[0]
    pilot = run_replications(config, t=t0, reps=max(2, config.replications // 2),
                             stream=STREAM_PILOT, batch=100)
    col = pilot.length_powers[:, 0]
    med0 = float(np.median(col))
    u0 = float(np.quantile(np.abs(col - med0), 0.98))
    shapes = []
    neglogs = []
    for b_idx, t in enumerate(grid):
        u_t = u0 * (t / t0) ** (2.0 / 3.0)
        stats = run_replications(config, t=t, batch=200 + b_idx)
        colt = stats.length_powers[:, 0]
        tail = float(np.mean(np.abs(colt - np.median(colt)) >= u_t))
        tail = max(tail, 0.5 / config.replications)
        shapes.append(thermo_exponent(u_t, t, alpha, d))
        neglogs.append(-math.log(tail))
    slope = float(np.polyfit(shapes, neglogs, 1)[0])
    return Metric(
        name="thermodynamic tail exponent slope", empirical=slope, theory=None,
        tolerance_name="tail_slope_min", verdict=slope > config.tolerance("tail_slope_min"),
        anchor="thermodynamic-regime deviation exponent shape")


def verify_pp_conditions(config: ExperimentConfig) -> ExperimentReport:
    """Tabulate the convergence conditions along a t-grid (quadrature only)."""
    grid = config.intensity_grid()
    if len(grid) < 2:
        raise ConfigError("PPConditions needs a t_grid")
    d = config.window.dim
    alpha = config.alphas[0]
    edge_c = _edge_limit(config)
    kd = unit_ball_volume(d)
    a_rel = config.tolerance("a_limit_rel")
    r_rel = config.tolerance("r_const_rel")
    metrics: list[Metric] = []
    for u in (0.5, 1.0, 2.0):
        a_vals = []
        r_vals = []
        for t in grid:
            a_t, r_t = pp_conditions(config.window, t, config.delta_for(t), alpha, u)
            a_vals.append(a_t)
            r_vals.append(r_t)
        limit = pp_condition_limits(config.window, alpha, u, edge_c)
        metrics.append(Metric(
            name=f"a_t(u={u}) at largest t", empirical=a_vals[-1], theory=limit,
            tolerance_name="a_limit_rel",
            verdict=abs(a_vals[-1] - limit) <= a_rel * abs(limit),
            anchor="mean count condition of the process limit"))
        metrics.append(Metric(
            name=f"r_t(u={u}) decreasing to zero", empirical=r_vals, theory=0.0,
            tolerance_name="r_const_rel",
            verdict=all(b < a for a, b in zip(r_vals[:-1], r_vals[1:])),
            anchor="local mass condition of the process limit"))
        ratios = []
        for t, r_t in zip(grid, r_vals):
            rho = u ** (1.0 / alpha) * t ** (-2.0 / d)
            if rho < min(config.delta_for(t), config.window.inradius):
                ratios.append(r_t * t / (kd * u ** (d / alpha)))
        if ratios:
            worst = max(abs(x - 1.0) for x in ratios)
            metrics.append(Metric(
                name=f"r_t*t constancy (u={u})", empirical=ratios,
                theory=1.0, tolerance_name="r_const_rel", verdict=worst <= r_rel,
                anchor="interior local-mass value below the inradius"))
    return _finish(config, metrics)


_VERIFIERS = {
    "Moments": verify_moments,
    "CLT": verify_clt,
    "MultivariateCov": verify_multivariate,
    "CompoundPoisson": verify_compound_poisson,
    "OrderStatistics": verify_order_statistics,
    "LDI": verify_ldi,
    "PPConditions": verify_pp_conditions,
}


def _check_alpha_range(config: ExperimentConfig) -> None:
    """Reject alphas outside the suite's range before any replication runs.

    Moments, CLT and MultivariateCov need Var L^(alpha) finite, alpha > -d/2;
    the limit laws need alpha > 0 and the deviation bounds alpha >= 0.
    """
    if config.kind in ("Moments", "CLT", "MultivariateCov"):
        floor, strict = -config.window.dim / 2.0, True
    else:
        floor, strict = 0.0, config.kind != "LDI"
    bad = [a for a in config.alphas if a < floor or (strict and a == floor)]
    if bad:
        raise ConfigError(f"{config.kind} needs alpha {'>' if strict else '>='} {floor:g}, "
                          f"got {bad!r}")


def run_verification(config: ExperimentConfig) -> ExperimentReport:
    """Check the alpha range, then dispatch to the suite named by config.kind."""
    _check_alpha_range(config)
    return _VERIFIERS[config.kind](config)
