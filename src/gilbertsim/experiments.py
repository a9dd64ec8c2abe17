"""Monte Carlo verification harness.

Runs seeded replications of the Gilbert graph, estimates moments/tails/CDFs,
and compares them against the closed-form theory at named tolerances. Every
report is a pure function of (config, master_seed): replication r of stream s
draws from SeedSequence(master_seed, spawn_key=(s, batch, r)), and its reduced
row is stacked in replication order, so serial and parallel runs give
identical bytes. Every verdict is built by one of a few check shapes (within,
sandwich, below, decreasing).
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


def replication_sample(config: ExperimentConfig, intensity: float, r: int, *,
                       stream: int = STREAM_SAMPLE, batch: int = 0) -> PointSample:
    """Point sample of replication r, drawn from replication_rng(seed, r, stream, batch)."""
    rng = replication_rng(config.master_seed, r, stream, batch)
    if config.model == "poisson":
        return sample_poisson(config.window, float(intensity), rng)
    return sample_binomial(config.window, int(intensity), rng)


def run_replications(config: ExperimentConfig, reduce, *, t: float | None = None,
                     reps: int | None = None, stream: int = STREAM_SAMPLE,
                     batch: int = 0) -> np.ndarray:
    """Rows reduce(sample, edges), one per replication, stacked in replication order.

    Replication r is a pure function of (master_seed, stream, batch, r), so the
    rows are the same whether they run serially or on n_jobs threads.
    """
    intensity = t if t is not None else config.intensity()
    dlt = config.delta_for(float(intensity))
    n_reps = int(reps if reps is not None else config.replications)

    def one(r: int):
        sample = replication_sample(config, intensity, r, stream=stream, batch=batch)
        return reduce(sample, build_edges(sample, dlt))

    if config.n_jobs > 1:
        with ThreadPoolExecutor(max_workers=config.n_jobs) as pool:
            return np.array(list(pool.map(one, range(n_reps))))
    return np.array([one(r) for r in range(n_reps)])


def _length_powers(config: ExperimentConfig, **kwargs) -> np.ndarray:
    """(R, n_alphas) matrix of L^(alpha); kwargs are run_replications' t, reps, stream, batch."""
    return run_replications(config, lambda sample, edges: length_power(edges, config.alphas),
                            **kwargs)


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
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)  # "inf", "-inf" or "nan": JSON has no non-finite numbers
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
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def simulate_row(alphas):
    """The reduction behind `simulate`'s CSV: per alpha, one row
    (L, n_points, max_degree, S1..S5) with S the 5 smallest length powers."""
    def reduce(sample, edges):
        powers = length_power(edges, alphas)
        degree = max_degree(edges)
        return np.array([[powers[k], sample.n_points, degree,
                          *_smallest_powers(edges.lengths, alpha, 5)]
                         for k, alpha in enumerate(alphas)])
    return reduce


def replications_to_csv(rows: np.ndarray, alphas) -> str:
    """Long-format dump of simulate_row's rows: rep,alpha,L_value,n_points,max_degree,S1..S5."""
    lines = ["rep,alpha,L_value,n_points,max_degree,S1,S2,S3,S4,S5"]
    for r, block in enumerate(rows):
        for alpha, (value, n_points, degree, *smallest) in zip(alphas, block):
            srepr = ",".join(repr(float(v)) for v in smallest)
            lines.append(f"{r},{alpha!r},{float(value)!r},{int(n_points)},{int(degree)},{srepr}")
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

def _within(name: str, empirical, theory, allowed: float, tolerance_name: str,
            anchor: str, se: float | None = None,
            tolerance_value: float | None = None) -> Metric:
    """Pass when every |empirical - theory| <= allowed (k*SE, or a relative or
    absolute tolerance); empirical is a value or a list of values."""
    gap = float(np.max(np.abs(np.subtract(empirical, theory))))
    return Metric(name=name, empirical=empirical, theory=theory, se=se,
                  tolerance_name=tolerance_name, tolerance_value=tolerance_value,
                  verdict=gap <= allowed, anchor=anchor)


def _sandwich(config: ExperimentConfig, name: str, value: float, bounds, se: float,
              anchor: str) -> Metric:
    """Pass when value lies in the theory sandwich (lo, hi), each end widened by k*SE."""
    lo, hi = bounds
    widen = config.tolerance("mean_se_mult") * se
    return Metric(name=name, empirical=value, theory=bounds, se=se,
                  tolerance_name="mean_se_mult", verdict=lo - widen <= value <= hi + widen,
                  anchor=anchor)


def _below(name: str, value: float, limit: float, tolerance_name: str, anchor: str,
           theory=0.0) -> Metric:
    """Pass when value <= limit: a KS distance, slope, eigenvalue or correlation."""
    return Metric(name=name, empirical=value, theory=theory, tolerance_name=tolerance_name,
                  verdict=value <= limit, anchor=anchor)


def _decreasing(name: str, values, tolerance_name: str, anchor: str, theory=None) -> Metric:
    """Pass when values fall strictly from each t of the grid to the next."""
    return Metric(name=name, empirical=values, theory=theory, tolerance_name=tolerance_name,
                  verdict=all(b < a for a, b in zip(values[:-1], values[1:])), anchor=anchor)


def _ks_along_grid(config: ExperimentConfig, ks_list: list[float], final: str,
                   final_anchor: str, falling: str, falling_anchor: str) -> list[Metric]:
    """The KS at the largest t below its tolerance and, on a grid of two or
    more t, the KS distances strictly decreasing along it."""
    metrics = [_below(final, ks_list[-1], config.tolerance("ks"), "ks", final_anchor)]
    if len(ks_list) >= 2:
        metrics.append(_decreasing(falling, ks_list, "ks", falling_anchor))
    return metrics


def _normal_ks(col: np.ndarray) -> float:
    """KS distance between the standardised column and the standard normal law."""
    sd = col.std(ddof=1)
    z = (col - col.mean()) / sd if sd > 0 else col * 0.0
    return ks_statistic(z, sps.norm.cdf)


def _moment_metrics(config: ExperimentConfig, t: float, delta: float,
                    matrix: np.ndarray) -> list[Metric]:
    window = config.window
    alphas = config.alphas
    k_se = config.tolerance("mean_se_mult")
    rel = config.tolerance("cov_rel")
    means, cov, se = empirical_moments(matrix)
    cse = covariance_entry_se(matrix)
    metrics = []
    for i, alpha in enumerate(alphas):
        mean, mse = float(means[i]), float(se[i])
        metrics += [
            _within(f"mean[alpha={alpha}] vs exact", mean,
                    expectation_exact(window, t, delta, alpha), k_se * mse, "mean_se_mult",
                    "mean: closed-form radial covariogram integral", se=mse),
            _sandwich(config, f"mean[alpha={alpha}] in sandwich", mean,
                      expectation_bounds(window, t, delta, alpha), mse,
                      "mean sandwich: volume and surface-correction bounds")]
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas[i:], i):
            value, vse = float(cov[i, j]), float(cse[i, j])
            exact = covariance_exact(window, t, delta, a, b)
            metrics += [
                _sandwich(config, f"cov[{a},{b}] in sandwich", value,
                          covariance_bounds(window, t, delta, a, b), vse,
                          "covariance sandwich with inner-parallel volume bound"),
                _within(f"cov[{a},{b}] vs exact", value, exact, max(rel * abs(exact), k_se * vse),
                        "cov_rel", "covariance: quadrature of the two-point moment split",
                        se=vse)]
    return metrics


def verify_moments(config: ExperimentConfig) -> ExperimentReport:
    """Sample means/covariances against exact values and sandwiches."""
    t = config.intensity()
    delta = config.delta_for(t)
    return _finish(config, _moment_metrics(config, t, delta, _length_powers(config)))


def verify_clt(config: ExperimentConfig) -> ExperimentReport:
    """Standardized KS against the normal law along a t-grid, with the
    explicit Kolmogorov bound and a log-log rate-shape check."""
    grid = config.intensity_grid()
    metrics: list[Metric] = []
    ks_by_alpha = {a: [] for a in config.alphas}
    for b_idx, t in enumerate(grid):
        delta = config.delta_for(t)
        powers = _length_powers(config, t=t, batch=b_idx)
        for i, alpha in enumerate(config.alphas):
            ks = _normal_ks(powers[:, i])
            ks_by_alpha[alpha].append(ks)
            try:
                bound = kolmogorov_bound(config.window, t, delta, alpha)
            except DegenerateVarianceError:
                # sandwich lower bound collapses for small windows; the exact
                # variance keeps the bound valid (just slower)
                bound = kolmogorov_bound(config.window, t, delta, alpha,
                                         exact_variance=True)
            metrics.append(_below(f"KS[alpha={alpha}, t={t:g}] vs normal bound", ks, bound, "ks",
                                  "normal approximation: explicit Kolmogorov-distance bound",
                                  theory=bound))
    for alpha, ks_list in ks_by_alpha.items():
        metrics += _ks_along_grid(
            config, ks_list, f"KS[alpha={alpha}] final",
            "normal approximation at the largest intensity", f"KS[alpha={alpha}] decreasing",
            "normal approximation error decays with intensity")
        if len(ks_list) >= 2:
            slope = float(np.polyfit(np.log(grid), np.log(ks_list), 1)[0])
            metrics.append(_below(f"KS[alpha={alpha}] log-log slope", slope,
                                  config.tolerance("slope_max"), "slope_max",
                                  "rate shape: KS decays like an inverse square root",
                                  theory=-0.5))
    return _finish(config, metrics)


def verify_multivariate(config: ExperimentConfig) -> ExperimentReport:
    """Scaled covariance against the regime matrix; marginal normality or
    dense-regime rank collapse."""
    if config.schedule is None:
        raise ConfigError("MultivariateCov needs a schedule")
    t = config.intensity()
    delta = config.delta_for(t)
    d = config.window.dim
    alphas = config.alphas
    norms = np.array([normalization(t, delta, a, d) for a in alphas])
    exacts = np.array([expectation_exact(config.window, t, delta, a) for a in alphas])
    scaled = (_length_powers(config) - exacts) / norms
    _, cov, _ = empirical_moments(scaled)
    sig = sigma_matrix(alphas, d, config.window.volume, config.schedule)
    cse = covariance_entry_se(scaled)
    abs_tol = config.tolerance("cov_entry_abs")
    k_se = config.tolerance("mean_se_mult")
    metrics = []
    for i, a in enumerate(alphas):
        for j, b in enumerate(alphas[i:], i):
            tol = max(abs_tol, k_se * cse[i, j])
            metrics.append(_within(f"Sigma[{a},{b}]", float(cov[i, j]), float(sig[i, j]), tol,
                                   "cov_entry_abs", "asymptotic covariance matrix by regime",
                                   se=float(cse[i, j]), tolerance_value=tol))
    if config.schedule.classify(d) == "dense":
        metrics.append(_below("dense-regime smallest eigenvalue",
                              float(np.linalg.eigvalsh(cov)[0]), config.tolerance("eig_max"),
                              "eig_max", "rank-one limit covariance in the dense regime"))
    else:
        metrics += [_below(f"marginal KS[alpha={alpha}]", _normal_ks(scaled[:, i]),
                           config.tolerance("ks"), "ks",
                           "multivariate normal limit: marginal distribution check")
                    for i, alpha in enumerate(alphas)]
    return _finish(config, metrics)


def verify_compound_poisson(config: ExperimentConfig) -> ExperimentReport:
    """Rescaled functional against the compound-Poisson limit along a t-grid."""
    d = config.window.dim
    (alpha,) = config.alphas
    c = config.schedule.edge_constant(d) if config.schedule is not None else math.inf
    if not 0 < c < math.inf:
        raise ConfigError("CompoundPoisson needs a schedule with t^2 delta^d -> c in (0, inf)")
    model = CompoundPoissonModel(c=c, dim=d, alpha=alpha, volume=config.window.volume)
    ref_rng = replication_rng(config.master_seed, 0, STREAM_REFERENCE)
    ref_cdf = EmpiricalCdf(sample_compound_poisson(model, ref_rng, 1_000_000))
    ks_list = []
    for b_idx, t in enumerate(config.intensity_grid()):
        powers = _length_powers(config, t=t, batch=b_idx)[:, 0]
        ks_list.append(ks_statistic(t ** (2.0 * alpha / d) * powers, ref_cdf,
                                    cdf_left=ref_cdf.left))
    atom = float(np.mean(powers == 0.0))  # at the largest t
    se = math.sqrt(max(atom * (1.0 - atom), 1e-12) / config.replications)
    metrics = [_within("void probability P(L=0)", atom, model.atom_at_zero,
                       config.tolerance("mean_se_mult") * se, "mean_se_mult",
                       "compound Poisson limit: atom at zero", se=se)]
    metrics += _ks_along_grid(
        config, ks_list, "KS vs compound-Poisson reference (final)",
        "compound Poisson limit of the rescaled functional",
        "KS vs compound-Poisson reference decreasing",
        "compound Poisson approximation improves with intensity")
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
    (alpha,) = config.alphas
    c = _edge_limit(config)
    limit = EdgeLengthProcessLimit(alpha=alpha, edge_constant=c)
    rescale = t ** (2.0 * alpha / d)
    kd = unit_ball_volume(d)
    v = config.window.volume
    # Interval boundaries with unit limiting mass each: nu([0,u_k]) = k.
    bounds = [(2.0 * k / (kd * v)) ** (alpha / d) for k in range(4)]
    intervals = list(zip(bounds[:-1], bounds[1:]))

    def reduce(sample, edges):
        # the 5 smallest powers, then the counts of rescaled powers per interval
        powers = rescale * edges.lengths ** alpha
        counts = [np.count_nonzero((powers >= lo) & (powers < hi)) for lo, hi in intervals]
        return np.concatenate([_smallest_powers(edges.lengths, alpha, 5), counts])

    rows = run_replications(config, reduce)
    metrics: list[Metric] = []
    for m in range(1, 6):
        ks = ks_statistic(rescale * rows[:, m - 1], lambda u, m=m: np.array(
            [order_statistic_cdf(m, float(x), limit, v, d) for x in np.atleast_1d(u)]))
        tol_name = "ks_first_order_stat" if m == 1 else "ks"
        metrics.append(_below(f"KS order statistic m={m}", ks, config.tolerance(tol_name),
                              tol_name, "order-statistic limit law of rescaled edge-length powers"))
    counts = rows[:, 5:]
    cap = math.inf if c is None else c  # nu([0, u]) = (kd/2) V min(u^(d/alpha), c)
    for k, (lo, hi) in enumerate(intervals):
        nu = 0.5 * kd * v * (min(hi ** (d / alpha), cap) - min(lo ** (d / alpha), cap))
        se = float(counts[:, k].std(ddof=1)) / math.sqrt(config.replications)
        metrics.append(_within(f"interval count mean [{lo:.4g},{hi:.4g})",
                               float(counts[:, k].mean()), nu,
                               config.tolerance("mean_se_mult") * se, "mean_se_mult",
                               "intensity measure of the limiting edge-length process", se=se))
    # A count that is the same in every replication has no correlation: NaN
    # here, and the check fails.
    with np.errstate(divide="ignore", invalid="ignore"):
        cc = np.corrcoef(counts, rowvar=False)
    metrics.append(_below("interval count max |corr|",
                          float(np.max(np.abs(cc - np.eye(cc.shape[0])))),
                          config.tolerance("corr_max"), "corr_max",
                          "independence over disjoint sets in the Poisson process limit"))
    return _finish(config, metrics)


def _thermo_slope_runs(config: ExperimentConfig) -> bool:
    """LDI's slope test runs on a Poisson t-grid under a thermodynamic schedule."""
    return (bool(config.t_grid) and config.schedule is not None and config.model == "poisson"
            and config.schedule.classify(config.window.dim) == "thermodynamic")


def verify_ldi(config: ExperimentConfig) -> ExperimentReport:
    """Empirical tails (Clopper-Pearson upper bounds) below both deviation
    bounds on a u-grid; optional thermodynamic slope test along a t-grid."""
    metrics: list[Metric] = []
    tables: dict = {}
    conf = config.tolerance("cp_confidence")
    reps = config.replications
    intensity = config.intensity()
    delta = config.delta_for(intensity)
    t, n = (intensity, None) if config.model == "poisson" else (None, int(intensity))
    pilot = _length_powers(config, reps=max(2, reps // 2), stream=STREAM_PILOT)
    test = _length_powers(config)
    for i, alpha in enumerate(config.alphas):
        med = float(np.median(pilot[:, i]))
        dev_max = float(np.max(np.abs(pilot[:, i] - med)))
        # Grid up to twice the largest pilot deviation: beyond that the bounds
        # decay below what a zero-hit tail estimate can statistically resolve.
        scale = dev_max if dev_max > 0 else max(med, 1.0)
        u_grid = [float(u) for u in np.geomspace(scale / 50.0, 2.0 * scale, 20)]
        devs = np.abs(test[:, i] - med)
        hits = [int(np.count_nonzero(devs >= u)) for u in u_grid]
        inputs = [LdiInput(mode=config.model, window=config.window, delta=delta, alpha=alpha,
                           median=med, u=u, t=t, n=n) for u in u_grid]
        table = tables[f"ldi_alpha_{alpha}"] = {
            "u": u_grid, "empirical_tail": [k / reps for k in hits],
            "ldi_bound": [ldi_bound(inp) for inp in inputs],
            "ldi_envelope": [ldi_envelope(inp) for inp in inputs]}
        uppers = [clopper_pearson_upper(k, reps, conf) for k in hits]
        worst_margin = min(math.inf, *(b - up for up, bnd, env in
                                       zip(uppers, table["ldi_bound"], table["ldi_envelope"])
                                       for b in (bnd, env)))
        for bound, column, form in (("optimized", "ldi_bound", "s-optimized"),
                                    ("envelope", "ldi_envelope", "explicit envelope")):
            # one verdict over the whole u-grid; the margin shown is the
            # smallest over both bounds
            metrics.append(Metric(
                name=f"tails below {bound} bound [alpha={alpha}]",
                empirical=worst_margin, theory=0.0, tolerance_name="cp_confidence",
                verdict=all(up <= b for up, b in zip(uppers, table[column])),
                anchor=f"median deviation inequality, {form}"))
    if _thermo_slope_runs(config):
        metrics.append(_thermo_slope_metric(config))
    return _finish(config, metrics, tables)


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
    # the one check that passes strictly above its tolerance
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
    (alpha,) = config.alphas
    edge_c = _edge_limit(config)
    kd = unit_ball_volume(d)
    metrics: list[Metric] = []
    for u in (0.5, 1.0, 2.0):
        a_vals, r_vals = zip(*(pp_conditions(config.window, t, config.delta_for(t), alpha, u)
                               for t in grid))
        limit = pp_condition_limits(config.window, alpha, u, edge_c)
        metrics += [
            _within(f"a_t(u={u}) at largest t", a_vals[-1], limit,
                    config.tolerance("a_limit_rel") * abs(limit), "a_limit_rel",
                    "mean count condition of the process limit"),
            _decreasing(f"r_t(u={u}) decreasing to zero", list(r_vals), "r_const_rel",
                        "local mass condition of the process limit", theory=0.0)]
        # r_t * t is constant once rho = u^(1/alpha) t^(-2/d) is below delta and the inradius
        ratios = [r_t * t / (kd * u ** (d / alpha)) for t, r_t in zip(grid, r_vals)
                  if u ** (1.0 / alpha) * t ** (-2.0 / d)
                  < min(config.delta_for(t), config.window.inradius)]
        if ratios:
            metrics.append(_within(f"r_t*t constancy (u={u})", ratios, 1.0,
                                   config.tolerance("r_const_rel"), "r_const_rel",
                                   "interior local-mass value below the inradius"))
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
VERIFICATION_KINDS = tuple(_VERIFIERS)


def _check_alphas(config: ExperimentConfig) -> None:
    """Reject alphas the suite cannot check before any replication runs.

    Moments, CLT and MultivariateCov need Var L^(alpha) finite, alpha > -d/2;
    the limit laws need alpha > 0 and the deviation bounds alpha >= 0.
    CompoundPoisson, OrderStatistics, PPConditions and LDI's thermodynamic
    slope check exactly one alpha: their metric names carry none.
    """
    if config.kind in ("Moments", "CLT", "MultivariateCov"):
        floor, strict = -config.window.dim / 2.0, True
    else:
        floor, strict = 0.0, config.kind != "LDI"
    bad = [a for a in config.alphas if a < floor or (strict and a == floor)]
    if bad:
        raise ConfigError(f"{config.kind} needs alpha {'>' if strict else '>='} {floor:g}, "
                          f"got {bad!r}")
    one_alpha = config.kind in ("CompoundPoisson", "OrderStatistics", "PPConditions") \
        or (config.kind == "LDI" and _thermo_slope_runs(config))
    if one_alpha and len(config.alphas) > 1:
        raise ConfigError(f"{config.kind} checks exactly one alpha"
                          f"{' with a thermodynamic t_grid' if config.kind == 'LDI' else ''}, "
                          f"got {list(config.alphas)!r}")


def run_verification(config: ExperimentConfig) -> ExperimentReport:
    """Check the alphas, then dispatch to the suite named by config.kind."""
    _check_alphas(config)
    return _VERIFIERS[config.kind](config)
