"""Harness: estimators, KS machinery, determinism, and the verification suites."""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtr

from gilbertsim import ConvexWindow, RegimeSchedule
from gilbertsim import experiments as ex
from gilbertsim import gilbert_graph as gg
from gilbertsim import theory_limits as tl
from gilbertsim import theory_moments as tm
from gilbertsim.errors import ConfigError, TooFewReplicationsError

W = ConvexWindow.box((1.0, 1.0))


def cfg(**kw):
    base = dict(window=W, alphas=(0.0, 1.0), replications=200,
                master_seed=7, kind="Moments", t=100.0, delta=0.05)
    base.update(kw)
    return ex.ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(TypeError):  # the intensity given picks the model
        cfg(model="poisson")
    with pytest.raises(ConfigError):
        cfg(replications=1)
    with pytest.raises(ConfigError):
        cfg(delta=None)
    with pytest.raises(ConfigError):
        cfg(kind="Everything")
    for bad in (dict(delta=0.0), dict(delta=math.inf), dict(t=-5.0), dict(t=math.nan),
                dict(t=None, n=0), dict(t_grid=(100.0, 0.0)),
                dict(alphas=(0.0, math.nan)), dict(n_jobs=0), dict(n_jobs=-3),
                # each job is an OS thread: MAX_JOBS of them at most
                dict(n_jobs=ex.MAX_JOBS + 1),
                # a run holds only its model's intensity
                dict(n=400), dict(t=None, n=400, t_grid=(100.0, 200.0))):
        with pytest.raises(ConfigError):
            cfg(**bad)
    assert cfg(n_jobs=ex.MAX_JOBS).n_jobs == 64  # only checked; no thread starts


# per _SUITES row, what a config needs beyond cfg()'s to meet the row's rules
KIND_CASES = {
    "Moments": {}, "CLT": {}, "simulate": {}, "predict": dict(replications=None),
    "MultivariateCov": dict(delta=None, schedule=RegimeSchedule(1.0, 0.5)),
    "CompoundPoisson": dict(alphas=(2.0,), delta=None, schedule=RegimeSchedule(1.0, 1.0)),
    "OrderStatistics": dict(alphas=(2.0,)), "LDI": dict(alphas=(1.0,)),
    "PPConditions": dict(alphas=(2.0,), replications=None, t=None, t_grid=(100.0, 1000.0)),
}


@pytest.mark.parametrize("kind", ["CLT", "CompoundPoisson", "LDI", "PPConditions"])
@pytest.mark.parametrize("grid", [(200.0, 200.0), (800.0, 200.0)])
def test_t_grid_must_increase(kind, grid):
    # every grid consumer reads the last t as the largest
    with pytest.raises(ConfigError, match=r"t_grid must be strictly increasing, got \["):
        cfg(kind=kind, alphas=(1.0,), t=None, t_grid=grid, delta=None,
            schedule=RegimeSchedule(1.0, 0.5))


@pytest.mark.parametrize("kind", [*ex._SUITES, "moments", "verify"])
def test_config_kind_is_a_suites_key(kind):
    # a config names the command it serves: a verify kind, simulate or predict
    if kind not in ex._SUITES:
        with pytest.raises(ConfigError, match="unknown kind"):
            cfg(kind=kind)
        return
    assert cfg(kind=kind, **KIND_CASES[kind]).kind == kind


def test_config_that_breaks_its_row_raises_when_built():
    # no config exists that its command would reject: a binomial Moments run
    # would be checked against Poisson theory, and this t is over the edge budget
    with pytest.raises(ConfigError, match="Moments needs the Poisson model"):
        cfg(t=None, n=100)
    with pytest.raises(ConfigError, match="budget of 2e\\+07 edges"):
        cfg(t=1e5)
    with pytest.raises(ConfigError, match="missing required key 'reps'"):
        cfg(replications=None)
    assert cfg(kind="predict", t=1e5, replications=None).replications is None


@pytest.mark.parametrize("kind", ["Moments", "CLT", "simulate", "predict"])
def test_empty_alphas_raise(kind):
    # an empty alpha list would pass every verdict vacuously, with no metric
    with pytest.raises(ConfigError, match=r"one or more distinct values, got \[\]"):
        cfg(kind=kind, alphas=())


def _powers_points_degree(r, sample, edges):
    return np.concatenate([gg.length_power(edges, (0.0, 1.0)),
                           [sample.n_points, gg.max_degree(edges)]])


def test_run_replications_deterministic_and_parallel():
    rows_a = ex.run_replications(cfg(), _powers_points_degree)
    rows_b = ex.run_replications(cfg(), _powers_points_degree)
    assert rows_a.shape == (200, 4)
    assert np.array_equal(rows_a, rows_b)
    rows_p = ex.run_replications(cfg(n_jobs=4), _powers_points_degree)
    assert np.array_equal(rows_a, rows_p)
    # rows are stacked in replication order: row r is replication r's reduction
    sample = ex.replication_sample(cfg(), 100.0, 7)
    assert np.array_equal(rows_a[7], _powers_points_degree(7, sample, gg.build_edges(sample, 0.05)))


def test_run_replications_mean_matches_oracle():
    from gilbertsim import expectation_exact
    exact = expectation_exact(W, 100.0, 0.05, 0.0)
    col = ex._length_powers(cfg(t=100.0, replications=2000))[:, 0]
    se = col.std(ddof=1) / math.sqrt(col.size)
    assert abs(col.mean() - exact) <= 4.0 * se


def test_empirical_moments():
    data = np.array([[1.0, 2.0], [3.0, 6.0], [5.0, 4.0]])
    means, cov, se, cov_se = ex.empirical_moments(data)
    assert means == pytest.approx([3.0, 4.0])
    assert cov[0, 0] == pytest.approx(4.0)  # hand: var of 1,3,5
    assert cov[0, 1] == pytest.approx(2.0)  # hand: ((-2)(-2)+0+2*0)/2
    assert se[0] == pytest.approx(2.0 / math.sqrt(3.0))
    const = np.ones((5, 1))
    m, c, s, cs = ex.empirical_moments(const)
    assert c[0, 0] == 0.0 and s[0] == 0.0 and cs[0, 0] == 0.0
    with pytest.raises(TooFewReplicationsError):
        ex.empirical_moments(np.ones((1, 2)))


def test_ks_statistic_cases():
    # samples drawn from the target law: KS below the asymptotic 99% quantile
    rng = np.random.default_rng(3)
    u = rng.random(10_000)
    assert ex.ks_statistic(u, lambda x: x) <= 1.63 / math.sqrt(10_000)
    # single sample at the median
    assert ex.ks_statistic([0.0], sps.norm.cdf) == pytest.approx(0.5)
    # degenerate step CDF against matching constant samples
    ref = ex.EmpiricalCdf(np.full(5, 2.0))
    assert ex.ks_statistic(np.full(10, 2.0), ref, cdf_left=ref.left) == 0.0
    # +inf samples count as unreachable mass
    val = ex.ks_statistic([0.5, math.inf], lambda x: np.asarray(x))
    assert val == pytest.approx(0.5)


def test_ks_statistic_scores_infinite_samples_against_the_laws_atom():
    # half the mass of the target law sits at +inf: F(x) = x/2 on [0, 1], and
    # samples from that law (+inf with probability 1/2) are close to it
    rng = np.random.default_rng(4)
    n = 10_000
    x = np.where(rng.random(n) < 0.5, rng.random(n), math.inf)
    assert ex.ks_statistic(x, lambda u: 0.5 * np.asarray(u), mass=0.5) <= 1.63 / math.sqrt(n)
    assert ex.ks_statistic([math.inf] * 3, lambda u: 0.5 * np.asarray(u), mass=0.5) == 0.5


def test_clopper_pearson_upper():
    # k=0: closed form 1 - (1-conf)^(1/n)
    n = 1000
    assert ex.clopper_pearson_upper(0, n, 0.999) == pytest.approx(
        1.0 - 0.001 ** (1.0 / n))
    assert ex.clopper_pearson_upper(n, n, 0.999) == 1.0
    assert 0.001 < ex.clopper_pearson_upper(3, n, 0.999) < 0.02


def test_scipy_special_replacements_match_scipy_stats_bitwise():
    # _normal_ks uses ndtr and clopper_pearson_upper betaincinv in place of
    # scipy.stats' norm.cdf and beta.ppf, which compute the same values
    x = np.linspace(-40.0, 40.0, 20_001)
    assert np.array_equal(ndtr(x), sps.norm.cdf(x))
    col = np.random.default_rng(5).standard_exponential(500)
    z = (col - col.mean()) / col.std(ddof=1)
    assert ex._normal_ks(col) == ex.ks_statistic(z, sps.norm.cdf)
    for n in (50, 137, 1000, 20_000):
        for k in sorted({0, 1, 2, n // 7, n // 2, n - 1}):
            for conf in (0.5, 0.9, 0.95, 0.99, 0.999):
                assert ex.clopper_pearson_upper(k, n, conf) == float(
                    sps.beta.ppf(conf, k + 1, n - k))


def test_covariance_entry_se_heavy_tail_honest():
    rng = np.random.default_rng(9)
    p = 0.01
    x = (rng.random((2000, 1)) < p).astype(float)
    se = ex.empirical_moments(x)[3][0, 0]
    # true sampling sd of the variance estimate is ~sqrt(p/R), far above the
    # normal-theory value var*sqrt(2/R)
    assert se == pytest.approx(math.sqrt(p / 2000.0), rel=0.35)


def test_verify_moments_passes_and_is_deterministic():
    c = cfg(replications=400)
    rep = ex.verify_moments(c)
    assert rep.passed
    assert ex.report_to_json(rep) == ex.report_to_json(ex.verify_moments(c))
    names = {m.name for m in rep.metrics}
    assert "mean[alpha=0.0] vs exact" in names
    assert "cov[0.0,1.0] in sandwich" in names


def test_verify_moments_tiny_t_vacuous_pass():
    rep = ex.verify_moments(cfg(t=1.0, replications=20_000, master_seed=3))
    assert rep.passed  # wide SEs relative to the tiny theory values


def test_verify_moments_detects_wrong_prediction(monkeypatch):
    # harness self-test: judging against predictions at a wrong delta fails
    c = cfg(replications=2000)
    assert ex.verify_moments(c).passed
    table = ex._moment_theory
    monkeypatch.setattr(ex, "_moment_theory", lambda config, t, delta: table(config, t, 0.065))
    assert not ex.verify_moments(c).passed


@pytest.mark.parametrize("window,t,delta", [
    (W, 100.0, 0.05),
    (ConvexWindow.box((1.0, 0.8, 0.6)), 500.0, 0.1),
])
def test_predict_and_verify_moments_share_one_table(window, t, delta):
    c = cfg(window=window, t=t, delta=delta, replications=2)
    theory = {m.name: m.theory for m in ex.verify_moments(c).metrics}
    values = {e["name"]: e["value"] for e in ex.predictions(cfg(window=window, t=t,
                                                                delta=delta, kind="predict"))}

    def bits(value):
        return [v.hex() for v in np.atleast_1d(value).tolist()]

    for a in c.alphas:
        assert bits(values[f"expectation[alpha={a}]"]) == bits(theory[f"mean[alpha={a}] vs exact"])
        assert bits(values[f"expectation_bounds[alpha={a}]"]) \
            == bits(theory[f"mean[alpha={a}] in sandwich"])
        assert bits(values[f"variance_asymptotic[alpha={a}]"]) \
            == bits(tm.variance_asymptotic(window, t, delta, a))
    pairs = [(a, b) for i, a in enumerate(c.alphas) for b in c.alphas[i:]]
    for a, b in pairs:
        assert bits(values[f"covariance[{a},{b}]"]) == bits(theory[f"cov[{a},{b}] vs exact"])
    assert len(values) == 3 * len(c.alphas) + len(pairs)


def test_report_json_schema():
    rep = ex.verify_moments(cfg(replications=100))
    import json
    payload = json.loads(ex.report_to_json(rep))
    assert set(payload) == {"config", "metrics", "seed", "version"}
    assert payload["seed"] == 7
    m = payload["metrics"][0]
    assert set(m) == {"name", "empirical", "theory", "se", "tolerance",
                      "verdict", "paper_anchor"}
    assert m["verdict"] in ("pass", "fail")
    assert set(m["tolerance"]) == {"name", "value"}
    assert payload["config"]["window"] == "box:1.0x1.0"


def test_replications_csv_format():
    rows = ex.run_replications(cfg(replications=3), ex.simulate_row((0.0, 1.0)))
    assert rows.shape == (3, 2, 8)
    text = ex.replications_to_csv(rows, (0.0, 1.0))
    lines = text.strip().split("\n")
    assert lines[0] == "rep,alpha,L_value,n_points,max_degree,S1,S2,S3,S4,S5"
    assert len(lines) == 1 + 3 * 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0.0"
    assert len(first) == 10
    # every column is read back from replication 0 itself
    sample = ex.replication_sample(cfg(), 100.0, 0)
    edges = gg.build_edges(sample, 0.05)
    assert float(first[2]) == gg.length_power(edges, (0.0,))[0]
    assert (int(first[3]), int(first[4])) == (sample.n_points, gg.max_degree(edges))
    assert [float(v) for v in first[5:]] == list(gg._smallest_powers(edges.lengths**0.0, 5))


def test_verify_clt_small():
    c = cfg(window=ConvexWindow.box((0.2, 0.2)), kind="CLT", alphas=(1.0,),
            replications=1500, t=None, t_grid=(200.0, 800.0, 3200.0), delta=None,
            schedule=RegimeSchedule(1.0, 0.5), master_seed=1)
    rep = ex.verify_clt(c)
    assert rep.passed
    names = [m.name for m in rep.metrics]
    assert any("log-log slope" in n for n in names)
    assert any("vs normal bound" in n for n in names)


def test_verify_multivariate_small_thermo_and_dense():
    c = cfg(kind="MultivariateCov", replications=500, t=800.0, delta=None,
            schedule=RegimeSchedule(1.0, 0.5), master_seed=1)
    rep = ex.verify_multivariate(c)
    assert rep.passed
    assert any("marginal KS" in m.name for m in rep.metrics)
    c2 = cfg(kind="MultivariateCov", replications=500, t=2000.0, delta=None,
             schedule=RegimeSchedule(1.0, 0.3), master_seed=1)
    rep2 = ex.verify_multivariate(c2)
    assert rep2.passed
    assert any("smallest eigenvalue" in m.name for m in rep2.metrics)


def test_verify_compound_poisson_small():
    c = cfg(kind="CompoundPoisson", alphas=(2.0,), replications=2000, t=None,
            t_grid=(50.0, 200.0), delta=None, schedule=RegimeSchedule(1.0, 1.0),
            master_seed=1)
    rep = ex.verify_compound_poisson(c)
    assert rep.passed
    assert any("void probability" in m.name for m in rep.metrics)


def test_verify_order_statistics_small():
    c = cfg(kind="OrderStatistics", alphas=(2.0,), replications=1500, t=500.0,
            delta=None, schedule=RegimeSchedule(1.0, 0.8), master_seed=1)
    rep = ex.verify_order_statistics(c)
    assert rep.passed
    assert sum("KS order statistic" in m.name for m in rep.metrics) == 5
    assert any("interval count" in m.name for m in rep.metrics)


def test_verify_order_statistics_finite_edge_constant():
    # t^2 delta^d -> c = 1: the limit has kd V c/2 = pi/2 edges on average, so
    # the m-th order statistic is +inf with P(Poisson(pi/2) < m) and the third
    # unit-mass interval holds no point; it is left out of the correlation
    c = cfg(kind="OrderStatistics", alphas=(2.0,), replications=1500, t=500.0,
            delta=None, schedule=RegimeSchedule(1.0, 1.0), master_seed=1)
    rep = ex.verify_order_statistics(c)
    assert rep.passed
    (corr,) = [m for m in rep.metrics if m.name == "interval count max |corr|"]
    assert math.isfinite(corr.empirical)


def test_verify_ldi_small_both_models():
    for model, kw in (("poisson", {"t": 500.0}), ("binomial", {"n": 500, "t": None})):
        c = cfg(kind="LDI", replications=1000, master_seed=1, **kw)
        rep = ex.verify_ldi(c)
        assert rep.passed and rep.config["model"] == model
        table = rep.tables["ldi_alpha_0.0"]
        assert len(table["u"]) == 20
        csv_text = ex.ldi_table_to_csv(table)
        assert csv_text.startswith("u,empirical_tail,ldi_bound,ldi_envelope")


def test_verify_ldi_thermo_slope():
    c = cfg(kind="LDI", alphas=(0.0,), replications=3000, t=200.0,
            t_grid=(200.0, 400.0, 800.0), delta=None,
            schedule=RegimeSchedule(1.0, 0.5), master_seed=2)
    rep = ex.verify_ldi(c)
    slope_metrics = [m for m in rep.metrics if "slope" in m.name]
    assert len(slope_metrics) == 1
    assert slope_metrics[0].verdict


def test_reported_tolerance_is_the_verdict_tolerance():
    c = cfg(kind="LDI", alphas=(0.0,), replications=50, t=200.0,
            t_grid=(200.0, 400.0, 800.0), delta=None, schedule=RegimeSchedule(1.0, 0.5))
    rep = ex.verify_ldi(c)
    assert any(m.tolerance_name == "tail_slope_min" for m in rep.metrics)
    for m in rep.metrics:
        assert m.tolerance_value == ex.TOLERANCES[m.tolerance_name], m.name
    assert rep.config["tolerances"] == ex.TOLERANCES


def test_verify_pp_conditions():
    c = cfg(kind="PPConditions", alphas=(2.0,), replications=2, t=None,
            t_grid=(100.0, 1000.0, 10000.0), delta=None,
            schedule=RegimeSchedule(1.0, 0.8))
    rep = ex.verify_pp_conditions(c)
    assert rep.passed
    c2 = cfg(kind="PPConditions", alphas=(2.0,), replications=2, t=None,
             t_grid=(100.0, 1000.0, 10000.0), delta=None,
             schedule=RegimeSchedule(1.0, 1.0))
    rep2 = ex.verify_pp_conditions(c2)
    assert rep2.passed


def test_pp_conditions_takes_each_radius_once(monkeypatch):
    # one rho per (u, t): three levels u along the grid, shared by a_t, r_t and the filter
    calls = []
    radius = tl.EdgeLengthProcessLimit.radius

    def counting(self, t, delta, u):
        calls.append((u, t))
        return radius(self, t, delta, u)

    monkeypatch.setattr(tl.EdgeLengthProcessLimit, "radius", counting)
    grid = (100.0, 1000.0, 10000.0, 1e5)
    c = cfg(kind="PPConditions", alphas=(2.0,), replications=2, t=None, t_grid=grid,
            delta=None, schedule=RegimeSchedule(1.0, 0.8))
    assert ex.verify_pp_conditions(c).passed
    assert len(calls) == 3 * len(grid) == len(set(calls))


def test_run_verification_dispatch():
    rep = ex.run_verification(cfg(replications=100))
    assert rep.config["kind"] == "Moments"
    assert rep.version
    with pytest.raises(ConfigError, match="simulate is not a verify kind"):
        ex.run_verification(cfg(kind="simulate"))


def test_readme_suite_table_matches_suites():
    # README's table of verify kinds is _SUITES written out, row for row, so
    # the documented rules cannot drift from the checked ones
    lines = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| kind | alpha | alphas | model | graphs | schedule | c | samples at |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    yes = {True: "yes", False: "no"}
    assert rows == [[f"`{kind}`", s.alpha, s.alphas, "Poisson" if s.poisson else "either",
                     yes[s.graph], yes[s.schedule], s.c, s.intensities]
                    for kind, s in ex._SUITES.items()]
