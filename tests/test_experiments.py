"""Harness: estimators, KS machinery, determinism, and the verification suites."""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import ndtr

from gilbertsim import ConvexWindow, RegimeSchedule, __version__
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
    # 200 replications of about 100 points are built in chunks of 40; 20 of them
    # (2,000 points in all, less than a chunk) and 40 of about 2,500 points are
    # built one at a time
    for reps, t, chunk in [(200, 100.0, 40), (20, 100.0, 1), (40, 2500.0, 1)]:
        config = cfg(replications=reps, t=t)
        assert ex._chunk_size(config, t, 0.05, reps) == chunk
        rows_a = ex.run_replications(config, _powers_points_degree)
        rows_b = ex.run_replications(config, _powers_points_degree)
        assert rows_a.shape == (reps, 4)
        assert np.array_equal(rows_a, rows_b)
        rows_p = ex.run_replications(cfg(replications=reps, t=t, n_jobs=4),
                                     _powers_points_degree)
        assert np.array_equal(rows_a, rows_p)
        # rows are stacked in replication order: row r is replication r's reduction
        for r in (0, 7, reps - 1):
            sample = ex.replication_sample(config, t, r)
            assert np.array_equal(rows_a[r], _powers_points_degree(
                r, sample, gg.build_edges(sample, 0.05)))


@pytest.mark.parametrize("change,chunk", [
    ({}, 20),  # verify_sparse: 200 points, degree 1.6
    ({"t": 2000.0, "delta": 0.03}, 2),  # the most points per replication a chunk takes
    ({"t": 2001.0, "delta": 0.03}, 1),
    ({"t": 1000.0, "delta": 0.05}, 4),  # degree 7.9
    ({"t": 1000.0, "delta": 0.051}, 1),  # degree 8.2
    ({"replications": 20}, 1),  # 4,000 points in all, less than a chunk
    ({"window": ex.ConvexWindow.box((1.0,) * 3), "delta": 0.16}, 20),  # degree 3.4
    ({"window": ex.ConvexWindow.box((1.0,) * 3), "delta": 0.17}, 1),  # degree 4.1
    ({"window": ex.ConvexWindow.box((1.0,) * 4), "delta": 0.01}, 1),  # d = 4
    ({"t": None, "n": 200, "kind": "simulate"}, 20),  # binomial
    ({"t": 0.01, "replications": 1_000_000}, 4096),  # at most _CHUNK_POINTS replications
])
def test_chunk_size_rule(change, chunk):
    config = cfg(**{"t": 200.0, "replications": 400, **change})
    t = config.intensity()
    assert ex._chunk_size(config, t, config.delta_for(t), config.replications) == chunk


_FAULTS_PER_REPLICATION = """
import resource
import scipy.stats  # leaves the heap in a state where glibc trims freed memory
from gilbertsim import ConvexWindow, RegimeSchedule
from gilbertsim import experiments as ex
config = dict(window=ConvexWindow.box((1.0, 1.0)), alphas=(0.0, 1.0), kind="simulate",
              t=5000.0, schedule=RegimeSchedule(1.0, 0.3))
ex.simulate(ex.ExperimentConfig(replications=2, **config))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
ex.simulate(ex.ExperimentConfig(replications=10, **config))
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="glibc's malloc thresholds only")
def test_dense_replications_reuse_freed_heap():
    # a dense replication (about 225k edges) frees some 8.5 MB of buffers; with
    # glibc's default thresholds the next one faults about 2,360 pages back in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(ex.__file__))]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_REPLICATION], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert float(out) < 200


def test_freed_heap_policy_is_glibc_only(monkeypatch):
    import ctypes

    def no_libc(name):
        raise AssertionError("libc opened off glibc")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    monkeypatch.setattr(sys, "platform", "darwin")
    assert ex._keep_freed_heap.__wrapped__() is None
    # on Linux with another libc (musl has no gnu_get_libc_version), no mallopt call
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert ex._keep_freed_heap.__wrapped__() is None


def test_threaded_runs_leave_malloc_thresholds(monkeypatch):
    # glibc keeps freed heap in each thread's own arena, so only a serial run pins
    def pinned():
        raise AssertionError("a threaded run pinned malloc's thresholds")

    monkeypatch.setattr(ex, "_keep_freed_heap", pinned)
    assert ex.run_replications(cfg(n_jobs=2, replications=4), _powers_points_degree).shape == (4, 4)


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


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


_JSON_TEXT = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "\"", "\\", "\n\t\x00\x1f\x7f", "é", "日本", "\U0001f600", "\ud800"])
_JSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e16, 1e-7, 0.1])
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | _JSON_TEXT | _JSON_FLOATS
                 | _JSON_FLOATS.map(np.float64))
_JSON_PAYLOADS = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=400)
@given(_JSON_PAYLOADS)
def test_to_json_writes_json_dumps_bytes(payload):
    assert ex.to_json(payload) == _dumps(payload)


@pytest.mark.parametrize("bad, error", [
    (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
    (np.float64("nan"), ValueError), (np.int64(1), TypeError), (np.float32(1.0), TypeError),
    ({1: 2.0}, TypeError), ({"a": 1, 2: 3}, TypeError), ({1.5: None}, TypeError),
    (b"bytes", TypeError), ({1, 2}, TypeError)])
def test_to_json_rejects_what_json_cannot_write(bad, error):
    # each value is also nested, where a recursion must pass the error on
    for payload in (bad, [1.0, bad], {"a": {"b": (bad,)}}):
        with pytest.raises(error):
            ex.to_json(payload)
        if not isinstance(bad, dict):  # json.dumps writes a non-str key it can convert
            with pytest.raises(error):
                _dumps(payload)


def test_replications_csv_format():
    text, dump = ex.simulate(cfg(replications=3, kind="simulate"))
    assert dump is None
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
    assert [float(v) for v in first[5:]] == list(ex._smallest_powers(edges.lengths**0.0, 5))


@pytest.mark.parametrize("block", [1, 7, 2**16])
def test_csv_blocks_change_no_byte(monkeypatch, block):
    # to_csv converts and joins one block of rows at a time, for simulate's table
    # and edge dump too; the text is the one-shot layout whatever the block size
    table, dump = ex.simulate(cfg(replications=2, kind="simulate"), edges=True)
    monkeypatch.setattr(ex, "_CSV_BLOCK", block)
    rows = [(k, -0.1 * k, 1 / (k + 1)) for k in range(20)]
    for n in (0, 1, 7, 20):
        one_shot = "\n".join(["a,b,c", *(",".join(map(repr, row)) for row in rows[:n])]) + "\n"
        assert ex.to_csv("a,b,c", *([row[c] for row in rows[:n]] for c in range(3))) == one_shot
    assert ex.simulate(cfg(replications=2, kind="simulate"), edges=True) == (table, dump)
    edges = gg.build_edges(ex.replication_sample(cfg(), 100.0, 0), 0.05)
    assert 7 < edges.n_edges
    assert dump == "\n".join(["i,j,length", *(f"{i!r},{j!r},{length!r}" for i, j, length in zip(
        edges.i.tolist(), edges.j.tolist(), edges.lengths.tolist()))]) + "\n"


# floats whose text is easy to get wrong: not finite, signed zero, subnormal, and
# on both sides of repr's switches to exponent form at 1e16 and below 1e-4
_CSV_FLOATS = (math.inf, -math.inf, math.nan, -0.0, 5e-324, 2.225073858507201e-308,
               1e16, math.nextafter(1e16, 0.0), 1e-5, 1e-4, math.nextafter(1e-4, 0.0))


@settings(max_examples=300)
@given(block=st.integers(1, 5), size=st.sampled_from(["0", "1", "B-1", "B", "B+1"]),
       kinds=st.lists(st.tuples(st.sampled_from([int, float]), st.booleans()),
                      min_size=1, max_size=4),
       data=st.data())
def test_property_to_csv_is_the_row_wise_layout(block, size, kinds, data):
    # int and float columns, each a list or an array, of 0, 1, B - 1, B and B + 1
    # rows for a block of B rows: the text is the one-shot, row-wise layout
    n = {"0": 0, "1": 1, "B-1": block - 1, "B": block, "B+1": block + 1}[size]
    values = {int: st.integers(-2**63, 2**63 - 1),
              float: st.one_of(st.floats(), st.sampled_from(_CSV_FLOATS))}
    lists = [data.draw(st.lists(values[kind], min_size=n, max_size=n)) for kind, _ in kinds]
    columns = [np.array(column, dtype=np.int64 if kind is int else float) if as_array else column
               for column, (kind, as_array) in zip(lists, kinds)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ex, "_CSV_BLOCK", block)
        text = ex.to_csv("h", *columns)
    assert text == "h\n" + "".join(",".join(map(repr, row)) + "\n" for row in zip(*lists))


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
        lines = rep.tables["ldi_alpha_0.0"].splitlines()
        assert lines[0] == "u,empirical_tail,ldi_bound,ldi_envelope"
        assert len(lines) == 1 + 20 and all(len(line.split(",")) == 4 for line in lines)


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
    assert json.loads(ex.report_to_json(rep))["version"] == __version__
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
