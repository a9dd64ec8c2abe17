"""Acceptance criteria: one test per criterion, one printed line each.

Statistical criteria run at pinned seeds; every tolerance is stated inline.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
per-criterion wall-clock times.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as sps

from gilbertsim import cli
from gilbertsim import experiments as ex
from gilbertsim import geometry as geo
from gilbertsim import gilbert_graph as gg
from gilbertsim import point_process as pp
from gilbertsim import theory_deviations as td
from gilbertsim import theory_moments as tm
from gilbertsim.experiments import ExperimentConfig
from gilbertsim.theory_moments import RegimeSchedule
from test_geometry import covariogram_mc

PI = math.pi
BOX = geo.ConvexWindow.box((1.0, 1.0))


def report_line(number: int, name: str, ok: bool, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"acceptance criterion {number} ({name}) failed"
    assert elapsed <= budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def failures(report):
    return [(m.name, m.empirical, m.theory) for m in report.metrics if not m.verdict]


def test_acceptance_01_neighbor_search_oracle():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    ok = True
    for trial in range(200):
        d = int(rng.integers(1, 4))
        n = 5000 if trial % 20 == 0 else int(math.exp(rng.uniform(math.log(2), math.log(5000))))
        if rng.random() < 0.6:
            w = geo.ConvexWindow.box(tuple(rng.uniform(0.5, 2.0, d)))
        else:
            w = geo.ConvexWindow.ball(float(rng.uniform(0.4, 1.5)), d)
        # delta spanning sparse through dense relative to n
        delta = float(w.diameter * math.exp(rng.uniform(math.log(2e-3), math.log(0.8))))
        s = pp.sample_binomial(w, n, pp.replication_rng(1, trial))
        fast = gg.build_edges(s, delta)
        brute = gg.build_edges_bruteforce(s, delta)
        same = (np.array_equal(fast.i, brute.i) and np.array_equal(fast.j, brute.j)
                and np.array_equal(fast.lengths, brute.lengths))
        ok &= same
        if not same:
            print("mismatch at", trial, d, n, delta)
            break
    report_line(1, "neighbor-search oracle, 200 configs", ok, started, 60.0)


@pytest.fixture(scope="module")
def moment_run():
    config = ExperimentConfig(window=BOX, alphas=(0.0, 1.0),
                              replications=5000, master_seed=0, kind="Moments",
                              t=200.0, delta=0.05)
    return config, ex.verify_moments(config)


def test_acceptance_02_expectation(moment_run):
    started = time.monotonic()
    _, report = moment_run
    mean_metrics = [m for m in report.metrics if m.name.startswith("mean[")]
    assert len(mean_metrics) == 4
    exact = [m for m in report.metrics if m.name == "mean[alpha=0.0] vs exact"][0]
    # oracle value: 4 * 37.619 at t = 200
    assert exact.theory == pytest.approx(4.0 * 37.6189, abs=2e-3)
    ok = all(m.verdict for m in mean_metrics)
    if not ok:
        print(failures(report))
    report_line(2, "expectation vs exact and sandwich", ok, started, 120.0)


def test_acceptance_03_covariance(moment_run):
    started = time.monotonic()
    _, report = moment_run
    cov_metrics = [m for m in report.metrics if m.name.startswith("cov[")]
    assert len(cov_metrics) == 6
    ok = all(m.verdict for m in cov_metrics)
    if not ok:
        print(failures(report))
    report_line(3, "covariance vs exact and sandwich", ok, started, 180.0)


def test_acceptance_04_asymptotic_covariance_matrix():
    started = time.monotonic()
    thermo = ExperimentConfig(window=BOX, alphas=(0.0, 1.0),
                              replications=5000, master_seed=0,
                              kind="MultivariateCov", t=5000.0,
                              schedule=RegimeSchedule(1.0, 0.5))
    rep_t = ex.verify_multivariate(thermo)
    sigma_ok = all(m.verdict for m in rep_t.metrics if m.name.startswith("Sigma["))
    dense = ExperimentConfig(window=BOX, alphas=(0.0, 1.0),
                             replications=5000, master_seed=0,
                             kind="MultivariateCov", t=5000.0,
                             schedule=RegimeSchedule(1.0, 0.3))
    rep_d = ex.verify_multivariate(dense)
    eig = [m for m in rep_d.metrics if "smallest eigenvalue" in m.name][0]
    ok = sigma_ok and eig.verdict and rep_t.passed
    if not ok:
        print("thermo:", failures(rep_t), "dense:", failures(rep_d))
    report_line(4, "Sigma entries (thermo) and rank collapse (dense)", ok, started, 600.0)


def test_acceptance_05_clt_kolmogorov():
    started = time.monotonic()
    # Small window: the per-t normal-approximation error (0.09 -> 0.03) stays
    # above the R=2000 KS sampling floor, so the t^(-1/2) decay is measurable.
    config = ExperimentConfig(window=geo.ConvexWindow.box((0.15, 0.15)),
                              alphas=(1.0,),
                              replications=2000, master_seed=0, kind="CLT",
                              t_grid=(500.0, 2000.0, 8000.0),
                              schedule=RegimeSchedule(1.0, 0.5))
    report = ex.verify_clt(config)
    ok = report.passed
    if not ok:
        print(failures(report))
    report_line(5, "CLT: KS decay, bound domination, rate shape", ok, started, 900.0)


def test_acceptance_06_compound_poisson():
    started = time.monotonic()
    config = ExperimentConfig(window=BOX, alphas=(2.0,),
                              replications=10_000, master_seed=0,
                              kind="CompoundPoisson", t_grid=(50.0, 100.0, 200.0),
                              schedule=RegimeSchedule(1.0, 1.0))
    report = ex.verify_compound_poisson(config)
    atom = [m for m in report.metrics if "void probability" in m.name][0]
    assert atom.theory == pytest.approx(math.exp(-PI / 2.0))
    ok = report.passed
    if not ok:
        print(failures(report))
    report_line(6, "compound-Poisson limit incl. atom at zero", ok, started, 300.0)


def test_acceptance_07_order_statistics_weibull():
    started = time.monotonic()
    config = ExperimentConfig(window=BOX, alphas=(2.0,),
                              replications=5000, master_seed=0,
                              kind="OrderStatistics", t=500.0,
                              schedule=RegimeSchedule(1.0, 0.8))
    report = ex.verify_order_statistics(config)
    first = [m for m in report.metrics if m.name == "KS order statistic m=1"][0]
    assert first.tolerance_value == 0.03
    # cross-check the m=1 law against the plain Weibull form 1 - exp(-(pi/2) u)
    others = [m for m in report.metrics if m.name.startswith("KS order statistic")]
    assert len(others) == 5
    ok = report.passed
    if not ok:
        print(failures(report))
    report_line(7, "order statistics vs limit laws", ok, started, 300.0)


def test_acceptance_08_pp_conditions():
    started = time.monotonic()
    oks = []
    for gamma in (0.8, 1.0):  # infinite-edge and constant-edge regimes
        config = ExperimentConfig(window=BOX, alphas=(2.0,),
                                  replications=2, master_seed=0,
                                  kind="PPConditions",
                                  t_grid=(1e3, 1e4, 1e5),
                                  schedule=RegimeSchedule(1.0, gamma))
        report = ex.verify_pp_conditions(config)
        oks.append(report.passed)
        if not report.passed:
            print(gamma, failures(report))
    report_line(8, "a_t / r_t convergence conditions", all(oks), started, 60.0)


def test_acceptance_09_ldi_validity():
    started = time.monotonic()
    oks = []
    for model, kw in (("poisson", {"t": 500.0}), ("binomial", {"n": 500})):
        config = ExperimentConfig(window=BOX, alphas=(0.0, 1.0),
                                  replications=20_000, master_seed=0, kind="LDI",
                                  delta=0.05, **kw)
        report = ex.verify_ldi(config)
        oks.append(report.passed)
        if not report.passed:
            print(model, failures(report))
    report_line(9, "deviation bounds dominate CP-upper tails", all(oks), started, 300.0)


def test_acceptance_10_chernoff_domination():
    started = time.monotonic()
    ok = True
    rng = np.random.default_rng(10)
    for _ in range(1000):
        a = float(rng.uniform(0.05, 40.0))
        y = float(rng.uniform(0.0, 80.0))
        ok &= td.chernoff_poisson_tail(a, y) >= float(sps.poisson.sf(math.ceil(y) - 1, a)) - 1e-12
    for _ in range(1000):
        m = int(rng.integers(1, 300))
        p = float(rng.uniform(0.01, 0.99))
        y = float(rng.uniform(0.0, m))
        ok &= td.chernoff_binomial_tail(m, p, y) >= float(sps.binom.sf(math.ceil(y) - 1, m, p)) - 1e-12
    ok &= td.chernoff_poisson_tail(1.0, 4.0) == pytest.approx(math.exp(3.0) / 256.0, rel=1e-12)
    ok &= td.chernoff_poisson_tail(1.0, 1.0) == 1.0
    report_line(10, "Chernoff bounds dominate exact tails", ok, started, 5.0)


def test_acceptance_11_xstar_certificate():
    started = time.monotonic()
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(1000):
        mode = "poisson" if rng.random() < 0.5 else "binomial"
        kw = {"t": float(rng.uniform(5.0, 5000.0))} if mode == "poisson" \
            else {"n": int(rng.integers(5, 5000))}
        inp = td.LdiInput(window=BOX, delta=float(rng.uniform(0.01, 0.2)),
                          alpha=float(rng.uniform(0.0, 2.0)),
                          median=float(rng.uniform(0.0, 500.0)),
                          u=float(rng.uniform(0.0, 2000.0)), **kw)
        xs = td.ldi_xstar(inp)
        probes = np.exp(rng.uniform(-12.0, 6.0, 1000))
        best = min(td.ldi_xstar_objective(inp, float(s)) for s in probes)
        if xs > best * (1.0 + 1e-8):
            ok = False
            break
    # analytic case: unit log-term and u = 0 gives x* = e
    t = 2000.0
    delta = math.sqrt(math.log(t) / (t * PI))
    inp = td.LdiInput(window=BOX, delta=delta, alpha=0.0,
                      median=5.0, u=0.0, t=t)
    ok &= abs(td.ldi_xstar(inp) - math.e) <= 1e-9
    report_line(11, "x* optimizer certificate", ok, started, 10.0)


def test_acceptance_12_covariogram_mc_and_total_mass():
    started = time.monotonic()
    rng = np.random.default_rng(12)
    ok = True
    n = 10**6
    for trial in range(100):
        d = int(rng.integers(1, 4))
        if rng.random() < 0.6:
            w = geo.ConvexWindow.box(tuple(rng.uniform(0.5, 2.0, d)))
        else:
            w = geo.ConvexWindow.ball(float(rng.uniform(0.4, 1.5)), d)
        while True:
            y = rng.normal(size=d)
            y *= rng.uniform(0.05, 0.9) * w.diameter / max(np.linalg.norm(y), 1e-12)
            exact = geo.covariogram(w, y)
            p = exact / w.volume
            if 0.02 <= p <= 0.98:
                break
        est = covariogram_mc(w, y, n, pp.replication_rng(12, trial))
        se = w.volume * math.sqrt(p * (1.0 - p) / n)
        ok &= abs(est - exact) <= 4.0 * se
    for sides in ((1.0,), (1.0, 1.0), (2.0, 1.0, 0.5)):
        w = geo.ConvexWindow.box(sides)
        total = geo.covariogram_radial_integral(w, w.diameter * 1.01, 0.0)
        ok &= abs(total - w.volume**2) <= 1e-6 * w.volume**2
    report_line(12, "covariogram MC agreement and total mass", ok, started, 120.0)


def test_acceptance_13_determinism(tmp_path):
    started = time.monotonic()
    cfg_text = """window = box:1x1
t = 150
delta = 0.05
alphas = 0,1
reps = 300
kind = Moments
"""
    serial = tmp_path / "serial.cfg"
    serial.write_text(cfg_text)
    parallel = tmp_path / "parallel.cfg"
    parallel.write_text(cfg_text + "n_jobs = 4\n")
    outs = []
    for tag, cfg_path in (("s1", serial), ("s2", serial), ("p1", parallel)):
        out = tmp_path / f"report_{tag}.json"
        rc = cli.main(["verify", "--config", str(cfg_path), "--seed", "42",
                       "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    csvs = []
    for tag in ("c1", "c2"):
        out = tmp_path / f"reps_{tag}.csv"
        rc = cli.main(["simulate", "--config", str(serial), "--seed", "42",
                       "--out", str(out)])
        assert rc == 0
        csvs.append(out.read_bytes())
    ok &= csvs[0] == csvs[1]
    report_line(13, "byte-identical reruns, serial and parallel", ok, started, 60.0)
