"""CLI parsing, config handling, exit codes, and output determinism."""

import json
import math
import os

import numpy as np
import pytest

from gilbertsim import cli, experiments, geometry
from gilbertsim import gilbert_graph as gg
from gilbertsim.errors import ConfigError


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
# minimal moments config
window = box:1x1
model = poisson
t = 100
delta = 0.05
alphas = 0,1
reps = 100
kind = Moments
"""


def test_parse_window_forms():
    w = cli.parse_window("box:1x1")
    assert w.kind == "box" and w.dim == 2 and w.sides == (1.0, 1.0)
    w = cli.parse_window("box:2x1x0.5")
    assert w.dim == 3 and w.sides == (2.0, 1.0, 0.5)
    w = cli.parse_window("ball:1.0@d=3")
    assert w.kind == "ball" and w.dim == 3 and w.radius == 1.0
    w = cli.parse_window("ball:0.5", dim=2)
    assert w.dim == 2
    for bad in ("ball:1.0", "box:", "sphere:1", "box:1xq", "ball:1@n=3"):
        with pytest.raises(ConfigError):
            cli.parse_window(bad)


@pytest.mark.parametrize("argv", [
    ["simulate", "--window", "box:1e-200x1e-200", "--n", "10", "--delta", "0.1",
     "--alpha", "0", "--reps", "2"],
    ["covariogram", "--window", "ball:inf@d=2", "--direction", "1,0", "--steps", "3",
     "--rmax", "1"],
    ["covariogram", "--window", "box:1xinf", "--direction", "1,0", "--steps", "3",
     "--rmax", "1"],
    ["covariogram", "--window", "box:nanx1", "--direction", "1,0", "--steps", "3",
     "--rmax", "1"],
    ["covariogram", "--window", "ball:1e-200@d=2", "--direction", "1,0", "--steps", "3",
     "--rmax", "1"],
    ["predict", "--window", "ball:1e200@d=2", "--t", "10", "--delta", "0.1", "--alpha", "0"],
    ["predict", "--window", "box:1e200x1e200", "--t", "10", "--delta", "0.1", "--alpha", "0"],
])
def test_unusable_window_exits_2_naming_it(argv, capsys):
    # non-finite sizes, and finite ones whose volume under- or overflows to 0 or inf
    window = argv[argv.index("--window") + 1]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad window {window!r}: ")
    assert captured.err.count("\n") == 1


def test_load_config_minimal(tmp_path):
    raw = cli.load_config(write_cfg(tmp_path, MINIMAL))
    assert raw["window"] == "box:1x1"
    assert raw["kind"] == "Moments"


def test_load_config_rejects_duplicates_and_unknown(tmp_path):
    with pytest.raises(ConfigError, match="duplicate key 't'"):
        cli.load_config(write_cfg(tmp_path, "t = 1\nt = 2\n"))
    with pytest.raises(ConfigError, match="unknown key 'frobnicate'"):
        cli.load_config(write_cfg(tmp_path, "frobnicate = 1\n"))
    with pytest.raises(ConfigError, match="unknown tolerance key 'tol_bogus'"):
        cli.load_config(write_cfg(tmp_path, "tol_bogus = 1\n"))
    with pytest.raises(ConfigError):
        cli.load_config(str(tmp_path / "missing.cfg"))


def test_schedule_derives_delta(tmp_path):
    text = """window = box:1x1
model = poisson
t_grid = 100,400
schedule = 1.0,0.5
alphas = 1
reps = 50
kind = CLT
"""
    raw = cli.load_config(write_cfg(tmp_path, text))
    config = cli.resolve_config(raw, cli.build_parser().parse_args(["verify"]))
    assert config.delta_for(100.0) == pytest.approx(0.1)
    assert config.delta_for(400.0) == pytest.approx(0.05)


def test_t_grid_flag_implies_poisson(tmp_path):
    argv = ["verify", "--kind", "CLT", "--window", "box:0.2x0.2", "--t-grid", "200,800",
            "--schedule", "1,0.5", "--alpha", "1", "--reps", "50"]
    flags_only = str(tmp_path / "flags.json")
    assert cli.main(argv + ["--out", flags_only]) in (0, 1)
    with_model = str(tmp_path / "model.json")
    model_cfg = write_cfg(tmp_path, "model = poisson\n")
    assert cli.main(argv + ["--config", model_cfg, "--out", with_model]) in (0, 1)
    assert open(flags_only, "rb").read() == open(with_model, "rb").read()


@pytest.mark.parametrize("cfg,argv,model,intensity", [
    ("t = 100\n", ["--n", "400"], "binomial", 400.0),
    ("model = poisson\nt = 100\n", ["--n", "400"], "poisson", 100.0),
    ("model = binomial\nn = 400\n", ["--t", "100"], "poisson", 100.0),
    ("n = 400\n", [], "binomial", 400.0),
    ("t_grid = 100,400\n", [], "poisson", None),
])
def test_model_precedence(cfg, argv, model, intensity, tmp_path):
    # a --t flag means poisson; a --n flag means the config's model, or
    # binomial; otherwise the config's model, or what t, t_grid or n imply
    raw = cli.load_config(write_cfg(tmp_path, cfg + "window = box:1x1\ndelta = 0.05\n"))
    args = cli.build_parser().parse_args(["simulate", "--alpha", "0", "--reps", "2"] + argv)
    config = cli.resolve_config(raw, args)
    assert config.model == model
    if intensity is not None:
        assert config.intensity() == intensity


@pytest.mark.parametrize("flag,value,key", [
    ("--t", "abc", "t"), ("--n", "1e3", "n"), ("--reps", "x", "reps"),
    ("--seed", "1.5", "seed"), ("--dim", "x", "dim"), ("--delta", "x", "delta"),
])
def test_bad_flag_value_exits_2_naming_its_key(flag, value, key, capsys):
    # flags and config values go through one converter, so a bad flag is a
    # ConfigError naming its key, not an argparse usage error
    argv = ["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.05",
            "--alpha", "0", "--reps", "2", flag, value]
    assert cli.main(argv) == 2
    assert f"error: invalid value for {key!r}" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# caf\u00e9\nwindow = box:1x1\n".encode("latin-1"))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config")


def test_seed_precedence(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, MINIMAL + "seed = 9\n")
    raw = cli.load_config(path)
    parser = cli.build_parser()
    cfgv = cli.resolve_config(raw, parser.parse_args(["verify"]))
    assert cfgv.master_seed == 9  # config
    monkeypatch.setenv("GILBERT_SEED", "17")
    cfgv = cli.resolve_config(raw, parser.parse_args(["verify"]))
    assert cfgv.master_seed == 17  # env over config
    cfgv = cli.resolve_config(raw, parser.parse_args(["verify", "--seed", "23"]))
    assert cfgv.master_seed == 23  # flag over env
    monkeypatch.setenv("GILBERT_SEED", "x")
    with pytest.raises(ConfigError, match="GILBERT_SEED must be an integer, got 'x'"):
        cli.resolve_config(raw, parser.parse_args(["verify"]))
    monkeypatch.delenv("GILBERT_SEED")
    raw2 = cli.load_config(write_cfg(tmp_path, MINIMAL, "noseed.cfg"))
    cfgv = cli.resolve_config(raw2, parser.parse_args(["verify"]))
    assert cfgv.master_seed == 0  # default


def test_predict_prints_expectation(capsys):
    rc = cli.main(["predict", "--window", "box:1x1", "--t", "100",
                   "--delta", "0.05", "--alpha", "0"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    by_name = {p["name"]: p for p in payload}
    assert by_name["expectation[alpha=0.0]"]["value"] == pytest.approx(37.6189, abs=5e-4)
    lo, hi = by_name["expectation_bounds[alpha=0.0]"]["value"]
    assert lo == pytest.approx(37.6032, abs=5e-4)
    assert hi == pytest.approx(39.2699, abs=5e-4)


def test_verify_reports_identical_bytes(tmp_path):
    path = write_cfg(tmp_path, MINIMAL)
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert cli.main(["verify", "--kind", "moments", "--config", path,
                     "--seed", "42", "--out", out1]) == 0
    assert cli.main(["verify", "--kind", "moments", "--config", path,
                     "--seed", "42", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_verify_exit_codes(tmp_path, capsys):
    # unknown config key -> 2, named on stderr
    bad = write_cfg(tmp_path, "window = box:1x1\nwidth = 3\n", "bad.cfg")
    assert cli.main(["verify", "--config", bad]) == 2
    assert "width" in capsys.readouterr().err
    # impossible tolerance forces a failed verdict -> exit 1
    path = write_cfg(tmp_path, MINIMAL + "tol_cov_rel = 1e-9\ntol_mean_se_mult = 1e-9\n",
                     "strict.cfg")
    assert cli.main(["verify", "--config", path, "--seed", "1",
                     "--out", str(tmp_path / "strict.json")]) == 1
    # order statistics need alpha > 0
    for alpha in ("0", "-1"):
        assert cli.main(["verify", "--kind", "OrderStatistics", "--window", "box:1x1",
                         "--t", "500", "--schedule", "1,0.8", "--alpha", alpha,
                         "--reps", "10"]) == 2


def _no_replications(*args, **kwargs):
    raise AssertionError("a replication ran before the config was rejected")


@pytest.mark.parametrize("kind,args,alpha", [
    ("Moments", ["--t", "100", "--delta", "0.05"], "-1"),
    ("Moments", ["--t", "100", "--delta", "0.05"], "0,-1.2"),
    ("CLT", ["--t-grid", "200,800", "--schedule", "1,0.5"], "-1"),
    ("MultivariateCov", ["--t", "100", "--schedule", "1,0.5"], "-1,0"),
    ("CompoundPoisson", ["--t-grid", "50,200", "--schedule", "1,1"], "0"),
    ("OrderStatistics", ["--t", "500", "--schedule", "1,0.8"], "0"),
    ("LDI", ["--t", "100", "--delta", "0.05"], "-0.5"),
    ("PPConditions", ["--t-grid", "200,400", "--schedule", "1,0.8"], "0"),
])
def test_alpha_range_checked_before_replications(kind, args, alpha, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    rc = cli.main(["verify", "--kind", kind, "--window", "box:1x1", "--alpha=" + alpha,
                   "--reps", "10"] + args)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {kind} needs alpha")


@pytest.mark.parametrize("kind,args", [
    ("OrderStatistics", ["--t", "500"]),
    ("PPConditions", ["--t-grid", "200,400"]),
])
def test_vanishing_edge_constant_exits_2(kind, args, monkeypatch, capsys):
    # t^2 delta^d -> 0 under delta = t^-1.5 in d = 2: no edges in the limit
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    rc = cli.main(["verify", "--kind", kind, "--window", "box:1x1", "--schedule", "1,1.5",
                   "--alpha", "2", "--reps", "10"] + args)
    assert rc == 2
    assert "t^2 delta^d" in capsys.readouterr().err


@pytest.mark.parametrize("kind,args,alphas", [
    ("CompoundPoisson", ["--t-grid", "50,200", "--schedule", "1,1"], "1,2"),
    ("OrderStatistics", ["--t", "500", "--schedule", "1,0.8"], "2,3"),
    ("PPConditions", ["--t-grid", "200,400", "--schedule", "1,0.8"], "1,2"),
    ("LDI", ["--t", "200", "--t-grid", "200,400,800", "--schedule", "1,0.5"], "0,1"),
])
def test_one_alpha_kinds_reject_a_second_alpha(kind, args, alphas, monkeypatch, capsys):
    # their metric names carry no alpha, so a second alpha would go unchecked
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    rc = cli.main(["verify", "--kind", kind, "--window", "box:1x1", "--alpha", alphas,
                   "--reps", "20"] + args)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {kind} checks exactly one alpha")


@pytest.mark.parametrize("argv", [
    ["verify", "--kind", "Moments", "--alpha", "0,1", "--reps", "10"],
    ["verify", "--kind", "MultivariateCov", "--alpha", "0,1", "--reps", "10",
     "--schedule", "1,0.5"],
    ["predict", "--alpha", "0,1"],
])
def test_poisson_formulas_reject_binomial_runs(argv, monkeypatch, capsys):
    # these compare with the Poisson formulas at t = n, which do not describe
    # n binomial points
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    rc = cli.main(argv + ["--window", "box:1x1", "--n", "400", "--delta", "0.05"])
    assert rc == 2
    assert "needs the Poisson model" in capsys.readouterr().err


def test_ldi_and_simulate_keep_the_binomial_model(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    with pytest.raises(AssertionError, match="a replication ran"):
        cli.main(["verify", "--kind", "LDI", "--window", "box:1x1", "--n", "400",
                  "--delta", "0.05", "--alpha", "0", "--reps", "10"])
    assert cli.main(["simulate", "--window", "box:1x1", "--n", "50", "--delta", "0.1",
                     "--alpha", "0", "--reps", "2"]) == 0
    capsys.readouterr()


def test_two_alpha_ldi_without_thermodynamic_grid_is_accepted(monkeypatch):
    # the slope test needs a t-grid; without one both alphas get their tail checks
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    with pytest.raises(AssertionError, match="a replication ran"):
        cli.main(["verify", "--kind", "LDI", "--window", "box:1x1", "--t", "200",
                  "--schedule", "1,0.5", "--alpha", "0,1", "--reps", "10"])


@pytest.mark.parametrize("kind,alpha", [("Moments", "0"), ("CLT", "1")])
def test_theory_values_computed_before_replications(kind, alpha, monkeypatch, capsys):
    # the exact box covariance (Moments, and CLT's Kolmogorov bound here) needs
    # delta <= min(side)/2: the run exits 2 before building any graph
    built = []

    def counting(sample, delta):
        built.append(delta)
        return gg.build_edges(sample, delta)

    monkeypatch.setattr(experiments, "build_edges", counting)
    rc = cli.main(["verify", "--kind", kind, "--window", "box:1x1", "--t", "200",
                   "--delta", "0.6", "--alpha", alpha, "--reps", "300", "--seed", "1"])
    assert (rc, built) == (2, [])
    assert "requires delta <= min(side)/2" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--window", "box:1x1", "--t", "1e300", "--delta", "0.05"],
    ["--window", "box:1x1", "--t", "1e120", "--delta", "0.05"],
    ["--window", "box:100x100", "--t", "5e102", "--delta", "0.5"],  # t**3 finite, value inf
], ids=["t1e300", "t1e120", "infinite"])
def test_predict_overflow_exits_2(args, capsys):
    assert cli.main(["predict", "--alpha", "0"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: a prediction ")


# t^2 kappa_2 delta^2 V / 2 = 2.5e7 expected edges at t (or n) = 200000 and
# delta = 0.02 on the unit square, above the 2e7 budget; 1.4e7 at t = 150000,
# which fits once but not twice.
@pytest.mark.parametrize("command,args,cfg", [
    ("simulate", ["--t", "200000", "--delta", "0.02"], ""),
    ("verify", ["--kind", "LDI", "--n", "200000", "--delta", "0.02"], ""),
    ("verify", ["--kind", "CLT", "--t-grid", "100,200000", "--delta", "0.02"], ""),
    ("verify", ["--kind", "Moments", "--t", "150000", "--delta", "0.02"], "n_jobs = 2\n"),
], ids=["simulate", "binomial", "t_grid", "n_jobs"])
def test_edge_budget_exits_2_before_replications(command, args, cfg, tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    monkeypatch.setattr(cli, "run_replications", _no_replications)
    argv = [command, "--window", "box:1x1", "--alpha", "1", "--reps", "10",
            "--config", write_cfg(tmp_path, cfg)] + args
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: at ")
    assert f"above the budget of {experiments.EDGE_BUDGET:.3g} edges in memory" in err


def test_edge_budget_leaves_smaller_runs_and_predict_alone(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    with pytest.raises(AssertionError, match="a replication ran"):
        cli.main(["verify", "--kind", "Moments", "--window", "box:1x1", "--t", "150000",
                  "--delta", "0.02", "--alpha", "1", "--reps", "10"])
    # predict builds no graph
    assert cli.main(["predict", "--window", "box:1x1", "--t", "200000", "--delta", "0.02",
                     "--alpha", "1"]) == 0


def test_undefined_correlation_reported_as_valid_json(tmp_path, capsys):
    # with 2 replications an interval count can be equal in both, so its
    # correlation is undefined: the report says "nan" and the check fails
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    for seed in range(1, 6):
        out = tmp_path / f"order{seed}.json"
        rc = cli.main(["verify", "--kind", "OrderStatistics", "--window", "box:1x1", "--t", "500",
                       "--schedule", "1,0.8", "--alpha", "2", "--reps", "2",
                       "--seed", str(seed), "--out", str(out)])
        assert rc == 1
        payload = json.loads(out.read_text(), parse_constant=reject)
        (corr,) = [m for m in payload["metrics"] if m["name"] == "interval count max |corr|"]
        assert corr["empirical"] == "nan" and corr["verdict"] == "fail"
    capsys.readouterr()


def test_report_json_rejects_non_finite_floats():
    report = experiments.ExperimentReport(
        config={"t": math.nan}, metrics=[], seed=0, version="0")
    with pytest.raises(ValueError):
        experiments.report_to_json(report)


def test_predict_shares_covariogram_values_across_exponents(capsys):
    # 2 means and 3 covariances need 11 radial moments over [0, delta]; with
    # delta <= min(side) every one is the box's closed-form series, so no
    # exponent evaluates the angular covariogram G at all.
    geometry._box_angular.cache_clear()
    assert cli.main(["predict", "--window", "box:1.0x0.8x0.6", "--t", "500",
                     "--delta", "0.1", "--alpha", "0,1"]) == 0
    info = geometry._box_angular.cache_info()
    assert (info.hits, info.misses) == (0, 0)
    capsys.readouterr()


def test_shared_parser_leaks_no_state(tmp_path, capsys):
    calls = {
        "predict": ["predict", "--window", "box:1x0.8x0.6", "--t", "500", "--delta", "0.1",
                    "--alpha", "0,1"],
        "verify": ["verify", "--kind", "Moments", "--window", "box:1x1", "--t", "100",
                   "--delta", "0.05", "--alpha", "0,1", "--reps", "20", "--seed", "3"],
        "simulate": ["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.07",
                     "--alpha", "0,1", "--reps", "3", "--seed", "5"],
    }

    def run(name, tag):
        out = tmp_path / f"{name}.{tag}.out"
        rc = cli.main(calls[name] + ["--out", str(out)])
        return rc, out.read_bytes()

    isolated = {}
    for name in calls:
        cli.build_parser.cache_clear()
        isolated[name] = run(name, "isolated")
    cli.build_parser.cache_clear()
    for k, name in enumerate(["predict", "verify", "simulate", "predict"]):
        assert run(name, k) == isolated[name], name
    assert cli.build_parser() is cli.build_parser()
    # predict fills in reps for itself only; verify still needs it
    assert cli.main(["verify", "--window", "box:1x1", "--t", "100", "--delta", "0.05",
                     "--alpha", "0"]) == 2
    assert "missing required key 'reps'" in capsys.readouterr().err


# Config-file values that do not convert; stderr names their key.
UNCONVERTIBLE = ("dim = x", "tol_ks = abc", "reps = x")


@pytest.mark.parametrize("bad", [
    ["--delta", "-0.05", "--t", "100"],
    ["--delta", "0.05", "--t", "-5"],
    ["--delta", "0.05", "--t", "nan"],
    ["--delta", "inf", "--t", "100"],
    ["--t", "100", "--schedule", "1,-0.3"],
    ["--t", "100", "--schedule", "0,0.3"],
    ["--t", "100", "--schedule", "1,nan"],
    ["--t", "100", "--schedule", "inf,0.5"],
    ["--delta", "0.05", "--t", "100", "--alpha", "0,0"],
    ["--delta", "0.05", "--t", "100", "--alpha", "0,0", "--schedule", "1,0.5"],
    # config-file lines
    *UNCONVERTIBLE, "n_jobs = -3", "n_jobs = 0", "tol_slope_max = nan",
    "tol_tail_slope_min = inf", "tol_ks = 0",
])
@pytest.mark.parametrize("command", ["verify", "simulate", "predict"])
def test_bad_numbers_exit_2(command, bad, tmp_path, capsys):
    argv = [command, "--window", "box:1x1", "--alpha", "0"]
    if isinstance(bad, str):
        key = bad.partition("=")[0].strip()
        if key != "reps":  # a --reps flag would override the config value
            argv += ["--reps", "10"]
        argv += ["--delta", "0.05", "--t", "100", "--config", write_cfg(tmp_path, bad + "\n")]
    else:
        argv += ["--reps", "10"] + bad
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if bad in UNCONVERTIBLE:
        assert repr(key) in err


def test_simulate_csv_and_edge_dump(tmp_path):
    out = str(tmp_path / "reps.csv")
    edges = str(tmp_path / "edges.csv")
    rc = cli.main(["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.07",
                   "--alpha", "0,1", "--reps", "4", "--seed", "5", "--out", out,
                   "--edges-out", edges])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "rep,alpha,L_value,n_points,max_degree,S1,S2,S3,S4,S5"
    assert len(lines) == 1 + 4 * 2
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 10
        for k, field in enumerate(fields):
            (int if k in (0, 3, 4) else float)(field)
    elines = open(edges).read().strip().split("\n")
    assert elines[0] == "i,j,length"
    if len(elines) > 1:
        i, j, length = elines[1].split(",")
        assert int(i) < int(j) and 0.0 < float(length) <= 0.07
    # same seed reproduces the dump byte for byte
    out2 = str(tmp_path / "reps2.csv")
    cli.main(["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.07",
              "--alpha", "0,1", "--reps", "4", "--seed", "5", "--out", out2])
    assert open(out).read() == open(out2).read()


def test_edges_out_reuses_replication_zero(tmp_path, monkeypatch):
    # the dump is replication 0's edge set, built once: reps calls, not reps + 1
    built = []

    def counting(sample, delta):
        built.append(gg.build_edges(sample, delta))
        return built[-1]

    monkeypatch.setattr(experiments, "build_edges", counting)
    monkeypatch.setattr(cli, "build_edges", counting)
    edges = tmp_path / "edges.csv"
    assert cli.main(["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.07",
                     "--alpha", "0,1", "--reps", "3", "--seed", "5",
                     "--out", str(tmp_path / "reps.csv"), "--edges-out", str(edges)]) == 0
    assert len(built) == 3
    assert edges.read_text().count("\n") == 1 + built[0].n_edges


def test_covariogram_subcommand(tmp_path, capsys):
    rc = cli.main(["covariogram", "--window", "ball:1.0@d=2", "--direction", "1,0",
                   "--rmax", "2.0", "--steps", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "r,covariogram"
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[0][1]) == pytest.approx(math.pi)
    assert float(rows[2][1]) == pytest.approx(
        2.0 * math.acos(0.5) - 0.5 * math.sqrt(3.0))
    assert float(rows[4][1]) == 0.0
    assert all(len(r) == 2 for r in rows)
    rc = cli.main(["covariogram", "--window", "box:1x1", "--direction", "1,0,0"])
    assert rc == 2  # dimension mismatch
    for bad in (["--steps", "-1"], ["--steps", "0"], ["--direction", "1,x"]):
        argv = ["covariogram", "--window", "ball:1.0@d=4", "--direction", "1,0,0,0"]
        assert cli.main(argv + bad) == 2
    # non-finite directions and radii, and negative radii, print no table
    capsys.readouterr()
    for bad in (["--direction", "1,nan"], ["--direction", "1,inf"], ["--direction", "0,0"],
                ["--rmax", "nan"], ["--rmax", "inf"], ["--rmax", "-1"]):
        argv = ["covariogram", "--window", "box:1x1", "--direction", "1,0", "--steps", "3"]
        assert cli.main(argv + bad) == 2  # a repeated --direction replaces the first
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def test_ldi_verify_writes_table(tmp_path):
    text = """window = box:1x1
model = poisson
t = 100
delta = 0.05
alphas = 0
reps = 200
kind = LDI
"""
    path = write_cfg(tmp_path, text)
    out = str(tmp_path / "ldi.json")
    rc = cli.main(["verify", "--config", path, "--seed", "3", "--out", out])
    assert rc == 0
    table = out + ".ldi_alpha_0.0.csv"
    lines = open(table).read().strip().split("\n")
    assert lines[0] == "u,empirical_tail,ldi_bound,ldi_envelope"
    assert len(lines) == 21
