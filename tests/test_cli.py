"""CLI parsing, config handling, exit codes, and output determinism."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import platform
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gilbertsim import cli, experiments, geometry
from gilbertsim import gilbert_graph as gg
from gilbertsim.errors import ConfigError
from gilbertsim.point_process import PointSample, replication_samples
from gilbertsim.theory_moments import RegimeSchedule


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
# minimal moments config
window = box:1x1
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
    for bad in ("ball:1.0", "ball:0.5", "box:", "sphere:1", "box:1xq", "ball:1@n=3"):
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
    with pytest.raises(ConfigError, match="unknown key 'tol_bogus'"):
        cli.load_config(write_cfg(tmp_path, "tol_bogus = 1\n"))
    with pytest.raises(ConfigError):
        cli.load_config(str(tmp_path / "missing.cfg"))


def test_schedule_derives_delta(tmp_path):
    text = """window = box:1x1
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
    # the --t-grid flag drops the config file's n, so the report is the same
    with_n = str(tmp_path / "n.json")
    n_cfg = write_cfg(tmp_path, "n = 400\n")
    assert cli.main(argv + ["--config", n_cfg, "--out", with_n]) in (0, 1)
    assert open(flags_only, "rb").read() == open(with_n, "rb").read()


SIMULATE, CLT, LDI = ["simulate"], ["verify", "--kind", "CLT"], ["verify", "--kind", "LDI"]


# each argv starts with a command whose row takes the model and intensities it resolves to
@pytest.mark.parametrize("cfg,argv,model,intensity", [
    ("t = 100\n", SIMULATE + ["--n", "400"], "binomial", 400.0),
    ("t = 100\nt_grid = 100,200\n", SIMULATE + ["--n", "400"], "binomial", 400.0),
    ("n = 400\n", ["verify", "--t", "100"], "poisson", 100.0),
    ("n = 400\n", SIMULATE, "binomial", 400.0),
    ("t_grid = 100,400\n", CLT, "poisson", None),
    ("n = 400\n", LDI + ["--t", "100", "--t-grid", "100,200", "--schedule", "1,0.5"],
     "poisson", 100.0),
    ("n = 400\n", CLT + ["--t-grid", "100,200"], "poisson", None),
    ("t = 100\nn = 300\n", ["verify"], None, None),
    ("t = 100\nschedule = 1,0.5\n", ["verify", "--delta", "0.1"], "poisson", 100.0),
    ("t = 100\nschedule = 1,0.5\n", ["verify"], None, None),
    ("t = 100\n", ["verify", "--delta", "0.1", "--schedule", "1,0.5"], None, None),
])
def test_model_precedence(cfg, argv, model, intensity, tmp_path):
    # n means binomial and t or t_grid poisson; a config file naming both exits 2.
    # A --t or --t-grid flag drops the config file's n and a --n flag its t and
    # t_grid, so the report lists only the intensity the run samples at. verify,
    # unlike simulate and predict, takes a t_grid. delta and schedule follow the
    # same rule: a config naming both exits 2, and either flag drops the other.
    raw = cli.load_config(write_cfg(tmp_path, cfg + "window = box:1x1\ndelta = 0.05\n"))
    args = cli.build_parser().parse_args(argv + ["--alpha", "0", "--reps", "2"])
    if model is None:
        clash = ("set the distance parameter" if "schedule" in cfg + " ".join(argv)
                 else "pick different models")
        with pytest.raises(ConfigError, match=clash):
            cli.resolve_config(raw, args)
        return
    config = cli.resolve_config(raw, args)
    assert config.model == model
    if intensity is not None:
        assert config.intensity() == intensity
    other = ("n",) if model == "poisson" else ("t", "t_grid")
    assert not set(other) & set(config.echo())
    # the distance flag wins over the config file's delta or schedule
    if "--schedule" in argv or "--delta" in argv:
        assert (config.delta is None) == ("--schedule" in argv)


def test_every_setting_is_a_config_field_and_echoed():
    # the settings are written once, as ExperimentConfig fields: a key added to
    # _SETTINGS and not to the fields (or the reverse) fails here, not as a TypeError
    names = {f.name for f in dataclasses.fields(experiments.ExperimentConfig)}
    assert {cli._FIELDS.get(key, key) for key in cli._SETTINGS} == names
    window = cli.parse_window("box:1x1")
    # a config takes exactly one of delta and schedule: one case each
    for model, alphas, given in (
            ("poisson", (1.0,), dict(t=100.0, t_grid=(100.0, 200.0),
                                     schedule=RegimeSchedule(a=1.0, gamma=0.5))),
            ("binomial", (0.0, 1.0), dict(n=400, delta=0.05))):
        config = experiments.ExperimentConfig(
            window=window, alphas=alphas, replications=10, master_seed=3,
            kind="LDI", n_jobs=2, **given)
        echoed = config.echo()
        assert set(echoed) == ({"window", "dim", "model", "alphas", "replications", "seed",
                                "kind", "tolerances"} | set(given))
        assert echoed["window"] == "box:1.0x1.0" and echoed["dim"] == 2 and echoed["seed"] == 3
        assert echoed["model"] == model
        if "schedule" in given:
            assert echoed["schedule"] == {"a": 1.0, "gamma": 0.5}
        else:
            assert echoed["delta"] == 0.05
        assert echoed["tolerances"] == experiments.TOLERANCES


def test_readme_config_example_resolves(tmp_path):
    # README's config example is a config `verify` accepts, so it names no removed key
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    raw = cli.load_config(write_cfg(tmp_path, example))
    config = cli.resolve_config(raw, cli.build_parser().parse_args(["verify"]))
    assert config.kind == "Moments"


def test_readme_examples_run(tmp_path, monkeypatch):
    # README's four commands exit 0, verify's reading its config example written
    # out as examples.cfg, and its library example runs
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    Path("examples.cfg").write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    shell = "".join(block.split("```", 1)[0] for block in readme.split("```sh\n")[1:])
    commands = [shlex.split(line)[1:] for line in shell.replace("\\\n", " ").splitlines()
                if line.startswith("gilbertsim ")]
    assert [argv[0] for argv in commands] == ["predict", "simulate", "verify", "covariogram"]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    exec(readme.split("```python\n", 1)[1].split("```", 1)[0], {})


@pytest.mark.parametrize("flag,value,key", [
    ("--t", "abc", "t"), ("--n", "1e3", "n"), ("--reps", "x", "reps"),
    ("--seed", "1.5", "seed"), ("--delta", "x", "delta"),
])
def test_bad_flag_value_exits_2_naming_its_key(flag, value, key, capsys):
    # flags and config values go through one converter, so a bad flag is a
    # ConfigError naming its key, not an argparse usage error
    argv = ["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.05",
            "--alpha", "0", "--reps", "2", flag, value]
    assert cli.main(argv) == 2
    assert f"error: invalid value for {key!r}" in capsys.readouterr().err


def _main_result(argv, capsys) -> tuple:
    """Exit code, stdout and stderr of main(argv), an argparse exit included."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    return (rc, *capsys.readouterr())


_SIMULATE_BASE = ["simulate", "--window", "box:1x1", "--t", "30", "--delta", "0.1",
                  "--alpha", "1", "--reps", "2"]
_COVARIOGRAM_BASE = ["covariogram", "--window", "box:1x1", "--direction", "1,0", "--steps", "3"]


# argparse alone reads "-0.5,1", "-1e-3" or "-.5" after a flag as another flag
# ("expected one argument"); a token that starts with "-" and a digit or "." is
# the flag's value, as it is after "=", on every subcommand
@pytest.mark.parametrize("argv,flag,value", ids=lambda v: v[0] if isinstance(v, list) else v,
                         argvalues=[
    (_SIMULATE_BASE, "--alpha", "-0.5,1"),
    (_SIMULATE_BASE, "--alpha", "-1e-3"),
    (_SIMULATE_BASE, "--alpha", "-.5"),
    (_SIMULATE_BASE, "--schedule", "-1,0.5"),
    (_SIMULATE_BASE, "--t", "-1e3"),
    (_SIMULATE_BASE, "--t-grid", "-10,30"),
    (_SIMULATE_BASE, "--n", "-2"),
    (_SIMULATE_BASE, "--delta", "-0.1e-2"),
    (_SIMULATE_BASE, "--reps", "-1e3"),
    (_SIMULATE_BASE, "--seed", "-3"),
    (_SIMULATE_BASE, "--out", "-1.csv"),
    (_SIMULATE_BASE, "--edges-out", "-.edges.csv"),
    (_SIMULATE_BASE, "--config", "-1.cfg"),
    (["predict", "--window", "box:1x1", "--t", "30", "--delta", "0.1"], "--alpha", "-0.5,1"),
    (["verify", "--window", "box:1x1", "--t", "30", "--delta", "0.1", "--alpha", "1",
      "--reps", "2"], "--kind", "-1"),
    (_COVARIOGRAM_BASE, "--direction", "-1,0"),
    (_COVARIOGRAM_BASE, "--direction", "-.5,1"),
    (_COVARIOGRAM_BASE, "--rmax", "-1e3"),
    (_COVARIOGRAM_BASE, "--steps", "-1"),
])
def test_negative_value_after_a_space_reads_as_after_equals(argv, flag, value, tmp_path,
                                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GILBERT_SEED", raising=False)
    spaced = _main_result(argv + [flag, value], capsys)
    assert spaced == _main_result(argv + [f"{flag}={value}"], capsys)
    assert "expected one argument" not in spaced[2]


def test_a_dash_path_after_a_space_is_still_a_flag(capsys):
    # only a digit or "." after the "-" makes a value: --out -x lacks its value
    rc, out, err = _main_result(_SIMULATE_BASE + ["--out", "-x"], capsys)
    assert (rc, out) == (2, "") and err.endswith("argument --out: expected one argument\n")


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# caf\u00e9\nwindow = box:1x1\n".encode("latin-1"))
    assert cli.main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read config")


@pytest.mark.parametrize("command", [
    ["simulate"], ["verify", "--kind", "Moments"]])
@pytest.mark.parametrize("route", ["flag", "env", "config"])
def test_negative_seed_exits_2(command, route, tmp_path, monkeypatch, capsys):
    # a negative seed is a config error naming the seed, from every route
    argv = command + ["--window", "box:1x1", "--t", "100", "--delta", "0.05",
                      "--alpha", "0", "--reps", "2"]
    monkeypatch.delenv("GILBERT_SEED", raising=False)
    if route == "flag":
        argv += ["--seed", "-1"]
    elif route == "env":
        monkeypatch.setenv("GILBERT_SEED", "-3")
    else:
        argv += ["--config", write_cfg(tmp_path, "seed = -1\n")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed must be >= 0, got -")


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


def test_reps_is_required_only_where_graphs_are_built(tmp_path, capsys):
    window = ["--window", "box:1x1"]
    assert cli.main(["predict", *window, "--t", "100", "--delta", "0.05", "--alpha", "0"]) == 0
    out = tmp_path / "pp.json"
    assert cli.main(["verify", "--kind", "PPConditions", *window, "--t-grid", "100,1000,10000",
                     "--schedule", "1,0.8", "--alpha", "2", "--out", str(out)]) == 0
    assert "replications" not in json.loads(out.read_text())["config"]
    for command in (["simulate"], ["verify", "--kind", "OrderStatistics"]):
        assert cli.main([*command, *window, "--t", "100", "--delta", "0.05",
                         "--alpha", "2"]) == 2
        assert "missing required key 'reps'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "predict"])
def test_command_is_the_kind_whatever_the_config_file_says(command, tmp_path):
    # one config file serves every command: its kind is verify's
    raw = cli.load_config(write_cfg(tmp_path, MINIMAL.replace("Moments", "CLT")))
    assert cli.resolve_config(raw, cli.build_parser().parse_args([command])).kind == command
    assert cli.resolve_config(raw, cli.build_parser().parse_args(["verify"])).kind == "CLT"


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


def test_verify_exit_codes(tmp_path, capsys, monkeypatch):
    # unknown config key -> 2, named on stderr
    bad = write_cfg(tmp_path, "window = box:1x1\nwidth = 3\n", "bad.cfg")
    assert cli.main(["verify", "--config", bad]) == 2
    assert "width" in capsys.readouterr().err
    # a wrong theory mean forces a failed verdict -> exit 1
    path = write_cfg(tmp_path, MINIMAL, "strict.cfg")
    with monkeypatch.context() as m:
        m.setattr(experiments, "expectation_exact", lambda *args: 1e9)
        assert cli.main(["verify", "--config", path, "--seed", "1",
                         "--out", str(tmp_path / "strict.json")]) == 1
    # order statistics need alpha > 0
    for alpha in ("0", "-1"):
        assert cli.main(["verify", "--kind", "OrderStatistics", "--window", "box:1x1",
                         "--t", "500", "--schedule", "1,0.8", "--alpha", alpha,
                         "--reps", "10"]) == 2


def _no_replications(*args, **kwargs):
    raise AssertionError("a replication ran before the config was rejected")


@pytest.mark.parametrize("reps", ["3", "400"], ids=["kd_tree", "grid"])
def test_the_replication_stub_stops_a_real_run(reps, monkeypatch):
    # the tests that say "no replication ran" patch the sampler every
    # replication draws from, one at a time or a chunk at a time
    monkeypatch.setattr(experiments, "replication_samples", _no_replications)
    with pytest.raises(AssertionError, match="a replication ran"):
        cli.main(["simulate", "--window", "box:1x1", "--t", "200", "--delta", "0.05",
                  "--alpha", "1", "--reps", reps])


def _no_quadrature(*args, **kwargs):
    raise AssertionError("a quadrature ran before the config was rejected")


@pytest.mark.parametrize("args,config,message", [
    (["--kind", "Everything", "--t", "100", "--delta", "0.05"], None,
     "unknown kind 'Everything'; choose one of Moments, CLT,"),
    (["--t", "100", "--delta", "0.05"], "reps 10\n", "expected key = value, got 'reps 10'"),
    (["--t", "100", "--delta", "0.05"], "seed =\n", "empty value for key 'seed'"),
    (["--delta", "0.05"], None, "missing required key 't', 't_grid' or 'n'"),
    (["--kind", "MultivariateCov", "--t", "100", "--delta", "0.05"], None,
     "MultivariateCov needs a schedule"),
    (["--kind", "CompoundPoisson", "--t-grid", "50,200", "--schedule", "1,0.5"], None,
     "CompoundPoisson needs a schedule with t^2 delta^d -> c in (0, inf)"),
    (["--kind", "LDI", "--t", "100", "--n", "400", "--delta", "0.05"], None,
     "--t or --t-grid (Poisson model) and --n (binomial model) pick different models"),
    (["--kind", "LDI", "--t-grid", "100,200", "--n", "400", "--delta", "0.05"], None,
     "--t or --t-grid (Poisson model) and --n (binomial model) pick different models"),
    # each kind samples only at the intensities its _SUITES row names; a config
    # naming another exits 2 before the memory budget, which 1e8 would break
    (["--kind", "PPConditions", "--t", "100", "--delta", "0.05"], None,
     "PPConditions samples at a t_grid of two or more, not at t = 100"),
    (["--kind", "PPConditions", "--t-grid", "100", "--delta", "0.05"], None,
     "PPConditions needs a t_grid of two or more t, got [100.0]"),
    (["--kind", "Moments", "--t-grid", "100,200", "--delta", "0.05"], None,
     "Moments samples at one t or n, not at the t_grid [100.0, 200.0]"),
    (["--kind", "MultivariateCov", "--t-grid", "100,200", "--schedule", "1,0.5"], None,
     "MultivariateCov samples at one t or n, not at the t_grid [100.0, 200.0]"),
    (["--kind", "OrderStatistics", "--t-grid", "100,200", "--schedule", "1,0.8"], None,
     "OrderStatistics samples at one t or n, not at the t_grid [100.0, 200.0]"),
    (["--kind", "Moments", "--t", "100", "--t-grid", "100,1e8", "--delta", "0.05"], None,
     "Moments samples at one t or n, not at the t_grid [100.0, 100000000.0]"),
    (["--kind", "CLT", "--t", "1e8", "--t-grid", "100,200", "--delta", "0.05"], None,
     "CLT samples at one t or a t_grid, not at t = 1e+08"),
    (["--kind", "Moments"], "delta = 0.05\n", "missing required key 't', 't_grid' or 'n'"),
    (["--kind", "LDI", "--t", "100", "--t-grid", "100,200", "--schedule", "1,0.8"], None,
     "LDI samples at one t or n, and a thermodynamic t_grid, not at the t_grid [100.0, 200.0]"),
    (["--kind", "LDI", "--t", "100", "--t-grid", "100", "--schedule", "1,0.5"], None,
     "LDI needs a t_grid of two or more t, got [100.0]"),
    (["--kind", "LDI", "--t-grid", "100,200", "--schedule", "1,0.5"], None,
     "LDI needs a single t"),
    # simulate and predict sample at one t or n, whichever way a t_grid comes
    (["simulate", "--t", "100", "--t-grid", "100,1e8", "--delta", "0.05"], None,
     "simulate samples at one t or n, not at the t_grid [100.0, 100000000.0]"),
    (["predict", "--delta", "0.05"], "t_grid = 100,200\n",
     "predict samples at one t or n, not at the t_grid [100.0, 200.0]"),
    # predict's covariance exists only for alpha > -d/2: the gate says so before any quadrature
    (["predict", "--alpha=-1,0", "--t", "100", "--delta", "0.05"], None,
     "predict needs alpha > -1, got [-1.0]"),
    # every grid consumer reads the last t as the largest
    (["--kind", "CLT", "--t-grid", "200,200", "--delta", "0.05"], None,
     "t_grid must be strictly increasing, got [200.0, 200.0]"),
    (["--kind", "CLT", "--t-grid", "800,200", "--delta", "0.05"], None,
     "t_grid must be strictly increasing, got [800.0, 200.0]"),
    # simulate and predict have rows in _SUITES but are not verify kinds
    (["--kind", "simulate", "--t", "100", "--delta", "0.05"], None,
     "unknown kind 'simulate'; choose one of Moments, CLT,"),
], ids=["unknown_kind", "line_without_equals", "empty_value", "no_intensity_or_model",
        "multivariate_without_schedule", "compound_poisson_without_finite_c",
        "t_and_n_flags", "t_grid_and_n_flags", "pp_conditions_one_t", "pp_conditions_one_t_grid",
        "moments_t_grid_only", "multivariate_t_grid_only", "order_statistics_t_grid_only",
        "moments_unsampled_t_grid", "clt_unsampled_t", "moments_no_t",
        "ldi_t_grid_not_thermodynamic", "ldi_slope_t_grid_of_one", "ldi_t_grid_only",
        "simulate_t_grid", "predict_config_t_grid", "predict_alpha_range", "clt_t_grid_repeated",
        "clt_t_grid_decreasing", "simulate_kind"])
def test_config_errors_exit_2_before_replications(args, config, message, tmp_path,
                                                  monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    monkeypatch.setattr(experiments, "covariance_exact", _no_quadrature)
    command, args = ("verify", args) if args[0].startswith("--") else (args[0], args[1:])
    argv = [command, "--window", "box:1x1", "--alpha", "2", "--reps", "10"] + args
    if config is not None:
        argv += ["--config", write_cfg(tmp_path, config)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_ball_dimension_has_one_spelling(capsys):
    # ball:<r>@d=<dim>; there is no --dim flag
    assert cli.main(["predict", "--window", "ball:0.5", "--t", "100", "--delta", "0.05",
                     "--alpha", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: bad window 'ball:0.5': ")
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--window", "box:1x1", "--dim", "3", "--t", "100",
                  "--delta", "0.05", "--alpha", "0"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --dim 3" in capsys.readouterr().err


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
    ["verify", "--kind", "CLT", "--alpha", "0", "--reps", "60"],
    ["verify", "--kind", "MultivariateCov", "--alpha", "0,1", "--reps", "10",
     "--schedule", "1,0.5"],
    ["predict", "--alpha", "0,1"],
    ["verify", "--kind", "OrderStatistics", "--alpha", "2", "--reps", "10"],
    ["verify", "--kind", "CompoundPoisson", "--alpha", "2", "--reps", "10",
     "--schedule", "1,1"],
    ["verify", "--kind", "PPConditions", "--alpha", "2", "--reps", "10"],
])
def test_poisson_formulas_reject_binomial_runs(argv, monkeypatch, capsys):
    # these compare with the Poisson formulas at t = n (rescaled by t, or along
    # a schedule's delta_t), which do not describe n binomial points
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    distance = [] if "--schedule" in argv else ["--delta", "0.05"]  # a run takes one
    rc = cli.main(argv + ["--window", "box:1x1", "--n", "400"] + distance)
    assert rc == 2
    assert "needs the Poisson model" in capsys.readouterr().err


def test_ldi_and_simulate_keep_the_binomial_model(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    with pytest.raises(AssertionError, match="a replication ran"):
        cli.main(["verify", "--kind", "LDI", "--window", "box:1x1", "--n", "400",
                  "--delta", "0.05", "--alpha", "0", "--reps", "10"])
    monkeypatch.undo()
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


@pytest.mark.parametrize("args,prefix", [
    (["--window", "box:1x1", "--t", "1e300", "--delta", "0.05"],
     "error: OverflowError at these inputs: "),
    (["--window", "box:1x1", "--t", "1e120", "--delta", "0.05"],
     "error: OverflowError at these inputs: "),
    (["--window", "box:100x100", "--t", "5e102", "--delta", "0.5"],  # t**3 finite, value inf
     "error: a prediction is not finite at these inputs: "),
], ids=["t1e300", "t1e120", "infinite"])
def test_predict_overflow_exits_2(args, prefix, capsys):
    assert cli.main(["predict", "--alpha", "0"] + args) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(prefix)


_BOX = ["--window", "box:1x1", "--t", "10", "--alpha", "1", "--reps", "3"]


@pytest.mark.parametrize("argv,exc", [
    (["verify", "--kind", "CLT", *_BOX, "--delta", "1e300"], "OverflowError"),
    (["simulate", *_BOX, "--delta", "1e300"], "OverflowError"),
    (["verify", "--kind", "CLT", *_BOX, "--delta", "1e-300"], "ZeroDivisionError"),
    (["verify", "--kind", "LDI", *_BOX, "--delta", "1e-300"], "ZeroDivisionError"),
    # 1e6 points; (1e99)^4 overflows in the interior covariance moment
    (["verify", "--kind", "Moments", "--window", "box:1e100x1e100", "--t", "1e-194",
      "--delta", "1e99", "--alpha", "2", "--reps", "3"], "OverflowError"),
    (["predict", "--window", "box:1x1", "--t", "10", "--alpha", "0,1",
      "--schedule", "1e-300,0.5"], "ZeroDivisionError"),
], ids=["clt_edge_budget", "simulate_edge_budget", "clt_kolmogorov", "ldi_xstar",
        "moments_covariance", "predict_d3_bound"])
def test_arithmetic_failure_exits_2(argv, exc, capsys):
    # overflow or division by zero at extreme inputs is one error line, not a traceback
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {exc} at these inputs: ")
    assert captured.err.count("\n") == 1


def _spy_on_batches(monkeypatch) -> list[int]:
    """The size of every chunk run_replications builds through build_edges_batch."""
    sizes = []

    def spy(points, counts, delta):
        sizes.append(len(counts))
        return gg.build_edges_batch(points, counts, delta)

    monkeypatch.setattr(experiments, "build_edges_batch", spy)
    return sizes


def test_arithmetic_failure_exits_2_on_the_batch_path(monkeypatch, capsys):
    # ldi_xstar's case with 1000 replications of 10 points: the pilot's 500 and the
    # test's 1000 are built a chunk at a time, where a delta-wide grid would want
    # ~1e300 cells per axis
    argv = ["verify", "--kind", "LDI", "--window", "box:1x1", "--t", "10", "--alpha", "1",
            "--delta", "1e-300", "--reps"]
    assert cli.main(argv + ["3"]) == 2
    per_replication = capsys.readouterr()
    chunks = _spy_on_batches(monkeypatch)
    assert cli.main(argv + ["1000"]) == 2
    assert sum(chunks) == 1500
    assert capsys.readouterr() == per_replication
    assert per_replication.err.startswith("error: ZeroDivisionError at these inputs: ")


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
    argv = [command, "--window", "box:1x1", "--alpha", "1", "--reps", "10",
            "--config", write_cfg(tmp_path, cfg)] + args
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: at ")
    assert f"above the budget of {experiments.EDGE_BUDGET:.3g} edges in memory" in err


@pytest.mark.parametrize("delta", ["1e-200", "0.05"], ids=["nan", "inf"])
def test_edge_budget_rejects_a_non_finite_estimate(delta, monkeypatch, capsys):
    # at t = 1e300, t * t is inf; with delta^2 = 0.0 the estimate is NaN, and
    # NaN > budget is False
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    assert cli.main(["verify", "--kind", "Moments", "--window", "box:1x1", "--t", "1e300",
                     "--delta", delta, "--alpha", "1", "--reps", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: at t = 1e+300 ")
    assert "an estimate that is not finite" in err
    assert f"above the budget of {experiments.EDGE_BUDGET:.3g} edges in memory" in err


def test_edge_budget_leaves_smaller_runs_and_predict_alone(monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    with pytest.raises(AssertionError, match="a replication ran"):
        cli.main(["verify", "--kind", "Moments", "--window", "box:1x1", "--t", "150000",
                  "--delta", "0.02", "--alpha", "1", "--reps", "10"])
    # predict builds no graph
    assert cli.main(["predict", "--window", "box:1x1", "--t", "200000", "--delta", "0.02",
                     "--alpha", "1"]) == 0


# E[points] = t V (or n) per replication: 3e299 points on box:1e150x1e150, past
# numpy's Poisson limit, 6e8 on ball:2@d=7 at t = 1e6 (31 GB of coordinates),
# and 2e7 at the second t of a grid, checked before the first t's replications;
# delta is so small that the edge budget passes.
@pytest.mark.parametrize("argv", [
    ["verify", "--kind", "Moments", "--window", "box:1e150x1e150", "--t", "0.3",
     "--schedule", "1e-300,0.5", "--alpha", "1e-9", "--reps", "2"],
    ["simulate", "--window", "ball:2@d=7", "--t", "1e6", "--schedule", "1,50", "--alpha", "1",
     "--reps", "3"],
    ["simulate", "--window", "box:1x1", "--n", "20000000", "--delta", "1e-9", "--alpha", "1",
     "--reps", "3"],
    ["verify", "--kind", "CLT", "--window", "box:1x1", "--t-grid", "1e6,2e7", "--delta", "1e-4",
     "--alpha", "1", "--reps", "20"],
], ids=["poisson_limit", "ball_d7", "binomial", "t_grid"])
def test_point_budget_exits_2_before_replications(argv, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "replication_samples", _no_replications)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: at ")
    assert f"above the budget of {experiments.POINT_BUDGET:.3g} points in memory" in err


# t^(2 alpha/d) is 1e-600 (0.0 in floating point) or 1e500 (OverflowError)
@pytest.mark.parametrize("kind,args,named", [
    ("OrderStatistics", ["--window", "box:0.5", "--t", "1e-300", "--delta", "0.1", "--alpha", "1"],
     "alpha = 1.0, t = 1e-300"),
    ("OrderStatistics", ["--window", "box:1x1", "--t", "1e5", "--delta", "0.001",
                         "--alpha", "100"], "alpha = 100.0, t = 100000.0"),
    ("CompoundPoisson", ["--window", "box:1x1", "--t-grid", "1e-3,1", "--schedule", "1,1",
                         "--alpha", "200"], "alpha = 200.0, t = 0.001"),
    ("CompoundPoisson", ["--window", "box:1x1", "--t-grid", "10,1e5", "--schedule", "1,1",
                         "--alpha", "100"], "alpha = 100.0, t = 100000.0"),
], ids=["order_underflow", "order_overflow", "cp_underflow", "cp_overflow"])
def test_limit_rescale_leaving_the_floats_exits_2(kind, args, named, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "replication_samples", _no_replications)
    assert cli.main(["verify", "--kind", kind, "--reps", "2"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind}: the rescale t^(2 alpha/d) underflows")
    assert named in err


@pytest.mark.parametrize("alpha,named", [
    ("1e-9", "alpha = 1e-09, u = 0.5"),  # 0.5^(1e9) underflows to 0.0
    ("0.00095", "alpha = 0.00095, u = 2.0"),  # 0.5^(1/alpha) is subnormal, 2^(1/alpha) overflows
], ids=["underflow", "overflow"])
def test_pp_conditions_rho_underflow_exits_2_before_quadrature(alpha, named, monkeypatch,
                                                               capsys):
    monkeypatch.setattr(experiments, "expectation_exact", _no_quadrature)  # its only quadrature
    rc = cli.main(["verify", "--kind", "PPConditions", "--window", "box:1x1", "--alpha", alpha,
                   "--t-grid", "1e-3,1", "--delta", "0.05", "--reps", "5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: PPConditions: rho")
    assert named in err


@pytest.mark.parametrize("command,args", [
    ("simulate", ["--t", "10"]),
    ("verify", ["--kind", "Moments", "--t", "10"]),
    ("verify", ["--kind", "PPConditions", "--t-grid", "1e3,1e4"]),
])
def test_schedule_delta_underflow_exits_2(command, args, monkeypatch, capsys):
    # delta_t = 1e-300 * t^-50 is 0.0 in floating point
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    rc = cli.main([command, "--window", "box:1x1", "--schedule", "1e-300,50", "--alpha", "1",
                   "--reps", "5"] + args)
    assert rc == 2
    assert "the schedule's delta underflows to 0" in capsys.readouterr().err


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
        config={"t": math.nan, "seed": 0}, metrics=[])
    with pytest.raises(ValueError):
        experiments.report_to_json(report)


def count_box_angular_calls(monkeypatch) -> list:
    """Record the radius of every box angular covariogram G(r) call.

    G's recursion looks up the module global, so inner calls are counted too.
    """
    calls = []
    box_angular = geometry._box_angular

    def counting(sides, r):
        calls.append(r)
        return box_angular(sides, r)

    monkeypatch.setattr(geometry, "_box_angular", counting)
    return calls


def test_predict_box_within_min_side_evaluates_no_angular_covariogram(monkeypatch, capsys):
    # 2 means and 3 covariances need 11 radial moments over [0, delta]; with
    # delta <= min(side) every one is the box's closed-form series, so no
    # exponent evaluates the angular covariogram G at all.
    calls = count_box_angular_calls(monkeypatch)
    assert cli.main(["predict", "--window", "box:1.0x0.8x0.6", "--t", "500",
                     "--delta", "0.1", "--alpha", "0,1"]) == 0
    assert calls == []
    capsys.readouterr()


def test_predict_rejects_unsupported_covariance_before_expectations(monkeypatch, capsys):
    # a 4-d box has no exact covariance; with delta > min(side) its means
    # would need the slow 4-d angular covariogram, so none may be computed first
    calls = count_box_angular_calls(monkeypatch)
    assert cli.main(["predict", "--window", "box:1x0.8x0.6x0.5", "--t", "10",
                     "--delta", "0.7", "--alpha", "0"]) == 2
    assert calls == []
    assert "exact box covariance implemented for d <= 3" in capsys.readouterr().err


def test_verify_moments_rejects_unsupported_covariance_before_means(monkeypatch, capsys):
    # as predict: Moments computes its covariances first, so a 4-d box exits 2
    # before any mean's G quadrature and before any graph is built
    calls = count_box_angular_calls(monkeypatch)
    built = []

    def counting(sample, delta):
        built.append(delta)
        return gg.build_edges(sample, delta)

    monkeypatch.setattr(experiments, "build_edges", counting)
    assert cli.main(["verify", "--kind", "Moments", "--window", "box:1x0.8x0.6x0.5",
                     "--t", "10", "--delta", "0.7", "--alpha", "0", "--reps", "10"]) == 2
    assert (calls, built) == ([], [])
    assert "exact box covariance implemented for d <= 3" in capsys.readouterr().err


def test_predict_rejects_ball_covariance_above_d3(capsys):
    assert cli.main(["predict", "--window", "ball:1@d=4", "--t", "10",
                     "--delta", "0.1", "--alpha", "0"]) == 2
    assert "exact ball covariance requires d <= 3" in capsys.readouterr().err


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__))]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def run_fresh_python(code: str, *args: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this package."""
    return subprocess.run([sys.executable, "-c", code, *args], env=_fresh_env(), check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats is slow to import and the package needs none of it: KS and
    # Clopper-Pearson use scipy.special's ndtr and betaincinv, imported on
    # first use (importing the CLI loads no scipy module at all, see below)
    code = "import sys, gilbertsim.cli; print('scipy.stats' in sys.modules)"
    assert run_fresh_python(code).strip() == "False"


def test_box_predict_loads_neither_scipy_special_nor_spatial(tmp_path):
    # importing the CLI loads no scipy; a box predict or covariogram needs
    # neither scipy.special (balls, KS, Clopper-Pearson) nor scipy.spatial
    # (build_edges), and a ball predict needs scipy.special only
    code = "\n".join([
        "import sys",
        "from gilbertsim import cli",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
        "assert cli.main(['predict', '--window', 'box:1x0.8x0.6', '--t', '100',",
        "                 '--delta', '0.1', '--alpha', '0,1', '--out', sys.argv[1]]) == 0",
        "assert cli.main(['covariogram', '--window', 'box:1x0.8', '--direction', '1,0',",
        "                 '--out', sys.argv[1]]) == 0",
        "print('scipy.special' in sys.modules, 'scipy.spatial' in sys.modules)",
        "assert cli.main(['predict', '--window', 'ball:1@d=2', '--t', '100',",
        "                 '--delta', '0.1', '--alpha', '0,1', '--out', sys.argv[1]]) == 0",
        "print('scipy.special' in sys.modules, 'scipy.spatial' in sys.modules)",
    ])
    lines = run_fresh_python(code, str(tmp_path / "out.txt")).splitlines()
    assert lines == ["[]", "False False", "True False"]


def test_sparse_verify_loads_no_scipy(tmp_path):
    # verify_sparse's traffic: small replications are built a chunk at a time with
    # numpy alone, and a box's Moments theory needs no scipy.special
    code = "\n".join([
        "import sys",
        "from gilbertsim import cli",
        "assert cli.main(['verify', '--kind', 'Moments', '--window', 'box:1x1', '--t', '200',",
        "                 '--delta', '0.05', '--alpha', '0,1', '--reps', '400', '--seed', '1',",
        "                 '--out', sys.argv[1]]) == 0",
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))",
    ])
    assert run_fresh_python(code, str(tmp_path / "report.json")).strip() == "[]"


_PREDICT_AFTER = """import contextlib, io, random, sys
from gilbertsim import cli
rng = random.Random(5)
last = sys.argv[2:]
for k in range(int(sys.argv[1])):  # boxes of d = 1-3 with alphas that share pairs
    d = rng.randint(1, 3)
    sides = [rng.uniform(0.5, 2.0) for _ in range(d)]
    window = "box:" + "x".join(map(repr, sides))
    delta = repr(rng.uniform(0.02, 0.5) * min(sides))
    if k % 3 == 0:  # the last call's box at another delta
        window, delta = last[last.index("--window") + 1], repr(rng.uniform(0.02, 0.4))
    elif k % 3 == 1:  # the last call's delta in another box
        delta = last[last.index("--delta") + 1]
    argv = ["predict", "--window", window, "--t", "1000", "--delta", delta,
            "--alpha=" + rng.choice(["0,1", "1,0", "0,2", "-0.4,1", "1"])]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
assert cli.main(last) == 0"""


def test_predict_bytes_do_not_depend_on_earlier_calls():
    # the theory caches keep the layer weights, deficit tables and radial moments of
    # earlier calls (more than fit, so some are evicted): a box predict prints the
    # same bytes in a fresh interpreter as after 20 other predict calls
    argv = ["predict", "--window", "box:1.3x0.9x1.7", "--t", "1000", "--delta", "0.11",
            "--alpha", "0,1"]
    fresh = run_fresh_python(_PREDICT_AFTER, "0", *argv)
    assert '"covariance[0.0,1.0]"' in fresh
    assert run_fresh_python(_PREDICT_AFTER, "20", *argv) == fresh


def test_box_runs_leave_scipy_integrate_unloaded(tmp_path):
    # scipy.integrate loads scipy.optimize and scipy.sparse.linalg; only a
    # box radial moment with delta > min(side) imports it, and neither a box
    # predict nor a box Moments run reaches that case
    code = "\n".join([
        "import sys",
        "from gilbertsim import cli",
        "common = ['--window', 'box:1x0.8x0.6', '--t', '100', '--delta', '0.1',",
        "          '--alpha', '0,1', '--out', sys.argv[1]]",
        "assert cli.main(['predict'] + common) == 0",
        "assert cli.main(['verify', '--kind', 'Moments', '--reps', '5'] + common) in (0, 1)",
        "print('scipy.integrate' in sys.modules)",
    ])
    assert run_fresh_python(code, str(tmp_path / "out.json")).strip() == "False"


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
    # predict builds no graphs and needs no reps; a Moments verify does
    assert cli.main(["verify", "--window", "box:1x1", "--t", "100", "--delta", "0.05",
                     "--alpha", "0"]) == 2
    assert "missing required key 'reps'" in capsys.readouterr().err


# Config-file values that do not convert; stderr names their key.
UNCONVERTIBLE = ("reps = x",)
# Keys of settings that no longer exist (a ball's separate dimension, the
# verdict tolerances, now fixed, and the model, which the intensity given
# picks); stderr names each as an unknown key.
REMOVED_KEYS = ("dim = x", "tol_ks = abc", "tol_slope_max = nan",
                "tol_tail_slope_min = inf", "tol_ks = 0", "model = poisson")


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
    ["--t", "100", "--alpha", "0,0", "--schedule", "1,0.5"],
    # config-file lines
    *UNCONVERTIBLE, *REMOVED_KEYS, "n_jobs = -3", "n_jobs = 0", "n_jobs = 65",
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
        assert f"invalid value for {key!r}" in err
    if bad in REMOVED_KEYS:
        assert f"unknown key {key!r}" in err


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


SIMULATE = ["simulate", "--t", "100", "--delta", "0.05", "--alpha", "0", "--reps", "2"]
LONG_NAME = "x" * 300  # past the usual 255-byte limit on a file name


def _files(root):
    """Every file under root, path -> bytes."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("argv,flag,target", [
    (SIMULATE, "--out", "missing/out.txt"),
    (SIMULATE, "--edges-out", "missing/out.txt"),
    (SIMULATE + ["--out", "o.csv"], "--edges-out", "missing/out.txt"),
    (SIMULATE, "--out", "."),
    (["predict", "--t", "100", "--delta", "0.05", "--alpha", "0"], "--out", "missing/out.txt"),
    (["verify", "--kind", "Moments", "--t", "100", "--delta", "0.05", "--alpha", "0",
      "--reps", "20"], "--out", "missing/out.txt"),
    (["covariogram", "--direction", "1,0", "--steps", "3"], "--out", "missing/out.txt"),
    (LDI + ["--t", "100", "--delta", "0.05", "--alpha", "1", "--reps", "5"], "--out", "q.json"),
    (LDI + ["--t", "100", "--delta", "0.05", "--alpha", "1", "--reps", "5"], "--out", "y" * 240),
    (SIMULATE, "--out", "read_only.csv"),
    (SIMULATE + ["--out", "o.csv"], "--edges-out", LONG_NAME),
], ids=["simulate", "simulate_edges", "simulate_out_and_edges", "simulate_directory",
        "predict", "verify", "covariogram", "ldi_table_directory", "ldi_table_name_too_long",
        "simulate_read_only", "simulate_edges_name_too_long"])
def test_unwritable_output_exits_2(argv, flag, target, tmp_path, monkeypatch, capsys):
    # a path that cannot be written, an LDI table's too, is a usage error found
    # before any replication; verify's exit 1 means failed verdicts
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / target)
    # LDI's table lies next to --out: a directory, or a name 3 bytes too long
    bad = path + ".ldi_alpha_1.0.csv" if "LDI" in argv else path
    if target == "q.json":
        os.mkdir(bad)
    if target == "read_only.csv":
        _owner_modes_bind(monkeypatch, tmp_path)
        (tmp_path / target).write_text("old\n")
        (tmp_path / target).chmod(0o444)
    before = _files(tmp_path)
    assert cli.main(argv + ["--window", "box:1x1", flag, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad!r}: ") and err.count("\n") == 1
    assert not (tmp_path / "o.csv").exists()  # a good --out is not written either
    assert _files(tmp_path) == before


@pytest.mark.parametrize("argv,message", [
    (LDI + ["--t", "100", "--delta", "0.05", "--alpha", "1", "--reps", "5", "--out", ""],
     "cannot write ''"),
    (["covariogram", "--direction", "1,0", "--steps", "3", "--out", ""], "cannot write ''"),
    (SIMULATE + ["--out", ""], "cannot write ''"),
    (SIMULATE + ["--out", "", "--edges-out", "e.csv"], "cannot write ''"),
    (SIMULATE + ["--edges-out", ""], "cannot write ''"),
    (SIMULATE + ["--config", ""], "cannot read config ''"),
], ids=["ldi_out", "covariogram_out", "simulate_out", "simulate_out_and_edges",
        "simulate_edges", "config"])
def test_empty_path_exits_2(argv, message, tmp_path, monkeypatch, capsys):
    # '' names no file: as an output or the config it exits 2 before any
    # replication or quadrature, and nothing is written, stdout included
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    monkeypatch.setattr(experiments, "covariogram", _no_quadrature)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--window", "box:1x1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}: ") and captured.err.count("\n") == 1
    assert captured.out == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags,message", [
    (["--out", "p.csv", "--edges-out", "p.csv"], "--out and --edges-out name one file, 'p.csv'"),
    (["--out", "run.cfg"], "--config and --out name one file, 'run.cfg'"),
    (["--out", "link.cfg"], "--config and --out name one file, 'link.cfg'"),
    (["--out", "o.csv", "--edges-out", "sub/../run.cfg"],
     "--config and --edges-out name one file, 'sub/../run.cfg'"),
    (["--config", "r.json.ldi_alpha_1.0.csv", "--out", "r.json"],
     "--config and the ldi_alpha_1.0 table name one file, 'r.json.ldi_alpha_1.0.csv'"),
    (["--config", "report.ldi_alpha_1.0.csv"],
     "--config and the ldi_alpha_1.0 table name one file, 'report.ldi_alpha_1.0.csv'"),
], ids=["out_is_edges_out", "out_is_config", "out_links_to_config", "edges_out_is_config",
        "ldi_table_is_config", "ldi_table_without_out_is_config"])
def test_one_file_named_twice_exits_2(flags, message, tmp_path, monkeypatch, capsys):
    # the second write would replace the first, or the config: a usage error found
    # before any replication, an LDI table's too, and nothing is written
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("window = box:1x1\nt = 100\ndelta = 0.05\n"
                                      "alphas = 0\nreps = 2\n")
    (tmp_path / "link.cfg").symlink_to(tmp_path / "run.cfg")
    (tmp_path / "sub").mkdir()
    for name in ("r.json.ldi_alpha_1.0.csv", "report.ldi_alpha_1.0.csv"):
        (tmp_path / name).write_text("window = box:1x1\nt = 100\ndelta = 0.05\n"
                                     "alphas = 1\nreps = 5\n")
    # the LDI cases name their own config
    command = LDI if "--config" in flags else ["simulate", "--config", "run.cfg"]

    before = _files(tmp_path)
    assert cli.main(command + flags) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert _files(tmp_path) == before


@pytest.mark.parametrize("missing", ["window", "alphas"])
def test_missing_window_or_alphas_exits_2(missing, monkeypatch, capsys):
    monkeypatch.setattr(experiments, "run_replications", _no_replications)
    given = {"window": ["--window", "box:1x1"], "alphas": ["--alpha", "1"]}
    argv = ["simulate", "--t", "100", "--delta", "0.05", "--reps", "2"]
    argv += [flag for key, flags in given.items() if key != missing for flag in flags]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: missing required key {missing!r}\n"


def _disk_full_on_edges(fd, mode, **kwargs):
    """open() whose file raises ENOSPC on the edge dump's text."""
    fh = open(fd, mode, **kwargs)

    def write(text):
        if text.startswith("i,j,length"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return type(fh).write(fh, text)

    fh.write = write
    return fh


@pytest.mark.parametrize("argv,bad,disk_full", [
    (["predict", "--window", "box:1x1", "--t", "100", "--delta", "0.05", "--alpha", "0",
      "--out", LONG_NAME], LONG_NAME, False),
    (["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.05", "--alpha", "0",
      "--reps", "2", "--out", "o.csv", "--edges-out", LONG_NAME], LONG_NAME, False),
    (["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.05", "--alpha", "0",
      "--reps", "2", "--out", "o.csv", "--edges-out", "e.csv"], "e.csv", True),
], ids=["name_too_long", "second_name_too_long", "disk_full"])
def test_failed_write_exits_2(argv, bad, disk_full, tmp_path, monkeypatch, capsys):
    # a 300-character file name exits 2 before any work (see
    # test_unwritable_output_exits_2), and a full disk fails the write itself;
    # then no file is written, not even an --out written before the failing
    # one, and no temporary file stays
    monkeypatch.chdir(tmp_path)
    if disk_full:
        monkeypatch.setattr(cli, "open", _disk_full_on_edges, raising=False)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad!r}: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


class _FullStdout(io.StringIO):
    """sys.stdout on a full disk: a write fills its buffer, and the flush fails."""

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


_FULL_STDOUT = "error: cannot write '<stdout>': [Errno 28] No space left on device\n"
_COVARIOGRAM = ["covariogram", "--window", "box:1x1", "--direction", "1,0", "--steps", "3"]


@pytest.mark.parametrize("argv", [
    _COVARIOGRAM,
    ["predict", "--window", "box:1x1", "--t", "100", "--delta", "0.05", "--alpha", "0"],
    SIMULATE + ["--window", "box:1x1"],
], ids=["covariogram", "predict", "simulate"])
def test_failed_stdout_exits_2(argv, capsys):
    # stdout is written last, in place: a write that fails there exits 2 with
    # one error line, not 1 (failed verdicts) with a traceback
    with contextlib.redirect_stdout(_FullStdout()):
        assert cli.main(argv) == 2
    assert capsys.readouterr().err == _FULL_STDOUT


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_on_dev_full_exits_2():
    # the device refuses the write itself; the interpreter's own flush at exit
    # adds no second error line
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "gilbertsim.cli", *_COVARIOGRAM],
                              env=_fresh_env(), stdout=full, stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (2, _FULL_STDOUT)


def test_write_keeps_links_file_modes_and_fifos(tmp_path, monkeypatch):
    # a link stays a link and the file it names keeps its mode; a new file gets
    # 0666 less the umask, as with open(path, "w"), not a temporary file's 0600;
    # a FIFO is written through, not replaced by a regular file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.csv").write_text("old\n")
    os.chmod(tmp_path / "o.csv", 0o640)
    (tmp_path / "link.csv").symlink_to("o.csv")
    os.mkfifo(tmp_path / "fifo")
    reader = os.open(tmp_path / "fifo", os.O_RDONLY | os.O_NONBLOCK)
    umask = os.umask(0o022)
    try:
        assert cli.main(SIMULATE + ["--window", "box:1x1", "--out", "link.csv",
                                    "--edges-out", "fifo"]) == 0
        edges = os.read(reader, 1 << 16)
        assert cli.main(SIMULATE + ["--window", "box:1x1", "--out", "new.csv"]) == 0
    finally:
        os.umask(umask)
        os.close(reader)
    assert os.readlink(tmp_path / "link.csv") == "o.csv"
    assert (tmp_path / "o.csv").read_text().startswith("rep,")
    assert (tmp_path / "o.csv").stat().st_mode & 0o777 == 0o640
    assert edges.startswith(b"i,j,length\n") and (tmp_path / "fifo").is_fifo()
    assert (tmp_path / "new.csv").stat().st_mode & 0o777 == 0o644
    assert sorted(os.listdir(tmp_path)) == ["fifo", "link.csv", "new.csv", "o.csv"]


def _owner_modes_bind(monkeypatch, tmp_path):
    """Where this process writes any file (root), os.access answers from the
    owner's mode bits, as open() does for every other user."""
    probe = tmp_path / "probe"
    probe.write_text("")
    probe.chmod(0o444)
    modes_bind = not os.access(probe, os.W_OK)
    probe.unlink()
    if modes_bind:
        return
    real = os.access

    def access(path, mode):
        owner = os.stat(path).st_mode >> 6 & 0o7
        return real(path, mode) and (owner & mode) == mode

    monkeypatch.setattr(os, "access", access)


@pytest.mark.parametrize("case", ["read_only_file", "read_only_directory", "hard_link"])
def test_write_keeps_permissions_and_links(case, tmp_path, monkeypatch, capsys):
    # a read-only target is not replaced: exit 2 with open()'s message, nothing
    # written; a writable file in a read-only directory, or one with another
    # hard link, is written in place, so the file and its links stay
    _owner_modes_bind(monkeypatch, tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "sub" / "o.csv"
    target.write_text("old\n")
    if case == "hard_link":
        os.link(target, tmp_path / "link.csv")
    inode = target.stat().st_ino
    if case == "read_only_file":
        target.chmod(0o444)
    else:
        (tmp_path / "sub").chmod(0o555)
    try:
        code = cli.main(SIMULATE + ["--window", "box:1x1", "--out", "good.csv",
                                    "--edges-out", "sub/o.csv"])
    finally:
        (tmp_path / "sub").chmod(0o755)
    if case == "read_only_file":
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cannot write 'sub/o.csv': [Errno 13] Permission denied: 'sub/o.csv'\n")
        assert target.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["sub"] and os.listdir(tmp_path / "sub") == ["o.csv"]
        return
    assert code == 0
    assert target.read_text().startswith("i,j,length\n") and target.stat().st_ino == inode
    assert (tmp_path / "good.csv").read_text().startswith("rep,")
    if case == "hard_link":
        assert (tmp_path / "link.csv").read_text() == target.read_text()


@pytest.mark.skipif(os.geteuid() != 0, reason="only root can give a file another owner")
def test_write_keeps_another_owners_file_in_place(tmp_path, monkeypatch):
    # a rename would leave a new file owned by this process, so a target with
    # another owner and group is written in place: same inode, owner and group
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "o.csv"
    target.write_text("old\n")
    os.chown(target, 1, 1)
    inode = target.stat().st_ino
    argv = SIMULATE + ["--window", "box:1x1", "--seed", "4"]
    assert cli.main(argv + ["--out", "o.csv"]) == 0
    assert cli.main(argv + ["--out", "new.csv"]) == 0
    assert target.read_bytes() == (tmp_path / "new.csv").read_bytes()
    info = target.stat()
    assert (info.st_ino, info.st_uid, info.st_gid) == (inode, 1, 1)
    assert sorted(os.listdir(tmp_path)) == ["new.csv", "o.csv"]


def test_target_made_read_only_during_the_run_exits_2(tmp_path, monkeypatch, capsys):
    # the paths are checked again after the run, so a target that turned
    # read-only meanwhile is not replaced, and nothing is written
    _owner_modes_bind(monkeypatch, tmp_path)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "o.csv").write_text("old\n")

    run = experiments.run_replications

    def lock_then_run(*args):
        (tmp_path / "o.csv").chmod(0o444)
        return run(*args)

    monkeypatch.setattr(experiments, "run_replications", lock_then_run)
    assert cli.main(SIMULATE + ["--window", "box:1x1", "--out", "o.csv",
                                "--edges-out", "e.csv"]) == 2
    assert capsys.readouterr().err == (
        "error: cannot write 'o.csv': [Errno 13] Permission denied: 'o.csv'\n")
    assert sorted(os.listdir(tmp_path)) == ["o.csv"] and (tmp_path / "o.csv").read_text() == "old\n"


def test_edges_out_reuses_replication_zero(tmp_path, monkeypatch):
    # the dump is replication 0's edge set, built once: reps calls, not reps + 1
    built = []

    def counting(sample, delta):
        built.append(gg.build_edges(sample, delta))
        return built[-1]

    monkeypatch.setattr(experiments, "build_edges", counting)
    edges = tmp_path / "edges.csv"
    assert cli.main(["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.07",
                     "--alpha", "0,1", "--reps", "3", "--seed", "5",
                     "--out", str(tmp_path / "reps.csv"), "--edges-out", str(edges)]) == 0
    assert len(built) == 3
    assert edges.read_text().count("\n") == 1 + built[0].n_edges


def test_edges_out_on_the_batch_path(tmp_path, monkeypatch):
    # 50 replications of about 100 points are built in one chunk; the dump is
    # replication 0's EdgeSet from it, whose i, j and lengths are views of that
    # chunk's arrays: it keeps 24 B for each of the chunk's ~3,500 edges
    chunks = _spy_on_batches(monkeypatch)
    monkeypatch.setattr(experiments, "build_edges", None)  # never called on this path
    edges = tmp_path / "edges.csv"
    assert cli.main(["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.07",
                     "--alpha", "0,1", "--reps", "50", "--seed", "5",
                     "--out", str(tmp_path / "reps.csv"), "--edges-out", str(edges)]) == 0
    assert chunks == [50]
    config = experiments.ExperimentConfig(window=geometry.ConvexWindow.box((1.0, 1.0)),
                                          alphas=(0.0, 1.0), kind="simulate", replications=50,
                                          master_seed=5, t=100.0, delta=0.07)
    points, _ = replication_samples(config.window, 100.0, config.model, 5, range(1))
    want = gg.build_edges(PointSample(points=points), 0.07)
    assert want.n_edges > 0
    assert edges.read_text() == experiments.to_csv("i,j,length", want.i, want.j, want.lengths)


# VmHWM, the peak RSS of this process image in KiB: ru_maxrss would count the RSS of
# the process that started it (the test runner's, often larger than the run's own).
# VmHWM only rises, so one interpreter makes each run in turn and reads it after each
_PEAKS_AFTER_EACH = """import json, sys
from gilbertsim import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))"""


def _peaks_after_each(*runs: list[str]) -> list[int]:
    """VmHWM in KiB after each of the CLI runs, made in turn in one fresh interpreter."""
    return [int(v) for v in run_fresh_python(_PEAKS_AFTER_EACH, json.dumps(runs)).split()]


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="measured with glibc's malloc and Linux's VmHWM")
def test_edge_dump_peak_rss_per_edge(tmp_path):
    # the dump is laid out one block of 2^13 rows at a time: 870,302 edges add about
    # 42 B each to the run's peak RSS (a one-shot layout added about 196 B), and
    # 78,509 edges about 78 B (blocks of 2^16 rows added about 181 B)
    for t, at_least in (("5000", 800_000), ("1500", 70_000)):
        argv = ["simulate", "--window", "box:1x1", "--t", t, "--delta", "0.16", "--alpha", "1",
                "--reps", "2", "--seed", "3", "--out", os.devnull]
        edges = tmp_path / f"edges_{t}.csv"
        without, with_dump = _peaks_after_each(argv, argv + ["--edges-out", str(edges)])
        n_edges = edges.read_text().count("\n") - 1
        assert n_edges > at_least
        assert (with_dump - without) * 1024 <= 100 * n_edges, t


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="measured with glibc's malloc and Linux's VmHWM")
def test_simulate_peak_rss_per_replication():
    # the table is laid out from the columns of the stacked replication rows, one
    # block of 2^13 rows at a time: from 10,000 to 40,000 replications at two
    # alphas (built in chunks) the run's peak RSS grows about 450 B per
    # replication (a Python tuple per row from one tolist() grew it about 1,450 B)
    argv = ["simulate", "--window", "box:1x1", "--t", "2", "--delta", "0.01", "--alpha", "0,1",
            "--seed", "1", "--out", os.devnull]
    peaks = _peaks_after_each(argv + ["--reps", "10000"], argv + ["--reps", "40000"])
    assert (peaks[1] - peaks[0]) * 1024 <= 800 * 30_000


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="measured with glibc's malloc and Linux's VmHWM")
def test_verify_peak_rss_per_replication():
    # each chunk's rows are copied into one array as the chunk finishes: from 20,000
    # to 80,000 replications (a 16 B row each) the run's peak RSS grows about 80 B per
    # replication (a numpy array per row until one final np.array grew it about 210 B)
    argv = ["verify", "--kind", "Moments", "--window", "box:1x1", "--t", "3", "--delta", "0.05",
            "--alpha", "0,1", "--seed", "1", "--out", os.devnull]
    peaks = _peaks_after_each(argv + ["--reps", "20000"], argv + ["--reps", "80000"])
    assert (peaks[1] - peaks[0]) * 1024 <= 120 * 60_000


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
    # the table's rows are held in memory: more than POINT_BUDGET of them is one
    # error line, before np.linspace allocates anything
    capsys.readouterr()
    for steps in (int(experiments.POINT_BUDGET) + 1, 10**17, 10**19):
        argv = ["covariogram", "--window", "box:1x1", "--direction", "1,0"]
        assert cli.main(argv + ["--steps", str(steps)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: --steps must be between")
        assert captured.err.count("\n") == 1
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


# CLI fuzz: argv drawn from fixed pools over the four subcommands. Each number
# is a usable value (three draws in four) or one of HOSTILE: zero, an
# underflowing and an overflowing magnitude, nan, inf and a negative number.
# Windows include tiny and huge boxes and balls; --reps stays <= 5 and t at 30,
# so a usable run takes milliseconds, and the edge and point budgets stop a
# hostile size before any sample is drawn.
HOSTILE = ("0", "1e-300", "1e30", "nan", "inf", "-1")
BAD_PATHS = ("", ".", "missing/x")  # no file, a directory, in no directory
FUZZ_WINDOWS = ("box:1x1", "box:0.5", "box:1x0.8x0.6", "ball:1@d=2", "ball:0.7@d=3",
                "box:1e-30x1e-30", "box:1e30x1e30", "ball:1e-30@d=2", "ball:1e30@d=3")


def _number(*usable):
    pool = st.sampled_from(usable)
    return st.one_of(pool, pool, pool, st.sampled_from(HOSTILE))


def _numbers(*usable):
    return st.lists(_number(*usable), min_size=1, max_size=2).map(",".join)


def _flag(name, values):
    """`--flag=value` or `--flag value`: a value such as -1 reads the same either way."""
    return st.one_of(values.map(lambda v: [f"{name}={v}"]), values.map(lambda v: [name, v]))


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["simulate", "predict", "verify", "covariogram"]))
    argv = [command, "--window=" + draw(st.sampled_from(FUZZ_WINDOWS))]
    if command == "covariogram":
        argv += draw(_flag("--direction", _numbers("1", "0.5")))
        argv.append("--steps=" + draw(st.sampled_from(["3", "1", "0", "-1"])))
        return argv + draw(st.one_of(st.just([]), _flag("--rmax", _number("0.5", "2"))))
    argv += draw(st.one_of(_flag("--t", _number("30")), _flag("--n", _number("20")),
                           _flag("--t-grid", _numbers("10", "30"))))
    schedule = st.tuples(_number("1", "0.5"), _number("0.5", "1", "0.3")).map(",".join)
    argv += draw(st.one_of(_flag("--delta", _number("0.1", "0.02")),
                           _flag("--schedule", schedule)))
    argv += draw(_flag("--alpha", _numbers("1", "0", "2", "-0.5", "0.5")))
    if command != "predict":
        argv += draw(_flag("--reps", _number("2", "3", "5")))
    if command == "verify":
        argv += draw(_flag("--kind", st.sampled_from(experiments.VERIFICATION_KINDS)))
    return argv + draw(st.one_of(st.just([]), _flag("--seed", _number("7"))))


@st.composite
def fuzz_argv_and_paths(draw):
    """fuzz_argv, at times with an --out (and for simulate an --edges-out) from BAD_PATHS."""
    argv = draw(fuzz_argv())
    flags = ["--out", "--edges-out"] if argv[0] == "simulate" else ["--out"]
    for flag in flags:
        argv += draw(st.one_of(st.just([]), st.just([]), _flag(flag, st.sampled_from(BAD_PATHS))))
    return argv


def _reject_constant(token):
    raise ValueError(f"bare {token} in the JSON output")


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_argv_and_paths())
# crashes that fuzzing found: log(t V) of an underflowed point count, 0/0 in
# a ball's covariance with delta negligible against R, numpy overflow in the
# length powers and in a ball's covariance, inf * 0 in the order statistics
@example(argv=["verify", "--window=box:1e-30x1e-30", "--t=1e-300", "--delta=0.1",
               "--alpha=1", "--reps=2", "--kind=LDI"])
@example(argv=["predict", "--window=ball:1e-30@d=2", "--t=30", "--delta=1e-300", "--alpha=1"])
@example(argv=["simulate", "--window=box:1e30x1e30", "--n=20", "--delta=1e30", "--alpha=1e30",
               "--reps=2"])
@example(argv=["predict", "--window=ball:1e30@d=3", "--t=30", "--delta=1e30", "--alpha=1"])
@example(argv=["verify", "--window=box:0.5", "--t=1e-300", "--delta=0.1", "--alpha=1",
               "--reps=2", "--kind=OrderStatistics"])
# --out '' names no file, so LDI may not fall back to ./report.ldi_alpha_1.0.csv
@example(argv=["verify", "--window=box:1x1", "--t=30", "--delta=0.1", "--alpha=1", "--reps=2",
               "--kind=LDI", "--out="])
def test_property_cli_fuzz_exits_cleanly(argv, tmp_path, monkeypatch):
    # no exception escapes main, the exit code is 0, 1 or 2, and stdout is
    # empty on exit 2, else valid JSON (predict, verify) or a CSV of floats
    # (simulate, covariogram) with no bare NaN; a path from BAD_PATHS exits 2
    # and writes nothing
    work = tempfile.mkdtemp(dir=tmp_path)  # LDI writes its tables next to the report
    monkeypatch.chdir(work)
    monkeypatch.delenv("GILBERT_SEED", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc in (0, 1, 2)
    text = out.getvalue()
    if any(arg.split("=")[0] in ("--out", "--edges-out") for arg in argv):
        assert rc == 2 and os.listdir(work) == []
    if rc == 2:
        assert text == ""
    elif argv[0] in ("predict", "verify"):
        json.loads(text, parse_constant=_reject_constant)
    else:
        header, *rows = list(csv.reader(io.StringIO(text)))
        assert rows and all(len(row) == len(header) for row in rows)
        assert not any(math.isnan(float(field)) for row in rows for field in row)


def _simulate_rows(window, intensity, delta, alphas):
    """simulate's CSV rows at seed 3, 2 replications, each field as a number."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["simulate", "--window", window, *intensity, "--delta", repr(delta),
                         "--alpha", ",".join(map(repr, alphas)), "--reps", "2",
                         "--seed", "3"]) == 0
    return [list(map(float, row)) for row in list(csv.reader(io.StringIO(out.getvalue())))[1:]]


@settings(max_examples=200)
@given(ball=st.booleans(), dim=st.integers(1, 3), size=st.floats(0.5, 2.0),
       points=st.floats(20.0, 150.0), spacing=st.floats(0.05, 0.6),
       power=st.sampled_from((-2, -1, 1, 2)), binomial=st.booleans())
def test_property_simulate_is_scale_equivariant(ball, dim, size, points, spacing, power,
                                                binomial):
    # (W, t, delta) and (sW, t s^-d, s delta) at one seed draw the same points
    # scaled by s, so the same edges, each length scaled by s; with s a power of
    # 4 and 2 alpha an integer, s^alpha is a power of two and every value is
    # exact: L and S1..S5 scale by s^alpha, n_points and max_degree are equal
    s = 4.0 ** power
    alphas = (0.0, 0.5, 1.0, 2.0, 3.0)
    sides = [size * (1.0 + 0.25 * k) for k in range(dim)]
    if ball:
        base, scaled = (f"ball:{size!r}@d={dim}", f"ball:{size * s!r}@d={dim}")
        volume = geometry.ConvexWindow.ball(size, dim).volume
    else:
        base, scaled = ("box:" + "x".join(repr(v) for v in sides),
                        "box:" + "x".join(repr(v * s) for v in sides))
        volume = geometry.ConvexWindow.box(sides).volume
    t = points / volume
    intensities = (["--n", str(int(points))],) * 2 if binomial else \
        (["--t", repr(t)], ["--t", repr(t * s ** -dim)])
    delta = spacing * size
    rows = _simulate_rows(base, intensities[0], delta, alphas)
    rows_scaled = _simulate_rows(scaled, intensities[1], delta * s, alphas)
    assert len(rows) == len(rows_scaled) == 2 * len(alphas)
    for row, row_scaled in zip(rows, rows_scaled):
        rep, alpha, value, n_points, degree, *smallest = row
        factor = s ** alpha
        assert row_scaled == [rep, alpha, value * factor, n_points, degree,
                              *(v * factor for v in smallest)]


# Small verify runs that meet their kind's _SUITES row, from the fuzz pools'
# usable values. The windows are 2-d, where the pool's gamma = 1 gives
# CompoundPoisson a finite c and gamma = 0.5 gives LDI's slope test a
# thermodynamic schedule.
@st.composite
def usable_verify_argv(draw, kinds=experiments.VERIFICATION_KINDS):
    kind = draw(st.sampled_from(kinds))
    suite = experiments._SUITES[kind]
    argv = ["verify", "--kind", kind,
            "--window", draw(st.sampled_from(("box:1x1", "ball:1@d=2"))),
            "--reps", draw(st.sampled_from(("2", "3", "5"))),
            "--seed", draw(st.sampled_from(("0", "7")))]
    pool = [a for a in ("1", "0", "2", "-0.5", "0.5")
            if {"> -d/2": True, "> 0": float(a) > 0, ">= 0": float(a) >= 0}[suite.alpha]]
    slope_grid = suite.intensities == "one t or n, and a thermodynamic t_grid" \
        and draw(st.booleans())
    one = suite.alphas == "one alpha" or slope_grid
    alphas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=1 if one else 2,
                           unique=True))
    gamma = "0.5" if slope_grid else "1" if suite.c == "(0, inf)" else \
        draw(st.sampled_from(("0.5", "1", "0.3")))
    spacing = ["--schedule", draw(st.sampled_from(("1", "0.5"))) + "," + gamma]
    if not (suite.schedule or slope_grid or suite.c == "(0, inf)"):
        spacing = draw(st.sampled_from((spacing, ["--delta", "0.1"], ["--delta", "0.02"])))
    single = ["--t", "30"] if suite.poisson or slope_grid else \
        draw(st.sampled_from((["--t", "30"], ["--n", "20"])))
    grid = draw(st.sampled_from((["--t", "30"], ["--t-grid", "10,30"])))
    intensity = {"one t or n": single, "one t or a t_grid": grid,
                 "a t_grid of two or more": ["--t-grid", "10,30"],
                 "one t or n, and a thermodynamic t_grid":
                     single + ["--t-grid", "10,30"] * slope_grid}[suite.intensities]
    return argv + spacing + intensity + ["--alpha", ",".join(alphas)]


def _run_files(argv, directory, n_jobs) -> dict:
    """Exit code and every file a run writes: the report, LDI's CSV tables and
    simulate's edge dump."""
    directory.mkdir()
    cfg = write_cfg(directory, f"n_jobs = {n_jobs}\n", "jobs.cfg")
    edges = ["--edges-out", str(directory / "edges.csv")] if argv[0] == "simulate" else []
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv + edges + ["--config", cfg, "--out", str(directory / "report.json")])
    written = {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "jobs.cfg"}
    return {"rc": rc, **written}


@settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=usable_verify_argv())
@example(argv=["verify", "--kind", "Moments", "--window", "box:1x1", "--reps", "3", "--seed", "7",
               "--delta", "0.1", "--t", "30", "--alpha", "0,1"])
@example(argv=["verify", "--kind", "CLT", "--window", "box:1x1", "--reps", "5", "--seed", "0",
               "--schedule", "1,0.5", "--t-grid", "10,30", "--alpha", "1"])
@example(argv=["verify", "--kind", "MultivariateCov", "--window", "ball:1@d=2", "--reps", "5",
               "--seed", "7", "--schedule", "1,0.3", "--t", "30", "--alpha", "0,1"])
# a list whose first exponent is negative is --alpha's value after a space too
@example(argv=["verify", "--kind", "MultivariateCov", "--window", "box:1x1", "--reps", "5",
               "--seed", "7", "--schedule", "1,0.3", "--t", "30", "--alpha", "-0.5,1"])
@example(argv=["verify", "--kind", "CompoundPoisson", "--window", "box:1x1", "--reps", "5",
               "--seed", "7", "--schedule", "1,1", "--t-grid", "10,30", "--alpha", "2"])
@example(argv=["verify", "--kind", "OrderStatistics", "--window", "box:1x1", "--reps", "5",
               "--seed", "0", "--schedule", "1,0.5", "--t", "30", "--alpha", "2"])
@example(argv=["verify", "--kind", "LDI", "--window", "box:1x1", "--reps", "5", "--seed", "7",
               "--schedule", "1,0.5", "--t", "30", "--t-grid", "10,30", "--alpha", "0"])
@example(argv=["verify", "--kind", "LDI", "--window", "box:1x1", "--reps", "3", "--seed", "0",
               "--n", "20", "--delta", "0.1", "--alpha", "0,1"])
@example(argv=["verify", "--kind", "PPConditions", "--window", "box:1x1", "--reps", "2",
               "--seed", "0", "--schedule", "1,0.5", "--t-grid", "10,30", "--alpha", "1"])
# 300 replications of about 60 points (Moments) and of 50 points (LDI's test
# stream) are built in chunks of 204 and 245, on one thread or two
@example(argv=["verify", "--kind", "Moments", "--window", "box:1x1", "--reps", "300",
               "--seed", "7", "--delta", "0.05", "--t", "60", "--alpha", "0,1"])
@example(argv=["verify", "--kind", "LDI", "--window", "box:1x1", "--reps", "300", "--seed", "7",
               "--n", "50", "--delta", "0.05", "--alpha", "0,1"])
def test_property_every_kind_writes_the_same_bytes_serial_rerun_and_threaded(argv):
    # a config meeting its kind's rules runs (exit 0 or 1), and a rerun and a
    # run on 2 threads write byte-identical reports and LDI tables
    with tempfile.TemporaryDirectory() as tmp:
        runs = [_run_files(argv, Path(tmp) / name, n_jobs)
                for name, n_jobs in (("serial", 1), ("rerun", 1), ("threaded", 2))]
    assert runs[0]["rc"] in (0, 1) and "report.json" in runs[0]
    assert runs[1] == runs[0] and runs[2] == runs[0]


@st.composite
def path_runs(draw):
    """A small run of a verify kind or of simulate (at times of 0 or 1 point per
    replication) and a chunk size from 2 up to its replications."""
    kind = draw(st.sampled_from(experiments.VERIFICATION_KINDS + ("simulate",)))
    if kind == "simulate":
        argv = ["simulate", "--window",
                draw(st.sampled_from(("box:1x1", "ball:1@d=2", "box:2", "box:1x0.8x0.6"))),
                "--reps", draw(st.sampled_from(("2", "3", "5", "7"))),
                "--seed", draw(st.sampled_from(("0", "7"))),
                "--delta", draw(st.sampled_from(("0.1", "0.3"))),
                *draw(st.sampled_from((["--t", "30"], ["--t", "0.01"], ["--n", "1"],
                                       ["--n", "20"]))), "--alpha", "0,1"]
    else:
        argv = draw(usable_verify_argv((kind,)))
    return argv, draw(st.integers(2, int(argv[argv.index("--reps") + 1])))


def _grid_alone(sample, delta):
    return gg.build_edges_batch(sample.points, [sample.n_points], delta).edge_set(0)


def _verify(kind, *args):
    return ["verify", "--kind", kind, "--window", "box:1x1", "--seed", "7", *args]


@settings(max_examples=8)
@given(run=path_runs())
# every verify kind
@example(run=(_verify("Moments", "--reps", "5", "--delta", "0.1", "--t", "30",
                      "--alpha", "0,1"), 2))
@example(run=(_verify("CLT", "--reps", "3", "--schedule", "1,0.5", "--t-grid", "10,30",
                      "--alpha", "1"), 2))
@example(run=(_verify("MultivariateCov", "--reps", "3", "--schedule", "1,0.3", "--t", "30",
                      "--alpha", "0,1"), 2))
@example(run=(_verify("CompoundPoisson", "--reps", "3", "--schedule", "1,1", "--t-grid", "10,30",
                      "--alpha", "2"), 2))
@example(run=(_verify("OrderStatistics", "--reps", "3", "--schedule", "1,0.5", "--t", "30",
                      "--alpha", "2"), 2))
@example(run=(_verify("LDI", "--reps", "5", "--n", "20", "--delta", "0.1", "--alpha", "0,1"), 3))
@example(run=(_verify("PPConditions", "--reps", "3", "--schedule", "1,0.5", "--t-grid", "10,30",
                      "--alpha", "1"), 2))
# chunks of 2 over 5 replications (a last chunk of one), and runs at 0 and 1 point
@example(run=(["simulate", "--window", "box:1x1", "--reps", "5", "--seed", "7", "--delta", "0.1",
               "--t", "30", "--alpha", "0,1"], 2))
@example(run=(["simulate", "--window", "box:1x1", "--reps", "3", "--seed", "0", "--delta", "0.3",
               "--t", "0.01", "--alpha", "0,1"], 2))
@example(run=(["simulate", "--window", "box:1x1", "--reps", "3", "--seed", "0", "--delta", "0.3",
               "--n", "1", "--alpha", "0,1"], 2))
# above the 4,096-point run floor, where the program's own choice is the grid
@example(run=(["simulate", "--window", "box:1x1", "--reps", "150", "--seed", "7", "--delta", "0.1",
               "--t", "30", "--alpha", "0,1"], 40))
def test_property_bytes_do_not_depend_on_the_neighbour_search_path(run):
    # every file a run writes is the same whether each replication's edges come
    # from its own kd-tree or its own grid, from chunks of any size (some not
    # dividing the run) or of the program's choice, serially or on 2 threads
    argv, size = run
    paths = {"own": {"_chunk_size": experiments._chunk_size},
             "kd_tree": {"_chunk_size": lambda *args: 0},
             "grid": {"_chunk_size": lambda *args: 0, "build_edges": _grid_alone},
             "chunks": {"_chunk_size": lambda *args: size}}
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, patches in paths.items():
            with mock.patch.multiple(experiments, **patches):
                for n_jobs in (1, 2):
                    runs[name, n_jobs] = _run_files(argv, Path(tmp) / f"{name}{n_jobs}", n_jobs)
    first = runs["own", 1]
    assert first["rc"] in (0, 1) and "report.json" in first
    assert all(files == first for files in runs.values())


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_floating_point_errors_exit_2_serial_and_threaded(n_jobs, tmp_path, capsys):
    # numpy raises instead of warning inside main, and the replications that
    # run on worker threads keep that setting
    cfg = write_cfg(tmp_path, f"n_jobs = {n_jobs}\n")
    argv = ["simulate", "--window", "box:1e30x1e30", "--n", "20", "--delta", "1e30",
            "--alpha", "1e30", "--reps", "4", "--config", cfg]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: FloatingPointError at these inputs: "
                            "overflow encountered in power\n")
