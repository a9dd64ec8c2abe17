"""Each output check flags a deliberately corrupted output; tracing hooks behave.

Run from the repository root: python3 -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from gilbertsim import cli  # noqa: E402
from gilbertsim.gilbert_graph import build_edges, build_edges_bruteforce  # noqa: E402
from gilbertsim.point_process import replication_rng, sample_poisson  # noqa: E402

ALPHAS = (0.0, 1.0)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def verify_output():
    return run_cli(["verify", "--kind", "Moments", "--window", "box:1x1", "--t", "100",
                    "--delta", "0.05", "--alpha", "0,1", "--reps", "50", "--seed", "3"])


@pytest.fixture(scope="module")
def simulate_case():
    argv = ["simulate", "--window", "box:1x1", "--t", "300", "--delta", "0.08",
            "--alpha", "0,1", "--reps", "2", "--seed", "9"]
    rc, out = run_cli(argv)
    sample = sample_poisson(cli.parse_window("box:1x1"), 300.0, replication_rng(9, 0))
    return out, build_edges(sample, 0.08), build_edges_bruteforce(sample, 0.08)


@pytest.fixture(scope="module")
def predict_output():
    return run_cli(checks.PREDICT_REFERENCE_ARGV)[1]


def test_verify_report_checks(verify_output):
    rc, out = verify_output
    n_fail, problems = checks.verify_report(rc, out)
    assert problems == [] and n_fail == out.count('"verdict": "fail"')
    assert checks.verify_report(rc, out[:-20])[1]  # truncated JSON
    assert checks.verify_report(1 - rc, out)[1]  # exit code disagrees with verdicts
    payload = json.loads(out)
    payload["metrics"][0]["verdict"] = "maybe"
    assert checks.verify_report(rc, json.dumps(payload))[1]


def test_repeat_must_be_byte_identical(verify_output):
    out = verify_output[1]
    assert checks.identical(out, out) == []
    assert checks.identical(out, out.replace("0", "1", 1))


def test_simulate_csv_checks(simulate_case):
    out = simulate_case[0]
    rows, problems = checks.simulate_csv(out, 2, ALPHAS)
    assert problems == [] and len(rows) == 4
    lines = out.splitlines()
    assert checks.simulate_csv("\n".join(lines[:-1]), 2, ALPHAS)[1]  # row missing
    assert checks.simulate_csv(out.replace("L_value", "L"), 2, ALPHAS)[1]
    bad = lines[1].split(",")
    bad[2] = "-1.0"
    assert checks.simulate_csv("\n".join([lines[0], ",".join(bad)] + lines[2:]), 2, ALPHAS)[1]


def test_replication_oracle_checks(simulate_case):
    out, fast, oracle = simulate_case
    rows, _ = checks.simulate_csv(out, 2, ALPHAS)
    assert checks.replication_matches_oracle(rows, fast, oracle) == []
    lengths = fast.lengths.copy()
    lengths[0] = np.nextafter(lengths[0], 1.0)
    corrupt = dataclasses.replace(fast, lengths=lengths)
    assert checks.replication_matches_oracle(rows, corrupt, oracle)
    off_by_one = [dict(r, L_value=r["L_value"] + 1) if r["alpha"] == 0.0 else r for r in rows]
    assert checks.replication_matches_oracle(off_by_one, fast, oracle)
    scaled = [dict(r, L_value=r["L_value"] * (1 + 1e-9)) if r["alpha"] == 1.0 else r
              for r in rows]
    assert checks.replication_matches_oracle(scaled, fast, oracle)


def test_predict_checks(predict_output):
    values, problems = checks.predict_values(predict_output)
    assert problems == []
    assert checks.predict_invariants(values, ALPHAS) == []
    assert checks.predict_reference(values) == []
    lo, hi = values["expectation_bounds[alpha=1.0]"]
    assert checks.predict_invariants(
        dict(values, **{"expectation[alpha=1.0]": hi * 1.001}), ALPHAS)
    cov00, cov11 = values["covariance[0.0,0.0]"], values["covariance[1.0,1.0]"]
    not_psd = dict(values, **{"covariance[0.0,1.0]": 1.01 * (cov00 * cov11) ** 0.5})
    assert checks.predict_invariants(not_psd, ALPHAS)
    assert checks.predict_invariants({}, ALPHAS)
    assert checks.predict_reference(
        dict(values, **{"covariance[1.0,1.0]": cov11 * (1 + 1e-8)}))
    assert checks.predict_reference(
        dict(values, **{"expectation_bounds[alpha=0.0]": [lo]}))
    cov01 = values["covariance[0.0,1.0]"]
    assert checks.covariance_symmetric(cov01, cov01 * (1 + 1e-12)) == []
    assert checks.covariance_symmetric(cov01, cov01 * (1 + 1e-8))


def test_tracing_hooks_every_import_name_and_restores():
    from gilbertsim import experiments, gilbert_graph
    original = gilbert_graph.build_edges
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as hooks:
        assert hooks.unmeasured == []
        assert experiments.build_edges is gilbert_graph.build_edges is cli.build_edges
        assert gilbert_graph.build_edges is not original
        tracer.call_id = 0
        wall_start = tracing.perf_counter()
        rc, _ = run_cli(["simulate", "--window", "box:1x1", "--t", "200", "--delta", "0.05",
                         "--alpha", "0,1", "--reps", "3", "--seed", "1"])
        wall = tracing.perf_counter() - wall_start
    assert rc == 0
    assert gilbert_graph.build_edges is original and experiments.build_edges is original
    selfs = tracer.self_times()
    assert selfs["gilbert_graph.build_edges"][1] == 3
    assert selfs["cli.main"][1] == 1
    assert tracer.counts["gilbert_graph.edges"] > 0
    root = next(s for s in tracer.spans if s.name == "cli.main")
    total = sum(v[0] for v in selfs.values())
    assert total == pytest.approx(root.end - root.start, rel=1e-9)
    assert 0.0 < total <= wall
    assert all(s.call_id == 0 for s in tracer.spans)


def test_missing_hook_target_is_unmeasured():
    hooks = {"gilbert_graph": ("build_edges", "no_such_function"), "no_such_module": ("f",)}
    with tracing.installed(tracing.Tracer(), hooks) as installed:
        assert installed.unmeasured == ["gilbert_graph.no_such_function", "no_such_module.f"]


def test_timings_scale_with_host_speed():
    workload = run.wl.WORKLOADS["predict_box3d"]
    results = [(0, "", 0.2), (0, "", 0.4), (0, "", 0.3)]
    setups = [(1.0, 0.05), (1.2, 0.05), (1.4, 0.05)]
    raw = run.timings(workload, 6, results, setups, [1.0] * 3, [1.0] * 3)
    assert raw["wall_s"][0] == pytest.approx(1.8)  # projected from 3 calls to 6
    assert raw["call_ms_p50"][0] == pytest.approx(300.0)
    assert raw["setup_s"][0] == pytest.approx(1.2)
    assert raw["items_per_s"][0] == pytest.approx(3 / 0.9)
    half = run.timings(workload, 6, results, setups, [0.5] * 3, [0.5] * 3)
    for name, (value, _) in raw.items():
        expected = 2 * value if name == "items_per_s" else value / 2
        assert half[name][0] == pytest.approx(expected)
