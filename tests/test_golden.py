"""Golden CLI outputs: every file that `verify` (all seven kinds), `simulate`
and `predict` write for a fixed set of seeded calls, compared byte for byte
with the files under tests/golden/.

predict_schedule.json predates predict's d3_bound entry, so its test removes
that one entry before comparing.

Regenerate (only when an output is meant to change) from the repository root:
    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from gilbertsim import ConvexWindow, RegimeSchedule, cli, d3_bound

GOLDEN = Path(__file__).parent / "golden"

# Cases whose intensity comes only from a t-grid get the model from a config
# file holding `model = poisson`.
MODEL_CONFIG = "model = poisson\n"

VERIFY = ["verify", "--reps", "50", "--alpha"]
CASES = {
    "verify_moments_box": (VERIFY + ["0,1", "--kind", "Moments", "--window", "box:1x1",
                                     "--t", "100", "--delta", "0.05", "--seed", "1"], False),
    "verify_moments_ball": (VERIFY + ["0,1", "--kind", "Moments", "--window", "ball:1@d=2",
                                      "--t", "100", "--delta", "0.05", "--seed", "2"], False),
    "verify_clt": (VERIFY + ["1", "--kind", "CLT", "--window", "box:0.2x0.2",
                             "--t-grid", "200,800", "--schedule", "1,0.5", "--seed", "3"], True),
    "verify_mv_thermo": (VERIFY + ["0,1", "--kind", "MultivariateCov", "--window", "box:1x1",
                                   "--t", "800", "--schedule", "1,0.5", "--seed", "4"], False),
    "verify_mv_dense": (VERIFY + ["0,1", "--kind", "MultivariateCov", "--window", "box:1x1",
                                  "--t", "2000", "--schedule", "1,0.3", "--seed", "5"], False),
    "verify_cp": (VERIFY + ["2", "--kind", "CompoundPoisson", "--window", "box:1x1",
                            "--t-grid", "50,200", "--schedule", "1,1", "--seed", "6"], True),
    "verify_order": (VERIFY + ["2", "--kind", "OrderStatistics", "--window", "box:1x1",
                               "--t", "500", "--schedule", "1,0.8", "--seed", "7"], False),
    "verify_ldi_poisson": (VERIFY + ["0,1", "--kind", "LDI", "--window", "box:1x1",
                                     "--t", "100", "--delta", "0.05", "--seed", "8"], False),
    "verify_ldi_binomial": (VERIFY + ["0", "--kind", "LDI", "--window", "box:1x1",
                                      "--n", "100", "--delta", "0.05", "--seed", "9"], False),
    "verify_ldi_thermo": (VERIFY + ["0", "--kind", "LDI", "--window", "box:1x1", "--t", "200",
                                    "--t-grid", "200,400,800", "--schedule", "1,0.5",
                                    "--seed", "10"], False),
    "verify_pp": (["verify", "--reps", "2", "--alpha", "2", "--kind", "PPConditions",
                   "--window", "box:1x1", "--t-grid", "100,1000,10000",
                   "--schedule", "1,0.8", "--seed", "11"], True),
    "simulate": (["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.07",
                  "--alpha", "0,1", "--reps", "4", "--seed", "5"], False),
    "predict_box2d": (["predict", "--window", "box:1x1", "--t", "100", "--delta", "0.05",
                       "--alpha", "0,1,-0.5"], False),
    "predict_box3d": (["predict", "--window", "box:1x0.8x0.6", "--t", "500",
                       "--delta", "0.1", "--alpha", "0,1"], False),
    "predict_ball2d": (["predict", "--window", "ball:1@d=2", "--t", "100",
                        "--delta", "0.05", "--alpha", "0,1"], False),
    "predict_schedule": (["predict", "--window", "box:1x1", "--t", "400",
                          "--schedule", "1,0.5", "--alpha", "0,1"], False),
}


def run_case(name: str, directory: Path) -> dict[str, bytes]:
    """Run one case writing into directory; returns {file name: bytes}."""
    argv, needs_model = CASES[name]
    ext = "csv" if argv[0] == "simulate" else "json"
    argv = argv + ["--out", str(directory / f"{name}.{ext}")]
    if argv[0] == "simulate":
        argv += ["--edges-out", str(directory / f"{name}.edges.csv")]
    if needs_model:
        config = directory / "model.cfg"
        config.write_text(MODEL_CONFIG)
        argv += ["--config", str(config)]
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc in (0, 1), f"{name}: exit {rc}"
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.name.startswith(name + ".")}


def golden_files(name: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(GOLDEN.iterdir())
            if p.name.startswith(name + ".")}


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(name, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)


@pytest.mark.parametrize("name", sorted(set(CASES) - {"predict_schedule"}))
def test_golden_output(name, tmp_path):
    got = run_case(name, tmp_path)
    want = golden_files(name)
    assert want, f"no golden files for {name}"
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], fname


def test_predict_schedule_adds_only_d3_bound(tmp_path):
    # predict with a schedule and >= 2 alphas prints one d3_bound entry more
    # than its golden, which predates it
    payload = json.loads(run_case("predict_schedule", tmp_path)["predict_schedule.json"])
    entries = [p for p in payload if p["name"] == "d3_bound"]
    assert len(entries) == 1
    payload.remove(entries[0])
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert text.encode() == golden_files("predict_schedule")["predict_schedule.json"]
    schedule = RegimeSchedule(1.0, 0.5)
    assert entries[0]["value"] == d3_bound(ConvexWindow.box((1.0, 1.0)), 400.0,
                                           schedule.delta_at(400.0), (0.0, 1.0), schedule)
