"""Golden CLI outputs: every file that `verify` (all seven kinds), `simulate`,
`predict` and `covariogram` write for a fixed set of seeded calls, compared
byte for byte with the files under tests/golden/.

Regenerate (only when an output is meant to change) from the repository root:
    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"
"""

import contextlib
import io
import itertools
import tempfile
from pathlib import Path

import pytest

from gilbertsim import cli

GOLDEN = Path(__file__).parent / "golden"

VERIFY = ["verify", "--reps", "50", "--alpha"]
CASES = {
    "verify_moments_box": VERIFY + ["0,1", "--kind", "Moments", "--window", "box:1x1",
                                    "--t", "100", "--delta", "0.05", "--seed", "1"],
    "verify_moments_ball": VERIFY + ["0,1", "--kind", "Moments", "--window", "ball:1@d=2",
                                     "--t", "100", "--delta", "0.05", "--seed", "2"],
    "verify_clt": VERIFY + ["1", "--kind", "CLT", "--window", "box:0.2x0.2",
                            "--t-grid", "200,800", "--schedule", "1,0.5", "--seed", "3"],
    "verify_mv_thermo": VERIFY + ["0,1", "--kind", "MultivariateCov", "--window", "box:1x1",
                                  "--t", "800", "--schedule", "1,0.5", "--seed", "4"],
    "verify_mv_dense": VERIFY + ["0,1", "--kind", "MultivariateCov", "--window", "box:1x1",
                                 "--t", "2000", "--schedule", "1,0.3", "--seed", "5"],
    "verify_cp": VERIFY + ["2", "--kind", "CompoundPoisson", "--window", "box:1x1",
                           "--t-grid", "50,200", "--schedule", "1,1", "--seed", "6"],
    "verify_order": VERIFY + ["2", "--kind", "OrderStatistics", "--window", "box:1x1",
                              "--t", "500", "--schedule", "1,0.8", "--seed", "7"],
    "verify_ldi_poisson": VERIFY + ["0,1", "--kind", "LDI", "--window", "box:1x1",
                                    "--t", "100", "--delta", "0.05", "--seed", "8"],
    "verify_ldi_binomial": VERIFY + ["0", "--kind", "LDI", "--window", "box:1x1",
                                     "--n", "100", "--delta", "0.05", "--seed", "9"],
    "verify_ldi_thermo": VERIFY + ["0", "--kind", "LDI", "--window", "box:1x1", "--t", "200",
                                   "--t-grid", "200,400,800", "--schedule", "1,0.5",
                                   "--seed", "10"],
    "verify_pp": ["verify", "--reps", "2", "--alpha", "2", "--kind", "PPConditions",
                  "--window", "box:1x1", "--t-grid", "100,1000,10000",
                  "--schedule", "1,0.8", "--seed", "11"],
    "simulate": ["simulate", "--window", "box:1x1", "--t", "100", "--delta", "0.07",
                 "--alpha", "0,1", "--reps", "4", "--seed", "5"],
    "predict_box2d": ["predict", "--window", "box:1x1", "--t", "100", "--delta", "0.05",
                      "--alpha", "0,1,-0.5"],
    "predict_box3d": ["predict", "--window", "box:1x0.8x0.6", "--t", "500",
                      "--delta", "0.1", "--alpha", "0,1"],
    "predict_ball2d": ["predict", "--window", "ball:1@d=2", "--t", "100",
                       "--delta", "0.05", "--alpha", "0,1"],
    "predict_schedule": ["predict", "--window", "box:1x1", "--t", "400",
                         "--schedule", "1,0.5", "--alpha", "0,1"],
    "covariogram_ball4d": ["covariogram", "--window", "ball:1@d=4", "--direction", "1,0,0,0",
                           "--steps", "5"],
    "covariogram_box3d": ["covariogram", "--window", "box:1x0.8x0.6", "--direction", "1,1,1",
                          "--steps", "5"],
}


def run_case(name: str, directory: Path) -> dict[str, bytes]:
    """Run one case writing into directory; returns {file name: bytes}."""
    argv = CASES[name]
    ext = "json" if argv[0] in ("verify", "predict") else "csv"
    argv = argv + ["--out", str(directory / f"{name}.{ext}")]
    if argv[0] == "simulate":
        argv += ["--edges-out", str(directory / f"{name}.edges.csv")]
    with contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    assert rc in (0, 1), f"{name}: exit {rc}"
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.name.startswith(name + ".")}


def golden_files(name: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(GOLDEN.iterdir())
            if p.name.startswith(name + ".")}


def assert_same_bytes(got: bytes, want: bytes, fname: str) -> None:
    """Byte-for-byte equality; on a mismatch, name the first differing line."""
    got_lines = got.decode(errors="replace").splitlines()
    want_lines = want.decode(errors="replace").splitlines()
    for k, (g, w) in enumerate(itertools.zip_longest(got_lines, want_lines), 1):
        assert g == w, f"{fname} line {k}: got {g!r}, want {w!r}"
    assert got == want, fname


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(name, Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path):
    got = run_case(name, tmp_path)
    want = golden_files(name)
    assert want, f"no golden files for {name}"
    assert sorted(got) == sorted(want)
    for fname in want:
        assert_same_bytes(got[fname], want[fname], fname)
