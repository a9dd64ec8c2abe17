"""Output checks of the benchmark. Each returns a list of problems (empty = ok).

They run outside the timed phase. A call whose output fails a check counts as
failed; statistical verdicts inside a verify report are not output errors and
are only counted.
"""

from __future__ import annotations

import json
import math

import numpy as np

SIM_HEADER = "rep,alpha,L_value,n_points,max_degree,S1,S2,S3,S4,S5"
# Known defect of the program: under numpy >= 2 `simulate` writes L_value as
# `np.float64(<value>)`. The checks read the value inside; the benchmark
# reports the format defect on every run without counting it as a failure.
NUMPY_SCALAR_REPR = "np.float64("

# `gilbertsim predict --window box:1x1x1 --t 1000.0 --delta 0.05 --alpha 0,1`
# at the commit that defined the benchmark; must match to relative 1e-9.
PREDICT_REFERENCE_ARGV = ["predict", "--window", "box:1x1x1", "--t", "1000.0",
                          "--delta", "0.05", "--alpha", "0,1"]
PREDICT_REFERENCE = {
    "expectation[alpha=0.0]": 247.32187015211372,
    "expectation_bounds[alpha=0.0]": [247.07317223544732, 261.7993877991495],
    "variance_asymptotic[alpha=0.0]": 535.9550656071874,
    "expectation[alpha=1.0]": 9.23878928301525,
    "expectation_bounds[alpha=1.0]": [9.22842841992002, 9.817477042468106],
    "variance_asymptotic[alpha=1.0]": 0.7782305036162775,
    "covariance[0.0,0.0]": 496.2600007959745,
    "covariance[0.0,1.0]": 18.54493252826091,
    "covariance[1.0,1.0]": 0.7165165510855717,
}
REFERENCE_REL = 1e-9


def verify_report(rc: int, text: str) -> tuple[int, list[str]]:
    """A Moments report: (statistical verdicts failed, problems)."""
    try:
        metrics = json.loads(text)["metrics"]
    except (ValueError, KeyError, TypeError):
        return 0, ["verify output is not a report with metrics"]
    verdicts = [m.get("verdict") for m in metrics] if isinstance(metrics, list) else []
    if not verdicts or any(v not in ("pass", "fail") for v in verdicts):
        return 0, ["verify report has missing or malformed verdicts"]
    failed = verdicts.count("fail")
    if rc != (1 if failed else 0):
        return failed, [f"verify exit code {rc} disagrees with {failed} failed verdicts"]
    return failed, []


def identical(first: str, second: str) -> list[str]:
    """A repeated call must give byte-identical output."""
    return [] if first == second else ["repeated call gave different bytes"]


def simulate_csv(text: str, reps: int, alphas: tuple[float, ...]) -> tuple[list[dict], list[str]]:
    """Parse the per-replication CSV; check its shape and value ranges."""
    lines = text.splitlines()
    if not lines or lines[0] != SIM_HEADER:
        return [], ["simulate CSV header is wrong"]
    rows = []
    try:
        for line in lines[1:]:
            rep, alpha, value, n_points, max_deg = line.split(",")[:5]
            if value.startswith(NUMPY_SCALAR_REPR) and value.endswith(")"):
                value = value[len(NUMPY_SCALAR_REPR):-1]
            rows.append({"rep": int(rep), "alpha": float(alpha), "L_value": float(value),
                         "n_points": int(n_points), "max_degree": int(max_deg)})
    except ValueError:
        return [], ["simulate CSV row does not parse"]
    expected = [(r, a) for r in range(reps) for a in alphas]
    if [(row["rep"], row["alpha"]) for row in rows] != expected:
        return rows, ["simulate CSV rows are not one per (replication, alpha)"]
    problems = []
    for row in rows:
        if not (math.isfinite(row["L_value"]) and row["L_value"] >= 0
                and row["n_points"] > 0 and row["max_degree"] >= 0):
            problems.append(f"simulate CSV row out of range: {row}")
        if row["alpha"] == 0.0 and row["L_value"] != int(row["L_value"]):
            problems.append("edge count L^(0) is not an integer")
    return rows, problems


def replication_matches_oracle(rows: list[dict], fast, oracle) -> list[str]:
    """Replication 0 regenerated: the fast edge set equals the brute-force one
    bitwise, and the CSV's L_values equal the oracle's edge count and summed
    lengths (the sum to relative 1e-12, so a reordered summation passes)."""
    problems = []
    if not (np.array_equal(fast.i, oracle.i) and np.array_equal(fast.j, oracle.j)
            and fast.lengths.tobytes() == oracle.lengths.tobytes()):
        problems.append("build_edges differs from build_edges_bruteforce")
    rep0 = {row["alpha"]: row for row in rows if row["rep"] == 0}
    if 0.0 not in rep0 or 1.0 not in rep0:
        return problems + ["replication 0 lacks alpha 0 or 1"]
    if rep0[0.0]["n_points"] != oracle.sample.n_points:
        problems.append("replication 0 point count differs from the regenerated sample")
    if rep0[0.0]["L_value"] != oracle.n_edges:
        problems.append("L^(0) differs from the oracle's edge count")
    if not math.isclose(rep0[1.0]["L_value"], float(np.sum(oracle.lengths)), rel_tol=1e-12):
        problems.append("L^(1) differs from the oracle's summed lengths")
    return problems


def predict_values(text: str) -> tuple[dict, list[str]]:
    try:
        return {p["name"]: p["value"] for p in json.loads(text)}, []
    except (ValueError, KeyError, TypeError):
        return {}, ["predict output is not a list of named values"]


def predict_invariants(values: dict, alphas: tuple[float, ...]) -> list[str]:
    """Expectations inside their bounds; covariance matrix PSD."""
    problems = []
    try:
        for a in alphas:
            exp = values[f"expectation[alpha={a!r}]"]
            lo, hi = values[f"expectation_bounds[alpha={a!r}]"]
            if not lo <= exp <= hi:
                problems.append(f"expectation[alpha={a!r}] = {exp!r} outside [{lo!r}, {hi!r}]")
        m = len(alphas)
        cov = np.empty((m, m))
        for i in range(m):
            for j in range(i, m):
                cov[i, j] = cov[j, i] = values[f"covariance[{alphas[i]!r},{alphas[j]!r}]"]
    except (KeyError, TypeError, ValueError):
        return problems + ["predict output lacks an expectation, bound or covariance"]
    if not np.all(np.isfinite(cov)):
        return problems + ["covariance has non-finite entries"]
    if np.linalg.eigvalsh(cov)[0] < -1e-9 * np.max(np.abs(np.diag(cov))):
        problems.append("covariance matrix is not positive semi-definite")
    return problems


def covariance_symmetric(cov_ab: float, cov_ba: float) -> list[str]:
    """Cov(L^a, L^b) from the CLI against Cov(L^b, L^a) from the library."""
    if math.isclose(cov_ab, cov_ba, rel_tol=REFERENCE_REL):
        return []
    return [f"covariance not symmetric: {cov_ab!r} vs {cov_ba!r}"]


def predict_reference(values: dict) -> list[str]:
    """The fixed unit-cube input against the pinned reference values."""
    problems = []
    for name, ref in PREDICT_REFERENCE.items():
        got = values.get(name)
        ok = got is not None and np.shape(got) == np.shape(ref) and all(
            math.isclose(g, r, rel_tol=REFERENCE_REL)
            for g, r in zip(np.atleast_1d(got), np.atleast_1d(ref)))
        if not ok:
            problems.append(f"{name} = {got!r}, reference {ref!r}")
    return problems
