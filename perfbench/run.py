"""Benchmark of the gilbertsim CLI, driven in-process through gilbertsim.cli.main.

    python3 perfbench/run.py --workload verify_sparse --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root; the package is imported from ``src/``. One run
is a closed loop with one client: set-up (``setup_s``, median of fresh-process
probes), warm-up calls, then a fixed job of ceil(seconds * calls_per_second)
CLI calls whose inputs come from --seed (stopped early past JOB_TIME_CAP *
seconds), then output checks outside the timed phase. Every timing is scaled
to one host speed with the reference kernel in speed.py. With --trace 0 the
last stdout line carries the end-to-end metrics; with --trace 1 the job runs
untraced and then again with spans hooked around each layer's public
functions, and the last line carries per-layer metrics.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: every workload runs serially.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
JOB_TIME_CAP = 1.15  # a job stops after this many times --seconds
WARMUP_CALLS = 3  # large-array allocator state settles over the first calls
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls beyond it

NOT_RECORDED = ("waiting time: none exists in a serial closed loop",
                "candidate-pair yield: needs a counter inside the program")


def load_program():
    """Import the package from the checkout's src/, or exit 2 without a result."""
    if not (SRC / "gilbertsim" / "cli.py").is_file():
        print(f"error: {SRC / 'gilbertsim'} not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from gilbertsim import cli
    return cli


def call(cli, argv):
    """One CLI call: (exit code or None if it raised, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed call, not a dead benchmark
        rc = None
        out.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), time.perf_counter() - start


def run_job(cli, argvs, cap):
    """The timed phase: the calls in order, stopping early once they took ``cap``
    seconds. Each call is followed, untimed, by one reference-kernel probe.

    Returns (results, the probes' seconds).
    """
    gc.collect()
    results, probes = [], []
    busy = 0.0
    for argv in argvs:
        results.append(call(cli, argv))
        probes.append(speed.probe())
        busy += results[-1][2]
        if busy > cap:
            break
    return results, probes


def setup_seconds(argv) -> list[tuple[float, float]]:
    """Fresh-process import plus first call, SETUP_PROBES times: (seconds,
    reference-kernel seconds in the same process right after)."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        setup, probe = proc.stdout.split()[-2:]
        samples.append((float(setup), float(probe)))
    return samples


class Findings:
    """What the output checks found: failed call indices, problems, and the
    statistical verdicts that failed (counted, not output errors)."""

    def __init__(self):
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.verdicts_failed = 0

    def flag(self, index: int, found: list[str]) -> None:
        if found:
            self.failed.add(index)
            self.problems.extend(f"call {index}: {p}" for p in found)


ALPHAS = tuple(float(a) for a in wl.ALPHAS.split(","))


def check_verify(cli, argvs, results, findings):
    for k, (rc, out, _) in enumerate(results):
        n_fail, found = checks.verify_report(rc, out)
        findings.verdicts_failed += n_fail
        findings.flag(k, found)
    findings.flag(0, checks.identical(results[0][1], call(cli, argvs[0])[1]))


def check_simulate(cli, argvs, results, findings):
    from gilbertsim.gilbert_graph import build_edges, build_edges_bruteforce
    from gilbertsim.point_process import replication_rng, sample_poisson
    from gilbertsim.theory_moments import RegimeSchedule

    parsed = [checks.simulate_csv(out, wl.SIM_REPS, ALPHAS) for _, out, _ in results]
    for k, (_, found) in enumerate(parsed):
        findings.flag(k, found)
    if any(checks.NUMPY_SCALAR_REPR in out for _, out, _ in results):
        print("# known defect (not counted as failed): simulate CSV writes L_value "
              "as np.float64(...)")
    seed = int(argvs[0][argvs[0].index("--seed") + 1])
    sample = sample_poisson(cli.parse_window("box:1x1"), wl.SIM_T, replication_rng(seed, 0))
    delta = RegimeSchedule(*wl.SIM_SCHEDULE).delta_at(wl.SIM_T)
    findings.flag(0, checks.replication_matches_oracle(
        parsed[0][0], build_edges(sample, delta), build_edges_bruteforce(sample, delta)))


def check_predict(cli, argvs, results, findings):
    from gilbertsim.theory_moments import covariance_exact

    parsed = [checks.predict_values(out) for _, out, _ in results]
    for k, (values, found) in enumerate(parsed):
        findings.flag(k, found or checks.predict_invariants(values, ALPHAS))
    args = argvs[0]
    key = f"covariance[{ALPHAS[0]!r},{ALPHAS[1]!r}]"
    if key in parsed[0][0]:
        window = cli.parse_window(args[args.index("--window") + 1])
        t, delta = (float(args[args.index(f) + 1]) for f in ("--t", "--delta"))
        findings.flag(0, checks.covariance_symmetric(
            parsed[0][0][key], covariance_exact(window, t, delta, ALPHAS[1], ALPHAS[0])))
    values, found = checks.predict_values(call(cli, checks.PREDICT_REFERENCE_ARGV)[1])
    findings.problems.extend(f"reference input: {p}"
                             for p in found or checks.predict_reference(values))


CHECKS = {"verify_sparse": check_verify, "simulate_dense": check_simulate,
          "predict_box3d": check_predict}


def check_outputs(name, argvs, results, cli) -> Findings:
    """Exit codes of every call, then the workload's own output checks."""
    findings = Findings()
    ok_codes = (0, 1) if name == "verify_sparse" else (0,)  # verify: 1 = a verdict failed
    for k, (rc, out, _) in enumerate(results):
        if rc not in ok_codes:
            findings.flag(k, [f"exit {rc}: {out.strip()[-300:]}"])
    CHECKS[name](cli, argvs, results, findings)
    return findings


def tail_latency(latencies):
    """(value, percentile): highest percentile with TAIL_BEYOND calls beyond it."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def machine_info() -> dict:
    import numpy
    import scipy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_ENV}}


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_program()
    workload = wl.WORKLOADS[name]
    # The traced run replays one job untraced and once traced: half size each.
    share = 0.5 if trace else 1.0
    calls = max(2, math.ceil(share * seconds * workload.calls_per_second))
    argvs = [workload.argv(seed, k) for k in range(calls)]
    warmups = [workload.argv(seed, f"warmup{k}") for k in range(WARMUP_CALLS)]
    print(f"# workload {name}: seed {seed}, job of {calls} calls x "
          f"{workload.items_per_call} item(s); closed loop, 1 client, serial")
    print("# machine " + json.dumps(machine_info(), sort_keys=True))
    for argv in warmups:
        call(cli, argv)
    setups = [] if trace else setup_seconds(warmups[0])

    results, probes = run_job(cli, argvs, JOB_TIME_CAP * share * seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elapsed = sum(r[2] for r in results)
    if len(results) < calls:
        print(f"# job stopped at the time cap after {len(results)} of {calls} calls; "
              f"wall_s is projected to the whole job")
    argvs = argvs[:len(results)]
    if trace:
        untraced = results
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as hooks:
            gc.collect()
            results = []
            for k, argv in enumerate(argvs):
                tracer.call_id = k
                results.append(call(cli, argv))
                speed.probe()  # as between the untraced calls
            traced_wall = sum(r[2] for r in results)

    findings = check_outputs(name, argvs, results, cli)
    if trace:
        for k, (a, b) in enumerate(zip(untraced, results)):
            findings.flag(k, ["tracing changed the output"] if a[:2] != b[:2] else [])
    n_failed = len(findings.failed)
    print(f"# fail_ratio = {n_failed}/{len(results)}; statistical verdicts failed "
          f"(not output errors): {findings.verdicts_failed}")

    if trace:
        metrics = per_layer(tracer, hooks.unmeasured, findings.verdicts_failed,
                            traced_wall, elapsed)
    else:
        metrics = end_to_end(workload, calls, results, probes, setups, rss_mb)
        metrics["ok_ratio"] = (1.0 - n_failed / len(results), "ratio")  # never reads 0
    for p in findings.problems:
        print(f"# CHECK FAILED {p}")
    for key, (value, unit) in metrics.items():
        print(f"{key:45s} {value:>16.6f} {unit}")
    return {"correct": not findings.problems, "attempted": len(results), "failed": n_failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def timings(workload, calls, results, setups, scales, setup_scales) -> dict:
    """The timing metrics, each call's and set-up's seconds times its scale."""
    latencies = [r[2] * f for r, f in zip(results, scales)]
    busy = sum(latencies)
    tail, _ = tail_latency(latencies)
    return {
        "setup_s": (statistics.median(s * f for (s, _), f in zip(setups, setup_scales)), "s"),
        "wall_s": (busy * calls / len(results), "s"),
        "items_per_s": (len(results) * workload.items_per_call / busy, "1/s"),
        "call_ms_p50": (1000.0 * statistics.median(latencies), "ms"),
        "call_ms_tail": (1000.0 * tail, "ms"),
    }


def end_to_end(workload, calls, results, probes, setups, rss_mb) -> dict:
    """Timings scaled to the reference host speed (speed.py), and memory.
    The unscaled timings are printed, not reported."""
    raw = timings(workload, calls, results, setups, [1.0] * len(results), [1.0] * len(setups))
    scaled = timings(workload, calls, results, setups,
                     [speed.REFERENCE_S / p for p in probes],
                     [speed.REFERENCE_S / p for _, p in setups])
    print(f"# host speed: reference kernel median {statistics.median(probes):.5f} s over "
          f"the job; timings are scaled to {speed.REFERENCE_S} s")
    print("# setup probes (s, kernel s): "
          + ", ".join(f"({s:.4f}, {p:.5f})" for s, p in setups))
    print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, (v, _) in raw.items()))
    pct = tail_latency(range(len(results)))[1]
    print(f"# call_ms_tail is the p{pct:.1f} latency of {len(results)} calls")
    return {**scaled, "peak_rss_mb": (rss_mb, "MB")}


def per_layer(tracer, unmeasured, verdicts_failed, wall, base_wall) -> dict:
    metrics = {}
    selfs = tracer.self_times()
    attributed = 0.0
    for module_name, names in tracing.HOOKS.items():
        for fn in names:
            span = f"{module_name}.{fn}"
            if span in unmeasured:
                continue
            self_s, n = selfs.get(span, (0.0, 0))
            attributed += self_s
            metrics[f"{span}.self_s"] = (self_s, "s")
            metrics[f"{span}.calls"] = (n, "count")
    points = tracer.counts.get("point_process.points", 0)
    edges = tracer.counts.get("gilbert_graph.edges", 0)
    if "point_process.sample_poisson" not in unmeasured:
        metrics["point_process.points"] = (points, "count")
    if "gilbert_graph.build_edges" not in unmeasured:
        metrics["gilbert_graph.edges"] = (edges, "count")
        metrics["gilbert_graph.edges_per_point"] = (edges / points if points else 0.0,
                                                    "edges/point")
    metrics["experiments.verdicts_failed"] = (verdicts_failed, "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.unattributed_s"] = (wall - attributed, "s")
    metrics["trace.overhead"] = (wall / base_wall, "ratio")
    print(f"# traced wall {wall:.4f} s = self times {attributed:.4f} s + unattributed "
          f"{wall - attributed:.4f} s; tracing overhead = traced / untraced wall of "
          f"the same calls = {wall:.4f} / {base_wall:.4f}")
    print(f"# spans recorded: {len(tracer.spans)}; unmeasured (hook target missing): "
          f"{', '.join(unmeasured) or 'none'}")
    print("# not recorded: " + "; ".join(NOT_RECORDED))
    return metrics


def smoke() -> int:
    """Run every workload briefly in both modes; check names, units and sums."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = []
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload['name']} --trace {trace}"
            before = len(errors)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                errors.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                errors.append(f"{label}: outputs not correct: {proc.stdout[-1500:]}")
            if trace:
                m = {k: v["value"] for k, v in result["metrics"].items()}
                total = sum(v for k, v in m.items() if k.endswith(".self_s"))
                total += m["trace.unattributed_s"]
                if not math.isclose(total, m["trace.wall_s"], rel_tol=1e-9):
                    errors.append(f"{label}: self times + unattributed = {total} "
                                  f"!= traced wall {m['trace.wall_s']}")
            print(f"smoke {label}: {'ok' if len(errors) == before else 'FAILED'}")
    for e in errors:
        print(e, file=sys.stderr)
    return 1 if errors else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run each workload for a few calls and check the printout")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
