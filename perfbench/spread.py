"""Repeat the benchmark over seeds and summarise each metric's median and spread.

    python3 perfbench/spread.py --runs 10 --trace 0 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), seeds 1..runs, serially. For every
metric it reports the median, the quartiles from statistics.quantiles(n=4)
and the spread (q3 - q1) / median, next to the metric's bound in
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
               "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in summary["seeds"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            summary.setdefault("machine", next(
                (json.loads(line[len("# machine "):]) for line in lines
                 if line.startswith("# machine ")), None))
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: outputs not correct\n{proc.stdout}",
                      file=sys.stderr)
                return 1
            for key, m in result["metrics"].items():
                values.setdefault(key, []).append(m["value"])
                units[key] = m["unit"]
        rows = {}
        for key, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else None
            rows[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": units[key], "values": vals}
            bound = bounds.get(key)
            flag = "" if bound is None or spread is None or spread < bound / 3 else "  <-- wide"
            print(f"{name:15s} {key:45s} median {med:14.6f} {units[key]:11s} spread "
                  f"{'n/a' if spread is None else f'{spread:.4f}'}"
                  f"{'' if bound is None else f' (bound {bound})'}{flag}")
        summary["workloads"][name] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
