"""Command-line front end: simulate, predict, verify, covariogram.

It parses, dispatches and writes, and computes no theory: predict's entries and
every report come from experiments, the covariogram's values from geometry.
Config files are flat `key = value` lines with `#` comments, one per run
setting; flags override config values. Verdict tolerances are fixed, not
settings. n picks the binomial model and t or t_grid the Poisson one; a config
naming both exits 2, and a --t or --t-grid flag drops the config file's n and
--n its t and t_grid. delta and schedule follow the same rule. A config's kind
is its command's row of experiments._SUITES: verify's comes from --kind, the
config file or Moments, and simulate and predict are their own kind, whatever
the config file says. reps is needed where the row builds graphs. A config that
breaks its row exits 2 before any work, as does an output path that names a
directory or lies in none, and two of --config, --out and --edges-out that name
one file. verify --kind LDI also writes <out>.<table>.csv, or ./report.<table>.csv
without --out. A window is box:<s1>x<s2>... or ball:<r>@d=<dim>. Seed
precedence: --seed flag, then GILBERT_SEED, then config, then 0. Exit codes: 0
success (all verdicts pass), 1 failed verdicts, 2 usage/config errors, including
overflow, division by zero or an invalid floating-point value at extreme inputs
(numpy raises instead of warning).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import ConfigError, GilbertSimError
from .experiments import (POINT_BUDGET, VERIFICATION_KINDS, ExperimentConfig,
                          ldi_table_to_csv, predictions, replications_to_csv,
                          report_to_json, run_replications, run_verification,
                          simulate_row)
from .geometry import ConvexWindow, covariogram
# not called here; perfbench's tracer test checks that cli binds this name
from .gilbert_graph import build_edges  # noqa: F401
from .theory_moments import RegimeSchedule


def parse_window(text: str) -> ConvexWindow:
    """box:1x1, box:2x1x0.5 or ball:1.0@d=3."""
    try:
        kind, _, rest = text.partition(":")
        if kind == "box" and rest:
            return ConvexWindow.box([float(s) for s in rest.split("x")])
        if kind == "ball" and rest:
            radius, _, dpart = rest.partition("@")
            if not dpart.startswith("d="):
                raise ValueError("ball window needs its dimension as @d=<dim>")
            return ConvexWindow.ball(float(radius), int(dpart[2:]))
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r}: {exc}") from None
    raise ConfigError(f"bad window {text!r}: expected box:<s1>x<s2>... or ball:<r>@d=<dim>")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_schedule(text: str) -> RegimeSchedule:
    a, gamma = _parse_floats(text)  # ValueError unless exactly two values
    return RegimeSchedule(a=a, gamma=gamma)


def canonical_kind(text: str) -> str:
    for kind in VERIFICATION_KINDS:
        if kind.lower() == text.lower():
            return kind
    raise ConfigError(f"unknown kind {text!r}; choose one of {', '.join(VERIFICATION_KINDS)}")


# Run settings: config key -> (flag, help, converter). Flags are built from it
# with dest = key and no argparse type, so flag and config values share one
# converter. Each key is an ExperimentConfig field, under the name _FIELDS
# gives it. n_jobs is config-only; --kind is on `verify` only.
# These 11 keys are every setting of a run: verdict tolerances are fixed, and
# the intensity given picks the model (n binomial, t or t_grid Poisson).
_SETTINGS = {
    "window": ("--window", "box:1x1 | box:2x1x0.5 | ball:1.0@d=3", parse_window),
    "t": ("--t", "Poisson intensity", float),
    "n": ("--n", "binomial point count", int),
    "t_grid": ("--t-grid", "comma list of Poisson intensities", _parse_floats),
    "schedule": ("--schedule", "a,gamma for delta_t = a * t^-gamma", _parse_schedule),
    "delta": ("--delta", "distance parameter", float),
    "alphas": ("--alpha", "comma list of length-power exponents", _parse_floats),
    "reps": ("--reps", "number of replications", int),
    "seed": ("--seed", "master seed (beats GILBERT_SEED)", int),
    "kind": ("--kind", "|".join(VERIFICATION_KINDS), canonical_kind),
    "n_jobs": (None, None, int),
}
# the settings whose ExperimentConfig field has another name
_FIELDS = {"reps": "replications", "seed": "master_seed"}


def _convert(key: str, text: str):
    """A run setting's value from its text."""
    try:
        return _SETTINGS[key][2](text)
    except ValueError as exc:
        raise ConfigError(f"invalid value for {key!r}: {exc}") from None


def load_config(path: str) -> dict:
    """Flat key=value file -> raw dict; duplicate/unknown keys are errors."""
    raw: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        raw[key] = value
    return raw


def resolve_config(raw: dict, args: argparse.Namespace) -> ExperimentConfig:
    """Merge config-file values and flags (flags win), then convert each value once."""
    flags = {key: value for key, value in vars(args).items()
             if key in _SETTINGS and value is not None}
    merged = {**raw, **flags}
    for key in ("window", "alphas"):
        if key not in merged:
            raise ConfigError(f"missing required key {key!r}")
    env = None if "seed" in flags else os.environ.get("GILBERT_SEED")
    if env is not None:
        merged.pop("seed", None)  # GILBERT_SEED beats the config file

    values = {key: _convert(key, text) for key, text in merged.items()}
    if env is not None:
        try:
            values["seed"] = int(env)
        except ValueError:
            raise ConfigError(f"GILBERT_SEED must be an integer, got {env!r}") from None
    # a flag on one side of a pair drops the config file's other side: --t or --t-grid
    # drops n and --n t and t_grid; --delta drops the schedule and --schedule delta
    pairs = [(("t", "t_grid"), ("n",), "--t or --t-grid (Poisson model) and --n (binomial "
              "model) pick different models"),
             (("delta",), ("schedule",), "--delta and --schedule both set the distance "
              "parameter")]
    for one, other, clash in pairs:
        if flags.keys() & one and flags.keys() & other:
            raise ConfigError(f"{clash}; give one")
        for side, dropped in ((one, other), (other, one)):
            if flags.keys() & side:
                for key in dropped:
                    values.pop(key, None)
    if not values.keys() & {"t", "t_grid", "n"}:
        raise ConfigError("missing required key 't', 't_grid' or 'n'")
    # a config file's kind is verify's, so one file serves every command
    values["kind"] = values.get("kind", "Moments") if args.command == "verify" else args.command
    return ExperimentConfig(**{_FIELDS.get(key, key): value for key, value in values.items()})


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out!r}: {exc}") from None
    else:
        sys.stdout.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    raw = load_config(args.config) if args.config else {}
    config = resolve_config(raw, args)
    row = simulate_row(config.alphas)
    first = {}

    def reduce(r, sample, edges):
        if r == 0 and args.edges_out:
            first["edges"] = edges  # dumped below, not built again
        return row(r, sample, edges)

    rows = run_replications(config, reduce)
    _write_or_print(replications_to_csv(rows, config.alphas), args.out)
    if args.edges_out:
        lines = ["i,j,length"]
        lines += [f"{i},{j},{l!r}" for i, j, l in first["edges"].edges]
        _write_or_print("\n".join(lines) + "\n", args.edges_out)
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    raw = load_config(args.config) if args.config else {}
    config = resolve_config(raw, args)
    entries = predictions(config)
    try:
        text = json.dumps(entries, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"a prediction is not finite at these inputs: {exc}") from None
    _write_or_print(text + "\n", args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    raw = load_config(args.config) if args.config else {}
    config = resolve_config(raw, args)
    report = run_verification(config)
    _write_or_print(report_to_json(report), args.out)
    if report.tables:
        base = args.out or "report"
        for name, table in sorted(report.tables.items()):
            _write_or_print(ldi_table_to_csv(table), f"{base}.{name}.csv")
    print(f"verdicts: {sum(m.verdict for m in report.metrics)}/{len(report.metrics)} pass",
          file=sys.stderr)
    return 0 if report.passed else 1


def cmd_covariogram(args: argparse.Namespace) -> int:
    if not 1 <= args.steps <= POINT_BUDGET:  # the table's rows are held in memory
        raise ConfigError(f"--steps must be between 1 and {POINT_BUDGET:.3g}, got {args.steps}")
    window = parse_window(args.window)
    try:
        direction = np.array(_parse_floats(args.direction), dtype=float)
    except ValueError:
        raise ConfigError(f"bad direction {args.direction!r}") from None
    if direction.size != window.dim:
        raise ConfigError(f"direction must have {window.dim} coordinates")
    norm = float(np.linalg.norm(direction))
    if not (math.isfinite(norm) and norm > 0):
        raise ConfigError(f"direction must be finite and nonzero, got {args.direction!r}")
    direction = direction / norm
    rmax = args.rmax if args.rmax is not None else window.diameter
    if not (math.isfinite(rmax) and rmax >= 0):
        raise ConfigError(f"--rmax must be finite and >= 0, got {rmax!r}")
    lines = ["r,covariogram"]
    for r in np.linspace(0.0, rmax, args.steps):
        val = covariogram(window, r * direction)
        lines.append(f"{float(r)!r},{val!r}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gilbertsim",
        description="Gilbert graph simulation and closed-form theory verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_kind=False):
        p.add_argument("--config", help="flat key = value config file")
        for key, (flag, text, _) in _SETTINGS.items():
            if flag is not None and (with_kind or key != "kind"):
                p.add_argument(flag, dest=key, help=text)
        p.add_argument("--out", help="output path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="dump per-replication statistics as CSV")
    common(p_sim)
    p_sim.add_argument("--edges-out", dest="edges_out",
                       help="also dump replication 0's edges as i,j,length CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_pred = sub.add_parser("predict", help="print closed-form predictions as JSON")
    common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_ver = sub.add_parser("verify", help="run a Monte Carlo verification suite")
    common(p_ver, with_kind=True)
    p_ver.set_defaults(func=cmd_verify)

    p_cov = sub.add_parser("covariogram", help="tabulate the covariogram along a direction")
    p_cov.add_argument("--window", required=True)
    p_cov.add_argument("--direction", required=True, help="comma vector, e.g. 1,0")
    p_cov.add_argument("--rmax", type=float)
    p_cov.add_argument("--steps", type=int, default=101)
    p_cov.add_argument("--out")
    p_cov.set_defaults(func=cmd_covariogram)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an output path that cannot be opened, or one file named twice, exits 2 before any work
        named = {}  # real path -> the first of --config, --out and --edges-out naming it
        for flag in ("--config", "--out", "--edges-out"):
            path = vars(args).get(flag[2:].replace("-", "_"))
            real = path and os.path.realpath(path)
            if real and named.setdefault(real, flag) != flag:
                raise ConfigError(f"{named[real]} and {flag} name one file, {path!r}")
        for out in (args.out, vars(args).get("edges_out")):
            if out and os.path.isdir(out):
                raise ConfigError(f"cannot write {out!r}: it is a directory")
            if out and not os.path.isdir(os.path.dirname(out) or "."):
                raise ConfigError(f"cannot write {out!r}: no directory {os.path.dirname(out)!r}")
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except GilbertSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # overflow, division by zero, numpy's FloatingPointError
        print(f"error: {type(exc).__name__} at these inputs: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
