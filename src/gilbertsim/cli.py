"""Command-line front end: simulate, predict, verify, covariogram.

Config files are flat `key = value` lines with `#` comments; flags override
config values. Seed precedence: --seed flag, then GILBERT_SEED, then config,
then 0. Exit codes: 0 success (all verdicts pass), 1 failed verdicts,
2 usage/config errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .errors import ConfigError, GilbertSimError
from .experiments import (VERIFICATION_KINDS, DEFAULT_TOLERANCES,
                          ExperimentConfig, ldi_table_to_csv,
                          replication_sample, replications_to_csv,
                          report_to_json, run_replications, run_verification,
                          simulate_row)
from .geometry import ConvexWindow, covariogram, covariogram_is_exact
from .gilbert_graph import build_edges
from .theory_moments import (RegimeSchedule, TheoryPrediction,
                             covariance_exact, d3_bound, expectation_bounds,
                             expectation_exact, sigma_matrix,
                             variance_asymptotic)

_CONFIG_KEYS = ("window", "dim", "model", "t", "n", "t_grid", "schedule",
                "delta", "alphas", "reps", "seed", "kind", "n_jobs")


def parse_window(text: str, dim: int | None = None) -> ConvexWindow:
    """box:1x1, box:2x1x0.5, ball:1.0@d=3 (or ball:R with an explicit dim)."""
    try:
        kind, _, rest = text.partition(":")
        if kind == "box" and rest:
            return ConvexWindow.box([float(s) for s in rest.split("x")])
        if kind == "ball" and rest:
            radius, _, dpart = rest.partition("@")
            if dpart:
                if not dpart.startswith("d="):
                    raise ValueError("ball dimension must look like @d=3")
                d = int(dpart[2:])
            elif dim is not None:
                d = int(dim)
            else:
                raise ValueError("ball window needs @d=<dim> or an explicit dim")
            return ConvexWindow.ball(float(radius), d)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad window {text!r}: {exc}") from None
    raise ConfigError(f"bad window {text!r}: expected box:<s1>x<s2>... or ball:<r>@d=<dim>")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in str(text).split(","))


def canonical_kind(text: str) -> str:
    for kind in VERIFICATION_KINDS:
        if kind.lower() == text.lower():
            return kind
    raise ConfigError(f"unknown kind {text!r}; choose one of {', '.join(VERIFICATION_KINDS)}")


def load_config(path: str) -> dict:
    """Flat key=value file -> raw dict; duplicate/unknown keys are errors."""
    raw: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
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
        if key not in _CONFIG_KEYS and not key.startswith("tol_"):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key.startswith("tol_") and key[4:] not in DEFAULT_TOLERANCES:
            raise ConfigError(f"{path}:{lineno}: unknown tolerance key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        raw[key] = value
    return raw


def resolve_config(raw: dict, args: argparse.Namespace) -> ExperimentConfig:
    """Merge config-file values and flags (flags win) into an ExperimentConfig."""
    def pick(flag_value, key):
        return flag_value if flag_value is not None else raw.get(key)

    dim = pick(getattr(args, "dim", None), "dim")
    window_text = pick(getattr(args, "window", None), "window")
    if window_text is None:
        raise ConfigError("missing required key 'window'")

    model = raw.get("model")
    t = pick(getattr(args, "t", None), "t")
    n = pick(getattr(args, "n", None), "n")
    t_grid = pick(getattr(args, "t_grid", None), "t_grid")
    if getattr(args, "t", None) is not None:
        model = "poisson"
    if getattr(args, "n", None) is not None:
        model = model or "binomial"
    if model is None:
        model = "poisson" if (t is not None or t_grid) else ("binomial" if n else None)
    if model is None:
        raise ConfigError("missing required key 'model' (or t / n)")
    schedule_text = pick(getattr(args, "schedule", None), "schedule")
    schedule = None
    if schedule_text is not None:
        try:
            parts = _parse_floats(schedule_text)
            if len(parts) != 2:
                raise ValueError("expected 'a,gamma'")
            schedule = RegimeSchedule(a=parts[0], gamma=parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad schedule {schedule_text!r}: {exc}") from None
    delta = pick(getattr(args, "delta", None), "delta")
    alphas_text = pick(getattr(args, "alpha", None), "alphas")
    if alphas_text is None:
        raise ConfigError("missing required key 'alphas'")
    reps = pick(getattr(args, "reps", None), "reps")
    if reps is None:
        raise ConfigError("missing required key 'reps'")

    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("GILBERT_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ConfigError(f"GILBERT_SEED must be an integer, got {env!r}") from None
        elif "seed" in raw:
            seed = raw["seed"]
        else:
            seed = 0

    kind_text = pick(getattr(args, "kind", None), "kind")
    kind = canonical_kind(str(kind_text)) if kind_text is not None else "Moments"
    n_jobs = raw.get("n_jobs", 1)

    def convert(key, value, cast):
        if value is None:
            return None
        try:
            return cast(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value for {key!r}: {exc}") from None

    return ExperimentConfig(
        window=parse_window(str(window_text), convert("dim", dim, int)),
        model=str(model),
        alphas=convert("alphas", alphas_text, _parse_floats),
        replications=convert("reps", reps, int), master_seed=convert("seed", seed, int),
        kind=kind,
        t=convert("t", t, float),
        n=convert("n", n, int),
        t_grid=convert("t_grid", t_grid, _parse_floats),
        schedule=schedule,
        delta=convert("delta", delta, float),
        tolerances={k[4:]: convert(k, v, float) for k, v in raw.items() if k.startswith("tol_")},
        n_jobs=convert("n_jobs", n_jobs, int))


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    raw = load_config(args.config) if args.config else {}
    config = resolve_config(raw, args)
    rows = run_replications(config, simulate_row(config.alphas))
    _write_or_print(replications_to_csv(rows, config.alphas), args.out)
    if args.edges_out:
        intensity = config.intensity()
        edges = build_edges(replication_sample(config, intensity, 0),
                            config.delta_for(intensity))
        lines = ["i,j,length"]
        lines += [f"{i},{j},{l!r}" for i, j, l in edges.edges]
        _write_or_print("\n".join(lines) + "\n", args.edges_out)
    return 0


def _predictions(config: ExperimentConfig) -> list[TheoryPrediction]:
    t = config.intensity()
    delta = config.delta_for(t)
    window = config.window
    params = {"window": window.label(), "t": t, "delta": delta}
    preds = []
    for alpha in config.alphas:
        p = dict(params, alpha=alpha)
        preds.append(TheoryPrediction(
            name=f"expectation[alpha={alpha}]",
            value=expectation_exact(window, t, delta, alpha), params=p,
            anchor="mean: closed-form radial covariogram integral"))
        preds.append(TheoryPrediction(
            name=f"expectation_bounds[alpha={alpha}]",
            value=expectation_bounds(window, t, delta, alpha), params=p,
            anchor="mean sandwich: volume and surface-correction bounds"))
        preds.append(TheoryPrediction(
            name=f"variance_asymptotic[alpha={alpha}]",
            value=variance_asymptotic(window, t, delta, alpha), params=p,
            anchor="leading-order variance"))
    for i, a in enumerate(config.alphas):
        for b in config.alphas[i:]:
            preds.append(TheoryPrediction(
                name=f"covariance[{a},{b}]",
                value=covariance_exact(window, t, delta, a, b),
                params=dict(params, alpha=a, beta=b),
                anchor="covariance: quadrature of the two-point moment split"))
    if config.schedule is not None and len(config.alphas) >= 2:
        sig = sigma_matrix(config.alphas, window.dim, window.volume, config.schedule)
        vector = dict(params, alphas=list(config.alphas),
                      regime=config.schedule.classify(window.dim))
        preds.append(TheoryPrediction(
            name="sigma_matrix", value=sig.tolist(), params=vector,
            anchor="asymptotic covariance matrix by regime"))
        preds.append(TheoryPrediction(
            name="d3_bound", value=d3_bound(window, t, delta, config.alphas, config.schedule),
            params=vector, anchor="multivariate normal approximation: explicit d3 bound"))
    return preds


def cmd_predict(args: argparse.Namespace) -> int:
    raw = load_config(args.config) if args.config else {}
    if "reps" not in raw and args.reps is None:
        args.reps = 2  # predictions do not simulate; satisfy config invariant
    config = resolve_config(raw, args)
    preds = _predictions(config)
    payload = [{"name": p.name, "value": p.value, "params": p.params,
                "paper_anchor": p.anchor, "estimated": p.estimated}
               for p in preds]
    _write_or_print(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
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
    if args.steps < 1 or args.mc_samples < 1:
        raise ConfigError("--steps and --mc-samples must be >= 1")
    window = parse_window(args.window, args.dim)
    try:
        direction = np.array(_parse_floats(args.direction), dtype=float)
    except ValueError:
        raise ConfigError(f"bad direction {args.direction!r}") from None
    if direction.size != window.dim:
        raise ConfigError(f"direction must have {window.dim} coordinates")
    norm = float(np.linalg.norm(direction))
    if norm == 0:
        raise ConfigError("direction must be nonzero")
    direction = direction / norm
    rmax = args.rmax if args.rmax is not None else window.diameter
    estimated = int(not covariogram_is_exact(window))
    lines = ["r,covariogram,estimated"]
    for r in np.linspace(0.0, rmax, args.steps):
        val = covariogram(window, r * direction, mc_samples=args.mc_samples)
        lines.append(f"{float(r)!r},{val!r},{estimated}")
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
        p.add_argument("--window", help="box:1x1 | box:2x1x0.5 | ball:1.0@d=3")
        p.add_argument("--dim", type=int, help="dimension for ball:<r> windows")
        p.add_argument("--t", type=float, help="Poisson intensity")
        p.add_argument("--n", type=int, help="binomial point count")
        p.add_argument("--t-grid", dest="t_grid", help="comma list of intensities")
        p.add_argument("--delta", type=float, help="distance parameter")
        p.add_argument("--schedule", help="a,gamma for delta_t = a * t^-gamma")
        p.add_argument("--alpha", help="comma list of length-power exponents")
        p.add_argument("--reps", type=int, help="number of replications")
        p.add_argument("--seed", type=int, help="master seed (beats GILBERT_SEED)")
        p.add_argument("--out", help="output path (default: stdout)")
        if with_kind:
            p.add_argument("--kind", help="|".join(VERIFICATION_KINDS))

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
    p_cov.add_argument("--dim", type=int)
    p_cov.add_argument("--direction", required=True, help="comma vector, e.g. 1,0")
    p_cov.add_argument("--rmax", type=float)
    p_cov.add_argument("--steps", type=int, default=101)
    p_cov.add_argument("--mc-samples", dest="mc_samples", type=int, default=1_000_000)
    p_cov.add_argument("--out")
    p_cov.set_defaults(func=cmd_covariogram)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GilbertSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
