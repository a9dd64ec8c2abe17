"""Command-line front end: simulate, predict, verify, covariogram.

It parses, checks paths, dispatches and writes, and computes no theory:
experiments computes and lays out every file (simulate, report_to_json and its
LDI tables, predictions, covariogram_table). Config files are flat
`key = value` lines with `#` comments, one per run setting; flags override
config values. n picks the binomial model and t or t_grid the Poisson one; a
config naming both exits 2, and a --t or --t-grid flag drops the config file's
n and --n its t and t_grid. delta and schedule follow the same rule. A config's
kind is its command's row of experiments._SUITES: verify's comes from --kind,
the config file or Moments, and simulate and predict are their own kind,
whatever the config file says. reps is needed where the row builds graphs.
_outputs names every file a run writes: --out, --edges-out and verify --kind
LDI's tables (<out>.<table>.csv, or ./report.<table>.csv without --out). A
config that breaks its row, a file that cannot be written (empty, a directory,
in none, a name too long, read-only) and two of --config and those files naming
one file exit 2 before any work. Each cmd_* returns its exit code, its texts
keyed by output name and a stderr note; main checks every file again and writes
none unless all pass. A write that still fails (a full disk) exits 2 and leaves
every file as it was, except one written in place after the others (stdout,
/dev/null, a file in a directory it cannot write). Seed precedence: --seed
flag, then GILBERT_SEED, then config, then 0. Exit codes: 0 success (all
verdicts pass), 1 failed verdicts, 2 usage or config errors, including
overflow, division by zero or an invalid floating-point value at extreme inputs
(numpy raises, not warns).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import re
import stat
import sys

import numpy as np

from .errors import ConfigError, GilbertSimError
from .experiments import (POINT_BUDGET, VERIFICATION_KINDS, ExperimentConfig,
                          covariogram_table, predictions, report_tables,
                          report_to_json, run_verification, simulate, to_json)
from .geometry import parse_window
# not called here; perfbench's tracer test checks that cli binds this name
from .gilbert_graph import build_edges  # noqa: F401
from .theory_moments import RegimeSchedule


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


def cmd_simulate(args: argparse.Namespace, config: ExperimentConfig) -> tuple[int, dict, str]:
    table, edges = simulate(config, edges=args.edges_out is not None)
    return 0, {"--out": table, "--edges-out": edges}, ""


def cmd_predict(args: argparse.Namespace, config: ExperimentConfig) -> tuple[int, dict, str]:
    entries = predictions(config)
    try:
        return 0, {"--out": to_json(entries)}, ""
    except ValueError as exc:
        raise ConfigError(f"a prediction is not finite at these inputs: {exc}") from None


def cmd_verify(args: argparse.Namespace, config: ExperimentConfig) -> tuple[int, dict, str]:
    report = run_verification(config)
    texts = {"--out": report_to_json(report)}
    texts.update({f"the {name} table": text for name, text in report.tables.items()})
    verdicts = f"verdicts: {sum(m.verdict for m in report.metrics)}/{len(report.metrics)} pass\n"
    return (0 if report.passed else 1), texts, verdicts


def cmd_covariogram(args: argparse.Namespace, config: None) -> tuple[int, dict, str]:
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
    rmax = args.rmax if args.rmax is not None else window.diameter
    if not (math.isfinite(rmax) and rmax >= 0):
        raise ConfigError(f"--rmax must be finite and >= 0, got {rmax!r}")
    return 0, {"--out": covariogram_table(window, direction / norm, rmax, args.steps)}, ""


class _Parser(argparse.ArgumentParser):
    """argparse alone reads a token that starts with "-" as a flag unless it looks like -1
    or -.5, so `--alpha -0.5,1` would lack its value. Here a token that starts with "-" and
    a digit or "." is a value, as after "=": `--alpha -1e-3` is `--alpha=-1e-3`. Subparsers
    are of this class too (add_subparsers' default parser_class)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(
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


@contextlib.contextmanager
def _cannot_write(path: str):
    """An OSError inside becomes ConfigError("cannot write <path>: ...")."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from None


def _outputs(args: argparse.Namespace, config: ExperimentConfig | None) -> list[tuple]:
    """The files a run writes, as (name, path or None for stdout), tables sorted by name."""
    outputs = [("--out", args.out)]
    if vars(args).get("edges_out") is not None:
        outputs.append(("--edges-out", args.edges_out))
    base = "report" if args.out is None else args.out
    tables = [] if config is None else sorted(report_tables(config))
    return outputs + [(f"the {name} table", f"{base}.{name}.csv") for name in tables]


def _check_paths(config: str | None, outputs: list[tuple[str, str | None]]) -> None:
    """Exit 2 on one file named twice, or an output path that is empty, a directory,
    lies in none, is too long a name for its directory or a file this process may not write."""
    named = {}  # real path -> the first name given to it
    for name, path in [("--config", config), *outputs]:
        real = None if path is None else os.path.realpath(path)
        if real is not None and named.setdefault(real, name) != name:
            raise ConfigError(f"{named[real]} and {name} name one file, {path!r}")
    for path in [path for _, path in outputs if path is not None]:
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path!r}: it is a directory")
        if not os.path.isdir(os.path.join(".", os.path.dirname(path))):
            raise ConfigError(f"cannot write {path!r}: no directory {os.path.dirname(path)!r}")
        folder, name = os.path.split(os.path.realpath(path))
        with _cannot_write(path):  # open() refuses all three; a rename fails late or not at all
            if path == "":
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
            if len(os.fsencode(name)) > os.pathconf(folder, "PC_NAME_MAX"):
                raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), path)
            if os.path.exists(path) and not os.access(path, os.W_OK):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _write_all(files: list[tuple[str, str | None, str]]) -> None:
    """Write every renamed file or none, then the rest in place.

    Each file goes to a temporary file beside its target (a symlink's resolved
    target), with the mode open(path, "w") leaves (0666 less the umask, or the
    target's own), and the targets are replaced only once every write has
    succeeded. A target that a rename would change beyond its bytes is written
    in place, last, as stdout is: one that is not a regular file (/dev/null, a
    FIFO), has other hard links, another owner or group, or lies in a directory
    this process cannot write. `_check_paths` has passed every path.
    """
    staged, in_place = [], []  # (path, temporary file, target); (path or None, text)
    try:
        for _, path, text in files:
            if path is None:
                in_place.append((path, text))
                continue
            target = os.path.realpath(path)
            folder = os.path.dirname(target)
            with _cannot_write(path):
                info = os.stat(target) if os.path.exists(target) else None
                if not os.access(folder, os.W_OK | os.X_OK) or info is not None and (
                        not stat.S_ISREG(info.st_mode) or info.st_nlink > 1
                        or (info.st_uid, info.st_gid) != (os.geteuid(), os.getegid())):
                    in_place.append((path, text))
                    continue
                temp = os.path.join(folder, f".gilbertsim-{os.urandom(8).hex()}.tmp")
                fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                staged.append((path, temp, target))
                with open(fd, "w", encoding="utf-8") as fh:
                    if info is not None:
                        os.fchmod(fd, stat.S_IMODE(info.st_mode))
                    fh.write(text)
        while staged:
            path, temp, target = staged[0]
            with _cannot_write(path):
                os.replace(temp, target)
            staged.pop(0)
    finally:
        for _, temp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temp)
    for path, text in in_place:
        if path is None:
            with _cannot_write("<stdout>"):
                sys.stdout.write(text)
                sys.stdout.flush()
            continue
        with _cannot_write(path), open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    given = vars(args).get("config")  # covariogram takes no config
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            config = (resolve_config({} if given is None else load_config(given), args)
                      if "config" in vars(args) else None)
            outputs = _outputs(args, config)
            _check_paths(given, outputs)  # before any work
            code, texts, note = args.func(args, config)
        _check_paths(given, outputs)  # a target made read-only during the run
        _write_all([(name, path, texts[name]) for name, path in outputs])
        sys.stderr.write(note)
        return code
    except GilbertSimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # overflow, division by zero, numpy's FloatingPointError
        print(f"error: {type(exc).__name__} at these inputs: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
