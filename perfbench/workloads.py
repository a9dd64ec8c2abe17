"""Benchmark workloads: the CLI argument lists each call sends.

Every workload is a closed loop with one client: the next ``gilbertsim`` CLI
call starts when the previous one returns, serially in one process. Inputs are
a pure function of (workload, seed, call index); the program sees only the
CLI arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

VERIFY_T = 200.0
VERIFY_REPS = 400
SIM_T = 5000.0
SIM_SCHEDULE = (1.0, 0.3)  # delta = 5000^-0.3 ~ 0.077, ~225k edges per replication
SIM_REPS = 2
PREDICT_T = 1000.0
ALPHAS = "0,1"


def _verify_sparse(rng: random.Random) -> list[str]:
    delta = rng.uniform(0.04, 0.06)
    return ["verify", "--kind", "Moments", "--window", "box:1x1",
            "--t", repr(VERIFY_T), "--delta", repr(delta), "--alpha", ALPHAS,
            "--reps", str(VERIFY_REPS), "--seed", str(rng.randrange(2**31))]


def _simulate_dense(rng: random.Random) -> list[str]:
    a, gamma = SIM_SCHEDULE
    return ["simulate", "--window", "box:1x1", "--t", repr(SIM_T),
            "--schedule", f"{a!r},{gamma!r}", "--alpha", ALPHAS,
            "--reps", str(SIM_REPS), "--seed", str(rng.randrange(2**31))]


def _predict_box3d(rng: random.Random) -> list[str]:
    sides = [rng.uniform(0.5, 2.0) for _ in range(3)]
    delta = rng.uniform(0.02, 0.2) * min(sides)
    return ["predict", "--window", "box:" + "x".join(repr(s) for s in sides),
            "--t", repr(PREDICT_T), "--delta", repr(delta), "--alpha", ALPHAS]


@dataclass(frozen=True)
class Workload:
    name: str
    items_per_call: int  # replications (simulate, verify) or predictions per call
    # Calls per second measured at the commit that defined the benchmark;
    # the timed phase is a fixed job of ceil(seconds * rate) calls.
    calls_per_second: float
    make_argv: Callable[[random.Random], list[str]]

    def argv(self, seed: int, index: int | str) -> list[str]:
        """CLI arguments of call ``index`` (a string for the warm-up calls)."""
        return self.make_argv(random.Random(f"{self.name}:{seed}:{index}"))


WORKLOADS = {w.name: w for w in (
    Workload("verify_sparse", VERIFY_REPS, 2.3, _verify_sparse),
    Workload("simulate_dense", SIM_REPS, 4.4, _simulate_dense),
    Workload("predict_box3d", 1, 2.9, _predict_box3d),
)}
