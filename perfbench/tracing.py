"""In-memory span tracing around the public functions of gilbertsim's layers.

Hooks are installed from outside the program: each traced function is
replaced by a wrapper under every name a loaded ``gilbertsim`` module binds it
to (``from .gilbert_graph import build_edges`` in ``experiments`` and ``cli``,
the module's own global for calls inside it), and restored afterwards. No file
under ``src/`` changes. A hook whose target no longer exists marks that span
unmeasured instead of failing, so a refactor that moves a function leaves the
benchmark running.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass
from time import perf_counter

PACKAGE = "gilbertsim"

# module -> public functions traced in it. theory_limits and theory_deviations
# are left out on purpose: no workload of the benchmark targets them.
# experiments.run_replications' self time includes per-replication seeding
# and the private _smallest_powers reduction, which are not hooked.
HOOKS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "experiments": ("run_verification", "run_replications"),
    "point_process": ("sample_poisson",),
    "geometry": ("sample_uniform", "covariogram_radial_integral"),
    "gilbert_graph": ("build_edges", "length_power", "max_degree"),
    "theory_moments": ("expectation_exact", "expectation_bounds",
                       "covariance_exact", "covariance_bounds",
                       "variance_asymptotic"),
}

# span -> (count name, function of the span's return value)
COUNTERS = {
    "point_process.sample_poisson": ("point_process.points", lambda s: s.n_points),
    "gilbert_graph.build_edges": ("gilbert_graph.edges", lambda e: e.n_edges),
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    call_id: int  # benchmark call the span belongs to


class Tracer:
    """Records nested spans of the wrapped functions, in memory."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = {}
        self.call_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = Span(name, start, end, parent, self.call_id)
            if counter is not None:
                key, count = counter
                self.counts[key] = self.counts.get(key, 0) + int(count(result))
            return result

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """span name -> (total self seconds, calls); self = duration - children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        out: dict[str, tuple[float, int]] = {}
        for span, covered in zip(self.spans, child):
            total, calls = out.get(span.name, (0.0, 0))
            out[span.name] = (total + (span.end - span.start) - covered, calls + 1)
        return out


class installed:
    """Context manager: wrap every hook target present, restore on exit.

    ``unmeasured`` lists the spans whose module or function is missing.
    """

    def __init__(self, tracer: Tracer, hooks: dict[str, tuple[str, ...]] = HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.unmeasured: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "installed":
        for module_name, names in self.hooks.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.unmeasured += [f"{module_name}.{n}" for n in names]
                continue
            for name in names:
                target = getattr(module, name, None)
                if not callable(target):
                    self.unmeasured.append(f"{module_name}.{name}")
                    continue
                wrapper = self.tracer.wrap(f"{module_name}.{name}", target)
                for mod in _package_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
