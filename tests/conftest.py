"""The one hypothesis profile of the test suite, loaded before any test module.

Every property draws the same examples on every run (derandomize=True: the
seed is a hash of the test's source, without its decorators) and has no time
limit (deadline=None: an example slowed by a busy host does not fail
hypothesis's 200 ms deadline). Each @settings(...) falls back on this profile
and states only max_examples and, where needed, suppress_health_check.

Hypothesis also draws from the constants of every local non-test module
already imported, so a property's examples depend on which modules are loaded.
The local modules a full run imports (the package's CLI and perfbench's
checks, run and tracing, which bring in speed and workloads; no test imports
setup_probe or spread) are imported here first, so any selection of tests
draws the same examples as the full run. Changing a constant in any of them
re-draws every property.
"""

import sys
from pathlib import Path

from hypothesis import settings

settings.register_profile("gilbertsim", derandomize=True, deadline=None)
settings.load_profile("gilbertsim")

# the package first, so numpy is loaded before run pins the BLAS thread variables,
# as in a full run, which collects tests/ before perfbench/
import gilbertsim.cli  # noqa: E402,F401

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402,F401
import run  # noqa: E402,F401
import tracing  # noqa: E402,F401
