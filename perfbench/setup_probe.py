"""Set-up probe: time ``import gilbertsim.cli`` plus one CLI call in a fresh process.

Usage: python3 perfbench/setup_probe.py <gilbertsim CLI arguments>
Prints the elapsed seconds, then the median seconds of three reference-kernel
runs (speed.py) made right after; exits non-zero if the call raised or exited 2.
"""

import contextlib
import importlib
import io
import statistics
import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cli = importlib.import_module("gilbertsim.cli")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(sys.argv[1:])
    elapsed = time.perf_counter() - start
    import speed  # after the timing: numpy is loaded by then
    speed.kernel()  # the first run pays for its own warm-up
    print(repr(elapsed), repr(statistics.median(speed.probe() for _ in range(3))))
    return 0 if rc in (0, 1) else 1


if __name__ == "__main__":
    sys.exit(main())
