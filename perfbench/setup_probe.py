"""Set-up as a fresh process does it, for the benchmark's `setup_s`.

    python3 perfbench/setup_probe.py SEED DIR

Imports the package from `src/`, writes the seeded inputs into DIR and builds
their domains, then prints `time.monotonic()`.  The parent subtracts its own
clock reading from just before the spawn.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.setup(int(sys.argv[1]), Path(sys.argv[2]))
print(time.monotonic())
