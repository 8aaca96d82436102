"""Set-up time of one workload in a fresh interpreter.

    python3 bench/setup_probe.py WORKLOAD SEED [tiny]

Prints two figures: the seconds from before importing fibertrace until the
first pass of the workload's inputs is generated and parsed, i.e. until
the first operation could be timed; and, measured right after, the
seconds of one call of the runner's reference_work (the fastest of
three), which stands for this interpreter's speed.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
bench = Path(__file__).resolve().parent
sys.path[:0] = [str(bench.parent / "src"), str(bench)]
import workloads  # noqa: E402  (imports fibertrace)

workloads.build(sys.argv[1], int(sys.argv[2]), tiny=sys.argv[3:] == ["tiny"])
setup = time.perf_counter() - start

import run  # noqa: E402

print(setup, min(run.reference_seconds() for _ in range(3)))
