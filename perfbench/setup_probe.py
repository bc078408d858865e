"""Time one workload's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds from just before ``import mdiw`` to the moment the
workload's decompositions and ensembles exist.  run.py starts this script
several times and reports the median as ``setup_s``.
"""

import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

t0 = time.perf_counter()
import mdiw  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
