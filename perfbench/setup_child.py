"""Time one benchmark set-up in a fresh interpreter.

A set-up is importing the package, generating the seeded inputs and writing
any on-disk dataset.  A fresh process is the only way to pay the import again,
so ``run.py`` starts this script a few times and reports the median.

Usage: python3 perfbench/setup_child.py <workload> <seed> <directory>
Prints the set-up time in seconds.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports widefeat, numpy and scipy)

workloads.prepare(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
print(time.perf_counter() - START)
