"""A fixed reference loop that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host.  Other tenants move the
speed of this process by up to a factor of two within a minute: the same
extract operation on the same inputs took 2.3 s in one minute and 3.9 s a few
minutes later.  Timed after every operation, this loop tells a slow host from
a slow program.  ``run.py`` scales a run's operation times by
``(NOMINAL_S / r) ** ELASTICITY``, where ``r`` is the median of the run's
reference times, which gives them at the host speed where one pass of the
loop takes ``NOMINAL_S``.

The loop is the benchmark's own code and never calls the package, so a change
to the package cannot move it.  It makes short numpy calls on rows of 512
samples, the kind of call the package's feature levels and its SVM solver
make most.  Its data is 128 KB.
"""

from __future__ import annotations

import time

import numpy as np

# Median reference time on the host of the README's reference figures.
NOMINAL_S = 0.2
# How far an operation's time follows the reference's when the host changes
# speed: over sets of ten runs on the README's 2-vCPU host, the slope of log operation time
# against log reference time was 0.55-0.77 on extract-pcg and escalate-tall
# and 0.36-0.61 on default-refine.  The short loop swings more than the
# operations do, so scaling by the full ratio overshoots.
ELASTICITY = 0.6

_ROWS = np.random.default_rng(0).normal(size=(32, 512))


def reference_s() -> float:
    """Wall time of one pass of the fixed loop (about NOMINAL_S on an idle host)."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(700):
        for row in _ROWS:
            acc += float(np.abs(np.diff(row)).sum())
    return time.perf_counter() - start
