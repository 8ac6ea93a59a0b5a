"""Machine-speed calibration for the end-to-end times.

The machine this benchmark was tuned on is a shared 2-core VM whose speed
drifts by up to about 40% over tens of seconds, while the process keeps
its CPU (cpu_util stays near 1).  Measured raw, one workload's wall time
then spreads more between runs than a regression bound can tolerate.

So every pass also times a fixed kernel that uses no exchbound code (a
Monte Carlo style numpy block and a Fraction-keyed convolution, like the
two engines' hot loops) right after set-up and again after the workload.
End-to-end times are reported at the reference speed::

    t_reported = t_measured * REFERENCE_S / kernel_time

where ``kernel_time`` is the kernel's median time around that interval.
A change to the library cannot change the kernel, so it moves reported
and raw times by the same factor.  Per-layer times are scaled the same
way: set-up parts with the kernel after set-up, the layer cases with the
kernel after the workload and one after the cases.  Raw end-to-end times
are kept in the result file.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# about the kernel's median time on the tuning machine in its faster state
REFERENCE_S = 0.030


def _unit() -> float:
    import numpy as np  # here, so run.py can use at_reference without numpy

    start = time.perf_counter()
    gen = np.random.Generator(np.random.Philox(key=12345))
    pos = np.searchsorted(np.array([0.2, 0.5, 1.0]), gen.random((1 << 15, 20)))
    sums = np.array([0.0, 0.5, 1.0])[np.minimum(pos, 2)].sum(axis=1)
    int(np.count_nonzero(sums >= 12.0))
    law = {Fraction(0): 1.0}
    for _ in range(14):
        nxt: dict = {}
        for s, p in law.items():
            for x, w in ((Fraction(0), 0.2), (Fraction(1, 2), 0.3), (Fraction(1), 0.5)):
                nxt[s + x] = nxt.get(s + x, 0.0) + p * w
        law = nxt
    return time.perf_counter() - start


def kernel_time(units: int = 7) -> float:
    """Median time of the kernel, after one warm-up run."""
    _unit()
    return statistics.median(_unit() for _ in range(units))


def at_reference(seconds: float, kernel_s: float) -> float:
    return seconds * REFERENCE_S / kernel_s
