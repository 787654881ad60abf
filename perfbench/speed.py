"""Machine-speed calibration for the end-to-end times.

The 2-core machine this benchmark was built on has phases, lasting from
seconds to whole runs, in which the same code runs up to half again
slower. In one set of eight 20-second small-corpus runs, `solve_s` had a
quartile spread of 0.37 of its median. Each round therefore also times
this fixed kernel between operations, and every operation time is scaled
by the round's speed factor:

    reference time = wall time x REFERENCE_S / median(kernel times of the round)

Scaled by a slightly shorter kernel of the same kind, the same eight
runs spread 0.06; ten runs per workload of this kernel spread at most
0.113. The kernel is the benchmark's own code: an interpreter loop and
small numpy calls, the mix of napx's per-row loops. It does not touch
napx, so a change to napx moves the scaled times and a change of machine
speed mostly cancels.
``REFERENCE_S`` is the kernel's median time inside a pass on that
machine, so there scaled and wall times agree at the machine's usual
speed.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.0077

# at most this long between two kernel samples inside a round
INTERVAL_S = 0.5

_ROWS = np.random.default_rng(12345).random((64, 6000))


def kernel() -> float:
    """Run the calibration kernel once; returns its wall time."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(30_000):
        acc += i * i % 7
        table[i & 255] = acc
    for i in range(600):
        row = _ROWS[i & 63]
        acc += int(np.argmax(row)) + int(np.count_nonzero((row > 0.5) & (row < 0.6)))
    return perf_counter() - start


class Gauge:
    """Kernel samples taken during one round."""

    def __init__(self):
        self.samples = [kernel()]
        self._last = perf_counter()

    def tick(self) -> None:
        """Sample the kernel if the last sample is older than INTERVAL_S."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.samples.append(kernel())
            self._last = perf_counter()

    def factor(self) -> float:
        """Scale from this round's wall times to reference times."""
        self.samples.append(kernel())
        return REFERENCE_S / statistics.median(self.samples)
