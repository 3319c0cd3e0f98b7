"""Host speed: a fixed reference computation timed between the work.

The host the benchmark runs on is shared. Its throughput swings by up
to 2x for minutes at a time, in CPU time as much as in wall time, so a
whole run can land in a slow phase. The timed metrics are therefore
reported at a fixed *reference speed*: every timed stretch is paired
with :func:`reference` calls made right around it in the same thread,
and scaled by ``REFERENCE_S / (mean reference time)``. A slow phase
stretches the work and the reference alike, so the scaled time stays
put, while a change to the program moves the work alone. The reference
is the benchmark's own code; nothing the program does changes it.
"""

from __future__ import annotations

import time
from typing import List

import numpy

#: Seconds one :func:`reference` call takes on the baseline host (a
#: shared 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4) at a typical
#: moment, so that scaled seconds there read close to wall seconds.
REFERENCE_S = 0.05


def reference() -> float:
    """Seconds one fixed mix of interpreter and memory work takes now.

    The mix covers what the workloads spend their time on: integer
    loops, dict updates and string sorting in the interpreter, and
    fresh arrays (about 4 MB) that are filled, gathered from at
    scattered offsets, sorted and summed. The arrays live only during
    the call, so pool workers never inherit them.
    """
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    counts: dict = {}
    for i in range(80_000):
        key = i % 977
        counts[key] = counts.get(key, 0) + 1
    sorted([str(i) for i in range(30_000)])
    values = numpy.arange(400_000, dtype=numpy.float64)
    for step in (7_919, 104_729):
        picked = values[(numpy.arange(100_000) * step) % len(values)]
        numpy.sort(picked)
    values.sum()
    return time.perf_counter() - started


class Probe:
    """Reference samples taken around one timed stretch of work."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            self.samples.append(reference())

    def factor(self) -> float:
        """``REFERENCE_S`` over the mean reference time sampled."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
