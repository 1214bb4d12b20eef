"""Host-speed probe: a fixed kernel timed between the commands of a run.

On a shared 2-vCPU Xeon host, where this benchmark was tuned, the speed
switches between a fast state and one up to twice as slow, for stretches of
seconds to minutes.  Raw wall times of the same command then spread 17-28%
(quartile distance over median) between 20-30 s windows, wider than any
bound the benchmark may set.  The kernel below slows with the host, though
more steeply than the CLI commands: over ten ``ref-d1`` runs whose median
probe readings ranged from 16 to 28 ms, each command's median wall time grew
as the probe reading to the power 0.6-0.76 (correlations 0.87-0.97), and
dividing by the probe outright left the commands 8-16% faster in slow
stretches than in fast ones.  So each command's wall time is scaled by the probe readings taken just
before and after it, to the power ``ELASTICITY``:

    normalized = wall * (NOMINAL_S / mean(probe before, probe after))**ELASTICITY

an estimate of the command's time on a host where the probe takes
``NOMINAL_S``.  The per-run medians of normalized samples spread 6-12% over
those runs, against 5-36% for the raw ones.  The probe is the benchmark's own
code and never calls the program, so a change to the program moves
normalized times exactly as it moves wall times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The probe's time on that host in its fast state.
NOMINAL_S = 0.014
#: How steeply command times follow the probe, fitted as described above.
ELASTICITY = 2.0 / 3.0
REPEATS = 5

_DATA = np.random.default_rng(20240414).random(200_000)


def _kernel():
    """Interpreter loop, sort, complex exponentials and a fresh 32 MB array
    (page faults and memory writes): the program's mix."""
    s = 0.0
    for i in range(20_000):
        s += i * 0.5
    np.sort(_DATA)
    fresh = np.ones(4_000_000)
    fresh *= 2.0
    return s + float(np.exp(3j * _DATA).sum().real) + float(fresh.sum())


def reading():
    """Median seconds of ``REPEATS`` runs of the kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Probe:
    """Probe readings taken between commands, and the walls they scale."""

    def __init__(self):
        self.readings = [reading()]

    def normalize(self, wall):
        """Scale the wall time of the command that just ended."""
        self.readings.append(reading())
        speed = NOMINAL_S / (0.5 * (self.readings[-2] + self.readings[-1]))
        return wall * speed ** ELASTICITY
