"""The machine's speed, sampled while a job runs.

On a shared host the CPU's speed drifts by up to a factor of two for
seconds to minutes at a time as other tenants' load comes and goes
(measured on a 2-vCPU Xeon VM: the same job took 1.8 s to 3.1 s in one
process).  A measured time is therefore scaled to a reference speed: a
short, fixed probe loop of Fraction and dict work, the kind wrep's kernels
do, runs before and after a job and, through a SIGALRM interval timer,
every ``PERIOD_S`` seconds while it runs.  The job's own time is its wall
time minus the time spent in probes, and its scaled time is that times
``REFERENCE_S`` times the mean of 1/probe time, so each interval counts at
the speed measured in it.
"""

import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

PERIOD_S = 0.05
PROBE_STEPS = 300
REFERENCE_S = 0.001  # the probe's time at the reference speed
clock = time.perf_counter


def probe():
    """Seconds the probe loop takes at the machine's current speed."""
    start = clock()
    acc = {}
    x = Fraction(1, 3)
    for i in range(PROBE_STEPS):
        k = i % 64
        acc[k] = acc.get(k, 0) + x * Fraction(i % 97 + 1, i % 89 + 2)
    return clock() - start


class SpeedProbe:
    """``with probe.sampling():`` samples the speed around and during the
    block; then ``spent`` is the time the probes took inside it and
    ``scale()`` the factor from the block's time to the reference speed."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = clock()
        self.samples.append(probe())
        self.spent += clock() - start

    @contextmanager
    def sampling(self):
        self.samples = [probe()]
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.samples.append(probe())

    def scale(self):
        return REFERENCE_S * statistics.mean(1 / p for p in self.samples)
