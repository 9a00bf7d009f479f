"""How fast the host runs this process, from a probe timed as it runs.

The benchmark's cores are shared with other machines' work. That slows
this process by up to twice, in spells of milliseconds to minutes, and
does not show as lost CPU time, so a wall time alone swings from run to
run with the neighbours' load. ``HostSpeed`` times a fixed probe, work
like the library's own (small numpy steps and Python), once at its
start and then from a timer signal every PROBE_INTERVAL_S until it
stops. ``slowdown`` is the mean probe time over PROBE_REF_S; a wall
time over the slowdown is that time at the host speed where the probe
takes PROBE_REF_S.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

PROBE_INTERVAL_S = 0.02
# The probe's time on an uncontended core of the host the baseline was
# recorded on (Intel Xeon, 2 vCPUs). It only sets the speed that
# reference times are given at, and is fixed so that runs compare.
PROBE_REF_S = 300e-6
_X = np.linspace(0.1, 1.0, 12)


def _probe() -> float:
    """A fixed piece of work: a softmax over 12 numbers and a short
    Python loop, 50 times."""
    total = 0.0
    for _ in range(50):
        x = np.exp(_X - _X.max())
        x /= x.sum()
        total += float(x @ _X) + sum(range(50))
    return total


class HostSpeed:
    """Probe times from `start()` to `stop()`; one signal timer at a time."""

    def __init__(self):
        self.probe_s = []
        self.wall_s = 0.0
        self._started = None
        self._previous = None

    def _on_alarm(self, signum=None, frame=None):
        start = perf_counter()
        _probe()
        self.probe_s.append(perf_counter() - start)

    def start(self) -> "HostSpeed":
        self._started = perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def stop(self) -> None:
        """Stops the timer; calling it again does nothing."""
        if self._started is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = perf_counter() - self._started
        self._started = None

    def own_s(self, timed_s: float) -> float:
        """`timed_s` less the share of it the probes took, as they took
        of the time from start to stop."""
        return timed_s * (1.0 - math.fsum(self.probe_s) / self.wall_s)

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.probe_s) / PROBE_REF_S
