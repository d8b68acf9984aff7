"""The host's CPU speed, sampled while a run lasts, to take its drift out of times.

On a shared VM the speed of every kernel, pure Python and sparse matvecs
alike, drifts between a fast and a slow state, flipping within a second and
staying slow for up to minutes; a step can take twice as long in one state as
in the other.  A run's raw times then measure the host as much as the program.

``SpeedProbe`` times fixed work, a pure-Python loop and a few small numpy
matrix-vector products, from a SIGALRM handler every ``PERIOD_S`` seconds
while the run lasts, on the run's own thread.  The two parts stand for the
interpreter and the numpy call overhead that the steps spend their time in;
either alone tracked one workload's drift well and another's badly.  ``adjust``
turns the wall time of an interval into its time at reference speed: the
interval minus the probes that ran inside it, times ``REF_S`` over the mean
probe time within ``WINDOW_S`` of the interval.  A program that gets faster or
slower moves the adjusted time just as it moves the raw one; a host that gets
slower moves only the raw one.
"""

from __future__ import annotations

import signal
import time
from array import array
from bisect import bisect_left

import numpy as np

LOOP = 500             # pure-Python iterations per probe
MATVECS = 20           # 24 x 24 matrix-vector products per probe
PERIOD_S = 0.005       # one probe per 5 ms of wall time: about 1.8% of it
WINDOW_S = 0.01        # probes this close to an interval rate its speed
REF_S = 90e-6          # probe time at reference speed, near its median on a 2.1 GHz Xeon VM

_M = np.random.default_rng(0).random((24, 24))
_M /= _M.sum(axis=1, keepdims=True)     # row-stochastic: the vector stays all ones


class SpeedProbe:
    """Probe times, with their start times, while the probe is entered as a context."""

    def __init__(self):
        self.starts = array("d")
        self.times = array("d")
        self._previous = None

    def _tick(self, _signum, _frame):
        clock = time.perf_counter
        t0 = clock()
        s = 0
        for i in range(LOOP):
            s += i * i
        v = np.ones(24)
        for _ in range(MATVECS):
            v = _M @ v
        self.starts.append(t0)
        self.times.append(clock() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def adjust(self, a, b):
        """Seconds from perf_counter a to b, probes excluded, at reference speed."""
        starts, times = self.starts, self.times
        i, j = bisect_left(starts, a), bisect_left(starts, b)
        own = sum(times[i:j])
        lo, hi = bisect_left(starts, a - WINDOW_S), bisect_left(starts, b + WINDOW_S)
        if hi == lo:           # no probe near: take the nearest ones
            lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
        if hi == lo:
            return b - a
        return (b - a - own) * REF_S * (hi - lo) / sum(times[lo:hi])
