"""Speed probe of the copbands benchmark: how fast is the processor right now?

The host this benchmark runs on is shared. Its speed drifts by up to 1.7x
over seconds to minutes, while a process's CPU time tracks its wall time
exactly: the slowdown is the processor's, not the scheduler's. Raw pass
times of the same code therefore spread by 30-50% between runs.

``SpeedProbe`` times a fixed kernel in the process doing the work, between
short segments of it, and scales every segment to a reference speed
(``metrics.at_reference_speed``). On coverage passes cut into 0.1 s
segments, log segment time and log kernel time correlate at 0.83. Over ten
coverage runs of 28 s each, the interquartile range of the run medians was
7% of their median for scaled pass times and 32% for unscaled ones.

The kernel is half numpy, half interpreter, like the program's replicates:
the Epanechnikov CDF of a logit-scale 33 x 2000 table written into
preallocated arrays (so the program's allocator state cannot reach it), and
a loop that builds small objects. It needs numpy only, which copbands
imports anyway, so a probe in a CLI process adds no import of its own. Each
measurement is the geometric mean of the median times of ``REPS`` calls of
each half, about 6 ms in all.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

GRID = 33
N = 2000
REPS = 9


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class SpeedProbe:
    """Cuts timed passes into segments and times the kernel between them.

    A probe window is one kernel measurement: ``(start, end, kernel_s)`` on
    the ``time.perf_counter`` clock, which is CLOCK_MONOTONIC and so shared
    with child processes. ``timed(fn)`` returns ``fn`` wrapped so that a
    call is one timed pass, with a window at each end; ``hook(fn)`` returns
    ``fn`` wrapped so that a call inside a timed pass adds a window once
    ``segment_s`` has passed since the last one; ``add`` takes windows that
    a child process measured. The segments of a pass are the gaps between
    its windows, so the kernel's own time is left out of the pass.
    """

    def __init__(self, segment_s):
        self.segment_s = segment_s
        rng = np.random.default_rng(20160818)
        self._pseudo = rng.random(N)
        knots = np.arange(1, GRID + 1) / (GRID + 1.0)
        self._grid = np.log(knots / (1.0 - knots))
        self._logit = np.empty(N)
        self._table = np.empty((GRID, N))
        self._cdf = np.empty((GRID, N))
        self._sums = np.empty(GRID)
        self._in_pass = False
        self.windows = []

    def _numpy_half(self):
        t, k, p = self._table, self._cdf, self._pseudo
        np.subtract(1.0, p, out=self._logit)
        np.divide(p, self._logit, out=self._logit)
        np.log(self._logit, out=self._logit)
        np.subtract(self._grid[:, None], self._logit[None, :], out=t)
        np.multiply(t, math.log(N), out=t)
        np.clip(t, -1.0, 1.0, out=t)
        np.multiply(t, t, out=k)
        np.multiply(k, -0.25, out=k)
        np.add(k, 0.75, out=k)
        np.multiply(k, t, out=k)
        np.add(k, 0.5, out=k)
        np.sum(k, axis=1, out=self._sums)

    @staticmethod
    def _interpreter_half():
        slots = {}
        for i in range(400):
            pair = _Pair(i, float(i))
            slots[i & 63] = pair.a + pair.b

    def measure(self):
        """One kernel time in seconds."""
        halves = []
        for half in (self._numpy_half, self._interpreter_half):
            times = []
            for _ in range(REPS):
                start = time.perf_counter()
                half()
                times.append(time.perf_counter() - start)
            halves.append(statistics.median(times))
        return math.sqrt(halves[0] * halves[1])

    def probe(self, start=None):
        """Add a window; ``start`` moves its beginning earlier, to leave out
        work done for the probe before the call."""
        if start is None:
            start = time.perf_counter()
        kernel_s = self.measure()
        self.windows.append((start, time.perf_counter(), kernel_s))

    def add(self, windows):
        self.windows.extend(tuple(w) for w in windows)

    def timed(self, fn):
        def timed_pass():
            # the window that ended the last pass also begins this one
            if self.windows:
                now = time.perf_counter()
                self.windows = [(now, now, self.windows[-1][2])]
            else:
                self.probe()
            self._in_pass = True
            try:
                return fn()
            finally:
                self._in_pass = False
                self.probe()

        return timed_pass

    def hook(self, fn):
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._in_pass and time.perf_counter() - self.windows[-1][1] >= self.segment_s:
                self.probe()
            return out

        return hooked

    def segments(self):
        """The last pass's segment times and the kernel times around them."""
        windows = sorted(self.windows)
        return ([b[0] - a[1] for a, b in zip(windows, windows[1:])],
                [w[2] for w in windows])


@contextlib.contextmanager
def probing(segment_s, start=None):
    """Probe this whole process from an interval timer, for a child process.

    Yields a probe with one window at entry, which begins at ``start`` if
    given; the timer adds one every ``segment_s`` seconds of wall time, and
    one more is added at exit. The timer's signal is handled between
    bytecodes, so a long native call ends a segment late, not early.
    """
    if start is None:
        start = time.perf_counter()
    probe = SpeedProbe(segment_s)
    probe.measure()  # a fresh process's first kernel runs are slow
    probe.probe(start)
    signal.signal(signal.SIGALRM, lambda signum, frame: probe.probe())
    signal.setitimer(signal.ITIMER_REAL, segment_s, segment_s)
    try:
        yield probe
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        probe.probe()
