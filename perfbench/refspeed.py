"""Machine speed, measured beside the work, and time in reference seconds.

The machine the benchmark runs on is a share of a busy host: its speed
changes by up to 1.5× every few seconds, and the share of time spent fast
drifts over minutes, so wall-clock throughput of the same code spread by
25–38% between runs.  The benchmark therefore runs a fixed reference
slice (small complex Hermitian ``eigh`` calls, products and scalar Python
work, the same kinds of work cptwb does) in the same thread every
``PERIOD_S`` seconds of timed work.  Each slice's time gives the speed of
the machine at that moment, relative to ``REF_SLICE_S``; the slice's own
time is taken out of the work's time.  Work time multiplied by the mean
speed over its slices is the time the work would take at the reference
speed ("reference seconds").  A slower program shows in full: the slices
do not run cptwb code, so no change to cptwb can move them.

In-process work is interrupted by ``SIGALRM``; the handler runs the slice
between two bytecodes of the main thread.  Work that waits on a child
process (the CLI workload) cannot be sliced that way, because the child
would keep running during the slice; there the slices run between
operations only (``interleave=False``).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds of timed work between two slices.
PERIOD_S = 0.08
#: Median time of one slice (300 in a row) on the reference machine: a
#: 2-vCPU "Intel Xeon Processor" VM, Python 3.11, numpy 2.4, OpenBLAS 0.3.31.
REF_SLICE_S = 0.016
#: Loop count of one slice.
SLICE_LOOPS = 90


def _matrices():
    rng = np.random.default_rng(20070813)
    mats = []
    for d in (3, 4, 9, 16):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mats.append(g + g.conj().T)
    return mats


_MATS = _matrices()


def reference_slice() -> float:
    """The fixed reference work; returns a value so nothing is skipped."""
    acc = 0.0
    for _ in range(SLICE_LOOPS):
        for m in _MATS:
            w, v = np.linalg.eigh(m)
            x = (v * w) @ v.conj().T
            acc += float(np.trace(x).real) + float(np.abs(w).sum() ** 1.5)
    return acc


class Clock:
    """Times calls with reference slices interleaved, and keeps the speeds.

    ``speeds`` holds ``REF_SLICE_S / slice time`` for every slice taken:
    1.0 is the reference machine, 2.0 twice as fast.
    """

    def __init__(self, interleave: bool = True):
        self.interleave = interleave
        self.speeds: list[float] = []
        self._armed = False
        self._remaining = PERIOD_S
        self._sliced = 0.0  # seconds spent in slices so far

    def now(self) -> float:
        """A clock in seconds that stands still while a slice runs."""
        return time.perf_counter() - self._sliced

    def sample(self) -> float:
        """Run one slice now; return its duration."""
        t = time.perf_counter()
        reference_slice()
        dt = time.perf_counter() - t
        self.speeds.append(REF_SLICE_S / dt)
        return dt

    def _on_alarm(self, signum, frame):
        if not self._armed:
            return
        self._sliced += self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def call(self, fn, *args):
        """Return ``(fn(*args), seconds)``; the seconds leave out the slices.

        The period carries over from one call to the next, so slices are
        spread evenly over the timed work, however it is cut into calls.
        """
        if self.interleave:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            self._armed = True
            signal.setitimer(signal.ITIMER_REAL, self._remaining)
        t = self.now()
        try:
            result = fn(*args)
        finally:
            if self.interleave:
                self._armed = False
                self._remaining = signal.setitimer(signal.ITIMER_REAL, 0)[0] or PERIOD_S
                signal.signal(signal.SIGALRM, previous)
            elapsed = self.now() - t
        return result, elapsed

    def speed(self) -> float:
        """Mean speed over the slices taken so far."""
        return statistics.fmean(self.speeds)
