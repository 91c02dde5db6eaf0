"""Calibrated timing: wall time corrected for the host's drifting speed.

On a shared host, the speed of one core drifts: for spells of seconds, all
code on it runs up to about 2x slower, and CPU time slows with wall time, so
it is slower execution, not waiting.  A fixed pure-Python reference routine
timed right next to the program slows in step with it.  Timed alternately
with ``suq2.parse(...).adjoint()`` for two minutes, the program's time
varied by 23% (coefficient of variation over three-second windows) and its
ratio to the reference by 5%.

:class:`SpeedSampler` times :func:`reference` from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall time while the program runs.  :meth:`SpeedSampler.calibrate`
turns a measured interval into *calibrated seconds*: every stretch of program
time between two samples is scaled by ``REF_S / r``, where ``r`` is the
running median of the nearby reference times and ``REF_S`` is a fixed
constant, close to the reference's time on a core running at full speed.
Time spent in the reference itself is left out.  A calibrated second is thus
a second at full speed, the same for every commit measured with the same
``REF_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02  # one sample per 20 ms of wall time, about 1% overhead
SMOOTH = 5  # samples in the running median; spells last seconds, so ~0.1 s is fine
# reference() takes about 195-240 us at full speed on a 2-vCPU Intel Xeon
# (Sapphire Rapids) KVM guest with Python 3.11.  Any fixed value works; this
# one makes a calibrated second close to a wall-clock second at full speed.
REF_S = 200e-6

_N = 12
_KEYS = tuple(tuple((i + j) % (2 * _N) for j in range(_N)) for i in range(_N))
_COEFFS = tuple(complex(1 + i % 7, 1 + (3 * i) % 8) for i in range(_N))
_OUT = {}


def wall():
    """The wall clock shared by the benchmark's processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference():
    """A fixed product of two dense polynomials, accumulated into a dict.

    It does the kind of work ``suq2`` arithmetic does, dict lookups and
    stores with complex multiply-adds, and it slows with the program: timed
    alternately with ``parse(...).adjoint()`` over two minutes, its ratio to
    the program did not depend on the host's speed, while a pure integer loop
    corrected only about three quarters of each slowdown.  It reuses one
    dict and precomputed keys, so it creates no container objects and never
    moves the program's garbage collection.
    """
    out = _OUT
    for _ in range(12):
        out.clear()
        for i in range(_N):
            c, row = _COEFFS[i], _KEYS[i]
            for j in range(_N):
                k = row[j]
                out[k] = out.get(k, 0) + c * _COEFFS[j]
    return len(out)


class SpeedSampler:
    """Samples the host's speed while the program runs; see the module docstring."""

    def __init__(self):
        self.ticks = []  # (wall_start, wall_end, cpu_start, cpu_end) of each reference run
        self._starts = []
        self._segments = []  # (wall_start, wall_end, reference_s) of the program between ticks

    def _tick(self, signum=None, frame=None):
        w0, c0 = wall(), time.process_time()
        reference()
        self.ticks.append((w0, wall(), c0, time.process_time()))

    def start(self):
        reference()  # the first call pays for compiling the loop
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        self._index()

    def _index(self):
        ref = [w1 - w0 for w0, w1, _, _ in self.ticks]
        half = SMOOTH // 2
        smooth = [statistics.median(ref[max(0, k - half):k + half + 1]) for k in range(len(ref))]
        self._segments = [
            (self.ticks[k][1], self.ticks[k + 1][0], (smooth[k] + smooth[k + 1]) / 2)
            for k in range(len(self.ticks) - 1)
        ]
        self._starts = [a for a, _, _ in self._segments]

    def calibrate(self, w_start, w_end, c_start=None, c_end=None):
        """Calibrated (wall, cpu, speed factor) of the program between two clock readings.

        The factor is the time-weighted ``REF_S / r`` over the sampled part of
        the interval; an interval that starts before the first sample, like
        set-up, is scaled by the factor of its sampled part.  ``cpu`` is None
        when no CPU readings are given.  Call after :meth:`stop`, for an
        interval that ends before it.
        """
        covered = scaled = 0.0
        first = max(0, bisect.bisect_right(self._starts, w_start) - 1)
        for a, b, r in self._segments[first:]:
            if a >= w_end:
                break
            span = min(b, w_end) - max(a, w_start)
            if span > 0:
                covered += span
                scaled += span * REF_S / r
        factor = scaled / covered
        tick_wall = tick_cpu = 0.0
        for w0, w1, c0, c1 in self.ticks[first:]:
            if w0 >= w_end:
                break
            if w0 >= w_start and w1 <= w_end:
                tick_wall += w1 - w0
                tick_cpu += c1 - c0
        cal_wall = (w_end - w_start - tick_wall) * factor
        cal_cpu = None if c_start is None else (c_end - c_start - tick_cpu) * factor
        return cal_wall, cal_cpu, factor
