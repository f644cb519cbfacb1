"""A clock in reference seconds, steady across the host's speed states.

A shared host runs the same Python code at changing speeds: on the reference
host (2 vCPUs of a shared Xeon) a fixed loop swings by up to 1.9x while a run
goes on, in CPU time as much as in wall time, with states lasting from a
tenth of a second to over half a minute.  Wall seconds then measure the host
as much as the program.

``RefClock`` measures the host's speed alongside the program instead.  Every
``TICK_S`` wall seconds a timer signal interrupts the program, between two
bytecodes of the main thread, and runs ``kernel``, a fixed piece of pure
Python in the style of qtlab's own work (``Fraction`` arithmetic and
comparisons, small tuples, a sort), and times it.  Between two ticks the
clock advances by the wall time, scaled by ``REF_KERNEL_S`` over the median
of the last ``WINDOW`` kernel timings; the kernel's own time is left out.
States last far longer than a window, and the median ignores a single
interrupted timing.  A reading is
therefore the wall time the program would have taken with the kernel at its
reference speed, so a change that speeds up qtlab lowers it and a change of
host speed state does not.  ``REF_KERNEL_S`` is the kernel's duration in the
reference host's fast state, so reference seconds are about that state's wall
seconds.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

TICK_S = 0.01
REF_KERNEL_S = 0.0004
WINDOW = 5


def kernel() -> int:
    acc = Fraction(0)
    rows = []
    for i in range(1, 61):
        step = Fraction(i % 7 + 1, i % 11 + 2)
        acc += step
        if acc > 5:
            acc -= 5
        rows.append((acc, i % 3 == 0, -i))
    rows.sort()
    return len(rows)


class RefClock:
    """``now()`` reads reference seconds; ``start`` and ``stop`` arm and
    disarm the timer signal, and restore the previous handler."""

    def __init__(self):
        self.kernel_s = []  # every kernel duration measured, in wall seconds
        # (reference seconds at segment start, wall time it started, rate);
        # one tuple, replaced whole, so now() never mixes two ticks
        self._state = (0.0, time.perf_counter(), 1.0)
        self._previous = None
        self._busy = False

    def _measure(self) -> tuple:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.kernel_s.append(end - start)
        return start, end

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # the timer fired again while the kernel ran
            return
        self._busy = True
        try:
            ref, seg_start, rate = self._state
            start, end = self._measure()
            ref += (start - seg_start) * rate
            recent = sorted(self.kernel_s[-WINDOW:])
            self._state = (ref, end, REF_KERNEL_S / recent[len(recent) // 2])
        finally:
            self._busy = False

    def now(self) -> float:
        ref, seg_start, rate = self._state
        return ref + (time.perf_counter() - seg_start) * rate

    def start(self) -> "RefClock":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
