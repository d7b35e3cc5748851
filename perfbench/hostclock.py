"""A clock that runs at a fixed reference host speed.

The benchmark's host is a few cores of a shared machine whose speed changes
by up to 1.6x in phases of seconds to minutes; CPU time slows with wall time,
so the slowdown is in the hardware, not in scheduling.  A run of 15 s cannot
average such phases out, so raw wall times of the same code spread by a
quarter between runs.

``HostClock`` measures the host's speed while a workload runs: a timer signal
interrupts the run every ``SAMPLE_S`` seconds and times ``kernel``, a fixed piece of pure-Python work made of the same kind of
operations as the library (tuples, sets, small-integer arithmetic) that never
calls the library.  ``now()`` advances by wall time scaled by
``KERNEL_REF_S / recent kernel time``, so it reads seconds of the reference
host, and the time spent in the signal handler itself is left out.  On a
steady host it is a wall clock; when the host slows down, the library and the
kernel slow down together and it does not.  A change to the library moves
the clock's readings exactly as it moves wall time.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

import reference as ref

# Seconds ``kernel`` takes on the reference host: the 2-vCPU host the
# baseline was taken on, in its fast phase, with Python 3.11.
KERNEL_REF_S = 0.00086
SAMPLE_S = 0.1
# The speed is the median of the last few samples: a single sample can read
# several times too slow when the process is preempted during it, while the
# host's phases last seconds.
WINDOW = 5

_draw = random.Random("hostclock/kernel")
_TABLEAUX = [ref.random_tableau(_draw, 14, _draw.randint(1, 7)) for _ in range(40)]


def kernel() -> int:
    """Fixed work on reference code only, about 1 ms."""
    total = 0
    for col1, col2 in _TABLEAUX:
        pairs = ref.greedy_pairs(col1, col2)
        total += ref.dimension(14, pairs) + sum(ref.rank_cells(14, pairs))
        total += len(ref.involution_text(ref.reflect(14, pairs)))
    return total


def kernel_time() -> float:
    """Seconds a call of ``kernel`` takes right after a first, untimed one.

    The first call brings the kernel's code and data back into the CPU's
    caches, so the timed one does not depend on how much of them the work
    it interrupted had taken.  The collector is held off meanwhile.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_scale(repeats: int = 5) -> float:
    """Reference seconds per wall second now: the median of a few kernel calls."""
    return KERNEL_REF_S / statistics.median(kernel_time() for _ in range(repeats))


def median_speed(kernel_s: list[float]) -> float:
    """Reference seconds per wall second over a run's kernel samples."""
    return KERNEL_REF_S / statistics.median(kernel_s) if kernel_s else speed_scale()


class HostClock:
    """Seconds at reference host speed, sampled by ``SIGALRM`` while started."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []  # every sampled kernel time
        self._scale = speed_scale()
        self._mark = time.perf_counter()
        self._reading = 0.0  # reference seconds at ``_mark``
        self._generation = 0
        self._running = False

    def now(self) -> float:
        while True:
            generation = self._generation
            value = self._reading + (time.perf_counter() - self._mark) * self._scale
            if generation == self._generation:  # no sample landed while reading
                return value

    def start(self) -> None:
        self._mark = time.perf_counter()
        self._running = True
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        # The handler stays installed: a signal already pending when the
        # timer stops then lands in it and is dropped, instead of meeting
        # the default action, which ends the process.
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._running = False

    def _sample(self, signum, frame) -> None:
        if not self._running:
            return
        self._reading += (time.perf_counter() - self._mark) * self._scale
        self.kernel_s.append(kernel_time())
        self._scale = KERNEL_REF_S / statistics.median(self.kernel_s[-WINDOW:])
        self._mark = time.perf_counter()
        self._generation += 1
