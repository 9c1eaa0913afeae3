"""Timing work at a reference machine speed.

On a shared host the speed a process gets drifts by tens of percent within a
second (other tenants, frequency scaling), for every kind of work alike.  A
short fixed probe measures that speed: `Meter` runs one before and after each
timed interval and, when sampling, one every SAMPLE_INTERVAL_S inside it from
a SIGALRM handler, between bytecodes of the main thread.  The interval's wall
time, less the probes run inside it, is rescaled by the mean probe slowdown to
the speed at which the probe takes its reference time.  A change to the
package moves the timed interval, never the probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import Any, Callable

import numpy as np

SAMPLE_INTERVAL_S = 0.05
# Probe of `rounds` units; one unit takes PROBE_UNIT_S on the reference
# machine (2 CPUs, x86_64, Python 3.11) in its common state.
PROBE_UNIT_S = 0.001
EDGE_ROUNDS = 4  # before and after an interval
SAMPLE_ROUNDS = 1  # inside it
_GRID = np.linspace(0.0, 1.0, 64)


def probe_seconds(rounds: int) -> float:
    """Time of a fixed mix of small numpy calls and Fraction sums, the two
    kinds of work the package does."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(100 * rounds):
        acc += float(np.dot(np.exp(-1j * _GRID * i), _GRID).real)
    total = Fraction(0)
    for k in range(1, 60 * rounds):
        total += Fraction(1, k)
    return time.perf_counter() - start


class Meter:
    """Times callables in wall seconds and in seconds at the reference speed."""

    def __init__(self, sampling: bool = True) -> None:
        self.sampling = sampling
        self._edge = self._slowdown(EDGE_ROUNDS)
        self._inside: list[float] = []
        self._spent = 0.0
        if sampling:
            # Left installed: a SIGALRM still pending when the timer stops
            # must find this handler, not the default one that would kill
            # the process.
            signal.signal(signal.SIGALRM, self._on_alarm)

    @staticmethod
    def _slowdown(rounds: int) -> float:
        return probe_seconds(rounds) / (rounds * PROBE_UNIT_S)

    def _on_alarm(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self._inside.append(self._slowdown(SAMPLE_ROUNDS))
        self._spent += time.perf_counter() - start

    def time(self, run: Callable[[], Any]) -> tuple[float, float, Any]:
        """(wall seconds, reference seconds, result) of `run()`; exceptions
        propagate after the timer is stopped."""
        self._inside, self._spent = [], 0.0
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = run()
        finally:
            end = time.perf_counter()
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
        wall = end - start - self._spent
        before, self._edge = self._edge, self._slowdown(EDGE_ROUNDS)
        slowdown = statistics.fmean([before, self._edge] + self._inside)
        return wall, wall / slowdown, result


class WallClock:
    """A meter that runs no probes, for work whose time is not reported."""

    def time(self, run: Callable[[], Any]) -> tuple[float, float, Any]:
        start = time.perf_counter()
        result = run()
        wall = time.perf_counter() - start
        return wall, wall, result
