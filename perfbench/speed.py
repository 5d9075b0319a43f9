"""Machine-speed calibration for timings taken on a shared machine.

On a small shared machine the speed of identical pure-Python work drifts
by tens of percent within seconds, as other tenants come and go, so raw
wall times of the same code spread more than any useful regression bound.
A ``Meter`` therefore times a fixed calibration loop (independent of
zsindex, so no change to the package can move it) right before and after
a timed block and, while the block runs, every ``INTERVAL`` seconds of the
process's CPU time.  ``scaled`` turns a raw wall time into seconds at the
reference speed: raw * REFERENCE_S / (mean calibration time in the block).
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

REFERENCE_S = 0.002  # one calibration sample at the reference speed
INTERVAL = 0.1  # seconds of CPU time between samples inside a timed block


def _calibration_loop(n: int = 89, steps: int = 150) -> int:
    """Modular sums over small tuples: the same kind of work the sweeps do."""
    acc = 0
    seen: dict[tuple[int, ...], int] = {}
    for a in range(1, steps):
        terms = (a % n + 1, 3 * a % n + 1, 7 * a % n + 1, 11 * a % n + 1)
        for m in range(1, 12):
            acc += sum((m * t - 1) % n + 1 for t in terms)
        key = tuple(sorted(terms))
        seen[key] = seen.get(key, 0) + 1
    return acc + len(seen)


@dataclass
class Timing:
    raw: float = 0.0
    scaled: float = 0.0


class Meter:
    """Calibration samples of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def take(self) -> None:
        start = time.perf_counter()
        _calibration_loop()
        self.samples.append(time.perf_counter() - start)

    @contextmanager
    def timed(self):
        """Time the block; the yielded Timing is filled in when it ends."""
        timing = Timing()
        mark = len(self.samples)
        self.take()
        previous = signal.signal(signal.SIGVTALRM, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            raw = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)
            self.take()
        timing.raw = raw
        timing.scaled = raw * self.factor(mark)

    def factor(self, mark: int = 0) -> float:
        """Reference speed over the mean speed of the samples since ``mark``."""
        return REFERENCE_S / statistics.fmean(self.samples[mark:])
