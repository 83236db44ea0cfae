"""Machine speed, sampled around and inside the timed segments of a run.

On a shared machine the speed of a core can nearly halve, for a fraction
of a second or for minutes, while the program does the same work.  So
every timed segment (the set-up, one verdict of a report workload, one
pass of tangles) is scaled by ``REFERENCE_S`` over the median time that a
fixed pure-Python loop of Fraction and dict arithmetic, like the program's
own, takes right before and right after it and, from a timer signal, every
``INTERVAL`` seconds inside it.  The time spent in the loop is taken out of
the segment.  ``REFERENCE_S`` is the loop's time on the reference machine
when uncontended, so scaled times are seconds at the reference speed.  The
raw wall times are reported beside them.

Work that is less bound by the interpreter than the loop slows less: when
the loop ran 1.87x slower, the structure workload, with its large dicts and
numpy arrays, ran 1.34x slower.  Such a workload scales by the loop's ratio
raised to its ``speed_share`` (0.5 for structure: 1.34 ~ 1.87**0.46).
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

LOOP = 2000
INTERVAL = 0.25
# the loop's seconds on a 2-core x86 container running Python 3.11, uncontended
REFERENCE_S = 0.0100


def loop_seconds() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, LOOP):
        total += Fraction(i % 97 + 1, i % 13 + 2) * Fraction(3, 7)
        counts[i % 101] = counts.get(i % 101, 0) + i
    return time.perf_counter() - start


class Speed:
    """Loop times, one when created and then around and inside segments.

    ``ticks=False`` leaves out the samples inside segments, so that a
    traced run's spans hold only the program's work.
    """

    def __init__(self, ticks: bool = True):
        self.busy = False
        self.samples: list[float] = []
        loop_seconds()  # a fresh process runs the loop slowly the first time
        self._take()
        self.first = 0
        self.sampling = 0.0
        self.started = 0.0
        if ticks:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def close(self) -> None:
        """Stop the timer: a signal after the handler is gone ends the process."""
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _take(self) -> float:
        self.busy = True
        try:
            self.samples.append(loop_seconds())
        finally:
            self.busy = False
        return self.samples[-1]

    def _tick(self, signum, frame) -> None:
        if not self.busy:
            self.sampling += self._take()

    def start(self) -> None:
        self.first = len(self.samples) - 1
        self.sampling = 0.0
        self.started = time.perf_counter()

    def stop(self, share: float = 1.0) -> tuple[float, float]:
        """(wall seconds since ``start`` without the sampling, the same at the
        reference speed).

        ``share`` is how much of the loop's slowdown the segment's work
        follows, as an exponent: 1 when the work is like the loop's.
        """
        seconds = time.perf_counter() - self.started - self.sampling
        self._take()
        factor = REFERENCE_S / statistics.median(self.samples[self.first:])
        return seconds, seconds * factor**share
