"""A fixed pure-Python loop that gauges the machine's current speed.

run.py scales each child's times by the speed gauged in that child (see
NOTES.md), because a shared machine's speed drifts by more than the
benchmark's bounds within seconds.  The loop mixes float math, exact
rationals and dict updates, the operations ptdarboux spends its time on, and
calls nothing in ptdarboux, so a change to the package cannot move it.
"""
import math
import signal
import time
from fractions import Fraction

SAMPLE_PERIOD_S = 0.1


def _pass() -> None:
    acc = 0.0
    for i in range(1, 8000):
        acc += math.sin(i * 0.001) * math.cos(i * 0.002) / i
    total = Fraction(0)
    for i in range(1, 80):
        total += Fraction((-1) ** i, i * (i + 1))
    counts = {}
    for i in range(6000):
        counts[i % 977] = counts.get(i % 977, 0) + i


def gauge(passes: int) -> float:
    """Mean wall time of one pass of the loop, over `passes` passes."""
    start = time.perf_counter()
    for _ in range(passes):
        _pass()
    return (time.perf_counter() - start) / passes


class Sampler:
    """Gauges one pass every SAMPLE_PERIOD_S of wall time while the `with`
    block runs, from a SIGALRM handler, so a long call gets the speed of the
    time it ran.  `spent` is the handlers' own time, to be taken out of the
    block's time."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(gauge(1))
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
