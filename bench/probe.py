"""The speed probe that runs beside every untraced sample (child.py).

The vCPUs of a shared host change speed by up to half within seconds and
independently of each other.  ``Probe`` times a fixed piece of work from a
SIGALRM handler every PROBE_EVERY_S seconds while the program runs, so it
samples the speed of the very CPU and moments the call runs on; run.py scales
the call's time by the probe's mean time.  A setup sample is too short for
the timer, so it runs ``probe_mean`` right after its import instead.
"""

import signal
import time
from fractions import Fraction

PROBE_EVERY_S = 0.1


def probe_work():
    """A fixed piece of Fraction and dict arithmetic, about 2 ms of work, the
    kind of work the program's coefficient arithmetic does."""
    acc = {}
    for i in range(1, 300):
        key = (i % 5, i % 3)
        acc[key] = acc.get(key, 0) + Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
    return acc


def probe_mean(count):
    """Mean time of ``count`` runs of ``probe_work``."""
    t0 = time.perf_counter()
    for _ in range(count):
        probe_work()
    return (time.perf_counter() - t0) / count


class Probe:
    """Times ``probe_work`` from a SIGALRM handler inside a ``with`` block;
    ``result`` then holds the probes' count, their total time (to subtract
    from the block's) and their mean time."""

    def __init__(self):
        self.times = []

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        probe_work()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        spent = sum(self.times)
        if len(self.times) < 5:  # a call too short for the timer
            for _ in range(5 - len(self.times)):
                self._tick(None, None)
        self.result = {
            "probes": len(self.times),
            "probe_spent_s": spent,
            "probe_mean_s": sum(self.times) / len(self.times),
        }
