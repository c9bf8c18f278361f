"""Host speed, sampled while the benchmark times the program.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter or more over minutes as neighbours come and go; wall and CPU time
of a pass drift with it.  :class:`HostProbe` measures the drift during each
timed region: every ``PERIOD_S`` a SIGALRM handler times a fixed
pure-Python loop of ``CHUNK`` iterations (a fraction of a millisecond) on
the benchmark's own thread, so the samples see the core the program runs
on, at the moments it runs.  ``slowdown`` is the median sample divided by
``REFERENCE_S``, the loop's time on a quiet host of the kind the benchmark
was defined on; a time divided by it is in reference-host seconds.

The probe's own cost, about 2% of a region, is inside every timed region
alike.  Interval timers are not inherited across ``fork``, so worker
processes never sample.
"""

from __future__ import annotations

import signal
import statistics
import time

CHUNK = 6000
PERIOD_S = 0.02
#: The loop's median on a quiet 2-core Xeon VM with CPython 3.11.
REFERENCE_S = 320e-6


def _loop() -> int:
    total = 0
    for i in range(CHUNK):
        total += i * i
    return total


class HostProbe:
    """Context manager sampling host speed over one timed region."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> HostProbe:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self._sample()  # a region shorter than one period

    def slowdown(self) -> float:
        """Median sample over ``REFERENCE_S``: above 1 on a busy host."""
        return statistics.median(self.samples) / REFERENCE_S
