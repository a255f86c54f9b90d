"""The speed probe that every timing of the benchmark is scaled by.

On a shared host, other tenants slow a process by 10-70% for seconds at
a time, and they slow this probe and the program alike.  ``Speedometer``
times one step of a request and takes the probe three times before the
step, every ``PERIOD_S`` during it (on SIGALRM; the probe's own time is
subtracted from the step) and three times after it.  The step's scaled
time is its time multiplied by ``NOMINAL_S`` over the median probe time.

This module imports only ``io`` and ``time``, which every interpreter
loads at start-up, and ``signal``, which causalbn does not import.  So a
fresh interpreter can use it before importing the program without
speeding that import up.
"""

import io
import signal
import time

#: the probe's time on an idle 2-vCPU Intel Xeon host; scaled timings are
#: relative to it
NOMINAL_S = 150e-6
#: how often the probe runs during a long step
PERIOD_S = 0.02


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    Dictionary updates plus joining and writing short strings, the two
    kinds of work that most of causalbn's time goes to.
    """
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(300):
        counts[i % 97] = counts.get(i % 97, 0) + i
    buf = io.StringIO()
    for i in range(60):
        buf.write(",".join(str(i + j) for j in range(5)) + "\n")
    return time.perf_counter() - start


class Speedometer:
    """``with Speedometer() as m: step()``, then ``m.elapsed`` and ``m.scaled``."""

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(probe())
        self._paused += time.perf_counter() - start

    def __enter__(self) -> "Speedometer":
        self._samples = [probe() for _ in range(3)]
        self._paused = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._samples += [probe() for _ in range(3)]
        self.elapsed = end - self._start - self._paused
        samples = sorted(self._samples)
        mid = len(samples) // 2
        median = (samples[mid] + samples[~mid]) / 2
        self.scaled = self.elapsed * NOMINAL_S / median
