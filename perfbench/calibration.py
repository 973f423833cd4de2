"""Machine-speed calibration for every time the benchmark reports.

Machines of this class (a 2-core VM sharing its host) drift in speed by
20-40% from one second to the next and between minutes, which swamps
run-to-run comparisons.  While a run sets up and measures, a timer
signal interrupts it every CAL_EVERY_S to time a fixed loop of
pure-Python integer work, so the samples spread evenly over long
operations as well as short ones.  `now()` is a clock that skips those
pauses, and `scale()` turns its times into times at the reference speed,
where the loop takes CAL_REF_S:

    time * (CAL_REF_S / median(samples)) ** CAL_EXPONENT

The program's times move less than the loop's: over 100 s of alternating
samples on a 2-core x86 VM, log(operation time) against log(loop time) had slope
0.71-0.79 for a genus-6 search and for a block of analyze requests, and
CAL_EXPONENT is that slope.  CAL_REF_S and CAL_EXPONENT are fixed;
changing either rescales every reported time.
"""

from __future__ import annotations

import signal
import statistics
import time

CAL_LOOPS = 20000
CAL_REF_S = 0.0045
CAL_EVERY_S = 0.5
CAL_EXPONENT = 0.75


def calibration_loop() -> float:
    """Seconds the calibration loop takes now (best of three)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        x = 1
        for _ in range(CAL_LOOPS):
            x = (x * 1103515245 + 12345) % 2305843009213693951
        best = min(best, time.perf_counter() - t0)
    return best


class Calibrator:
    """Context manager: samples the calibration loop from SIGALRM."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum=None, frame=None):
        if self._busy:  # the timer fired during sample(): one is enough
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def now(self) -> float:
        """perf_counter minus the time spent calibrating."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:  # no calibration ran in between
                return t - spent

    def sample(self):
        """Take one sample now, outside the timer's schedule."""
        self._tick()

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """Reference-speed factor from samples[start:stop]."""
        return (CAL_REF_S / statistics.median(self.samples[start:stop])) ** CAL_EXPONENT
