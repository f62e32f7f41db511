"""How fast the machine runs right now, sampled all through a pass.

The benchmark runs on shared cores whose speed swings by up to 2x, in phases
of a second to over a minute that hit every core at once.  A fixed
pure-Python loop slows with them, a little more than ffyb's own code does:
over three minutes of 5-second medians on a 2-core x86-64 VM, the loop's
time moved 1.9x, and the log of the time of ffyb calls (canonical forms,
subset sweeps, variety scans, brute-force counts) followed the log of the
loop's with slopes from 0.72 to 0.85.  So a timer signal runs the loop every
PERIOD_S while jobs run, and a job's time is reported as it would read where
the loop takes REF_MS:

    time = (raw time - loop time inside it) x (REF_MS / local loop time)^EXPONENT

where the local loop time is the median of the samples within WINDOW_S of
the job.  Raw times are kept next to these.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_MS = 0.37      # the loop's time in a fast phase of the tuning machine
EXPONENT = 0.8     # the slope above
PERIOD_S = 0.02    # one sample per 20 ms of wall time, about 2% of it
WINDOW_S = 0.1     # samples this close to a job set its local speed
MIN_SAMPLES = 5    # widen the window until it holds this many
_ROUNDS = 2000


def _loop(rounds: int = _ROUNDS) -> int:
    """Small-integer arithmetic, dict and list traffic and method calls, the
    mix ffyb's pure-Python field and matrix code is made of."""
    table: dict[int, int] = {}
    row = [0] * 16
    x = 1
    for i in range(rounds):
        x = (x * 31 + i) % 65521
        k = x & 255
        table[k] = table.get(k, 0) + 1
        row[i & 15] ^= x
    return x + len(table) + sum(row)


def sample_s() -> float:
    """One timing of the loop, in seconds."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(loop_ms: float) -> float:
    """The factor that brings a time measured while the loop took loop_ms to
    the reference speed."""
    return (REF_MS / loop_ms) ** EXPONENT


def burst_ms(n: int = 25) -> float:
    """The median of n back-to-back samples, in milliseconds."""
    return statistics.median(sample_s() for _ in range(n)) * 1000


class Sampler:
    """Samples the loop from SIGALRM every PERIOD_S while it is entered.

    The handler runs between bytecodes of whatever job is running, so long
    jobs are sampled during their run; busy_s() gives the sampling time
    inside an interval so that it can be taken off the job's time."""

    def __init__(self):
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self._busy: list[float] = [0.0]  # running sum of lengths

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.lengths.append(t1 - t0)
        self._busy.append(self._busy[-1] + t1 - t0)

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        while len(self.starts) < MIN_SAMPLES:  # a pass too short for the timer
            self._tick(None, None)
        return False

    def busy_s(self, t0: float, t1: float) -> float:
        """Sampling time of the samples that started within [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self._busy[hi] - self._busy[lo]

    def scale(self, t0: float, t1: float) -> float:
        """scale() of the median sample within WINDOW_S of [t0, t1]."""
        window = WINDOW_S
        while True:
            lo = bisect.bisect_left(self.starts, t0 - window)
            hi = bisect.bisect_right(self.starts, t1 + window)
            if hi - lo >= MIN_SAMPLES:
                break
            window *= 2
        return scale(statistics.median(self.lengths[lo:hi]) * 1000)
