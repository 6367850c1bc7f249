"""Machine speed, measured by a fixed calibration kernel around and during jobs.

The 2-core sandbox this benchmark was built on shares its cores with
other tenants, and its speed drifts by up to 2x within a minute (a fixed
pure-Python loop took 125 ms to 221 ms per 5-second window).  Raw wall
times of identical runs then differ by more than any bound worth
checking.  Every time the benchmark reports is therefore scaled to a
reference speed:

    reported = measured * REFERENCE_S / (mean kernel time around and during the job)

The kernel is pure Python of the kind the package runs (Fraction
arithmetic, small tuples and dicts) and calls nothing from the package,
so no change to the package can move it.  A sample is taken before a job
when INTERVAL_S has passed since the last one, after every job of
LONG_JOB_S or more, and during jobs from a SIGALRM handler every
INTERVAL_S; the time the samples inside a job take is subtracted from it.
A workload whose jobs are child processes pins itself and its children
to one processor, so that the samples measure the processor the children
run on.  Such a workload may bring its own `Probe`: the kernel does not
track the start-up of a fresh interpreter, whose time grows less than
the kernel's when the machine is loaded.  Raw times are kept next to the
scaled ones in the result files.
"""

from __future__ import annotations

import signal
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# fastest best-of-3 kernel time seen on a 2-core x86-64 sandbox, Python 3.11.7
REFERENCE_S = 0.00033
INTERVAL_S = 0.05
# a job at least this long is followed by a sample at once, so that its
# window closes right at its end; shorter jobs share samples
LONG_JOB_S = 0.01


def kernel() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 80):
        acc += Fraction(i, i + 1) * Fraction(2, 3)
        table[(i, i % 7)] = (acc.numerator % 97, -i)
    return acc + len(table)


def sample() -> float:
    """Best of three kernel times, so a single interruption does not count."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        best = min(best, perf_counter() - t0)
    return best


@dataclass(frozen=True)
class Probe:
    """What a speed sample times, its time at the reference speed, and
    whether it may also run from a timer during a job."""

    sample: Callable[[], float]
    reference_s: float
    during_jobs: bool


KERNEL = Probe(sample=sample, reference_s=REFERENCE_S, during_jobs=True)


class SpeedLog:
    """Speed samples of one pass, in time order, and the jobs they bracket.

    Use as a context manager, which installs the sampling timer when the
    probe may run during jobs.
    """

    def __init__(self, probe: Probe = KERNEL):
        self.probe = probe
        self.samples: list[float] = []
        self._last = float("-inf")
        self._in_job = False
        self._paused = 0.0
        self._first = 0
        self._start = 0.0

    def __enter__(self):
        if self.probe.during_jobs:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.probe.during_jobs:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.take()
        return False

    def _tick(self, signum, frame):
        if self._in_job:
            t0 = perf_counter()
            self.take()
            self._paused += perf_counter() - t0

    def take(self) -> None:
        self.samples.append(self.probe.sample())
        self._last = perf_counter()

    def start_job(self) -> None:
        if not self.samples or perf_counter() - self._last >= INTERVAL_S:
            self.take()
        self._first = len(self.samples) - 1
        self._paused = 0.0
        self._in_job = True
        self._start = perf_counter()

    def end_job(self) -> tuple[tuple[int, int], float]:
        """The job's sample window, and its time without the sampling inside it.

        The window runs from the sample before the job to the first one
        after it, which a later job or the exit takes.
        """
        elapsed = perf_counter() - self._start
        self._in_job = False
        window = (self._first, len(self.samples))
        if elapsed >= LONG_JOB_S:
            self.take()
        return window, elapsed - self._paused

    def scale(self, window: tuple[int, int]) -> float:
        """The probe's reference time over its mean sample time in the window."""
        samples = self.samples[window[0]:window[1] + 1]
        return self.probe.reference_s * len(samples) / sum(samples)
