"""Calibrated time: operation times scaled to the machine's speed.

The benchmark shares its cores with other tenants of the machine, whose
load changes the speed of the same code by tens of percent for minutes at
a time. To keep runs comparable, a SIGALRM timer runs a fixed calibration
loop every INTERVAL seconds in this process and records how long it took.
An operation's calibrated time is its own time (calibration runs taken
during it subtracted), multiplied by the mean of REFERENCE_S over the loop
time of each sample around it, the highest and lowest fifth left out. A
mean, not a median, because over a long operation the machine's speed can
change part of the way through. A calibrated second is a second on a machine where the loop
takes REFERENCE_S, which is about its median time on the 2-core Xeon VM
the benchmark was defined on, under that machine's usual load.

The loop is pure interpreter work, as most of notegrid's time is. Run
round-robin after and during label-study, cli-roundtrip, small-matmul and
idle operations on that VM, its median time differed by at most 4% between
them, so the calibration does not depend on what the program is doing.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.1
REFERENCE_S = 2.0e-3
WINDOW = 0.5  # seconds before an operation whose samples also count


def _loop() -> float:
    acc = 0.0
    table = {}
    for i in range(8000):
        acc += (i * 0.5) // 3
        table[i & 255] = acc
    return acc


class Sampler:
    """Times the calibration loop from a SIGALRM timer while entered."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, wall, cpu)

    def _sample(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        _loop()
        self.samples.append((w0, time.perf_counter() - w0, time.process_time() - c0))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrate(self, w0: float, w1: float, c0: float, c1: float) -> tuple[float, float, float]:
        """Calibrated (wall, cpu) seconds of an interval, and the raw wall
        seconds with the calibration runs inside it taken out."""
        samples = self.samples[:]
        key = lambda s: s[0]  # noqa: E731
        i = bisect.bisect_left(samples, w0, key=key)
        j = bisect.bisect_left(samples, w1, key=key)
        inside = samples[i:j]
        around = samples[bisect.bisect_left(samples, w0 - WINDOW, key=key):j] or samples[-1:]
        ratios = sorted(REFERENCE_S / s[1] for s in around)
        cut = len(ratios) // 5
        factor = statistics.fmean(ratios[cut:len(ratios) - cut])
        wall = w1 - w0 - sum(s[1] for s in inside)
        cpu = c1 - c0 - sum(s[2] for s in inside)
        return wall * factor, cpu * factor, wall
