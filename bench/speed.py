"""CPU speed probe: rescales measured times to a fixed reference speed.

The host lends our vCPU's core to other tenants, which slows pure computation
by up to ~40% for seconds at a time. A fixed loop timed every PROBE_EVERY_S on
the program's CPU measures that slowdown, and times are rescaled to the speed
at which the loop takes REF_PROBE_S. ``validate_rescale.py`` checks that a
known extra cost in the program comes through the rescale in full.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PROBE_LOOPS = 20_000
PROBE_EVERY_S = 0.1
REF_PROBE_S = 1e-3


def probe_loop(n: int = PROBE_LOOPS) -> float:
    t = time.perf_counter()
    s = 0
    for i in range(n):
        s += i
    return time.perf_counter() - t


class SpeedProbe(threading.Thread):
    """Times probe_loop every PROBE_EVERY_S, pinned to the program's CPU."""

    def __init__(self, cpu: int):
        super().__init__(daemon=True)
        self.cpu = cpu
        self.samples: list[float] = []
        self.done = threading.Event()

    def run(self) -> None:
        os.sched_setaffinity(0, {self.cpu})  # this thread only
        self.samples.append(probe_loop())
        while not self.done.wait(PROBE_EVERY_S):
            self.samples.append(probe_loop())

    def scale(self) -> float:
        """Factor that turns a time measured meanwhile into reference-speed time.

        Work done at reference speed is the time integral of the probe's
        speed, REF_PROBE_S / probe time, so the factor is its mean over the
        evenly spaced samples. On eight identical tdrive_week repetitions (a
        2-vCPU Xeon VM) this cut the spread (IQR / median) of wall time from
        0.17 raw to 0.05; the mean probe time gave 0.06, the median 0.10.
        """
        return statistics.fmean(REF_PROBE_S / p for p in self.samples)
