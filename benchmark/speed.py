"""Timing in reference seconds, with the machine's speed factored out.

The benchmark machine's speed drifts by a factor of up to two within
seconds (other tenants' load; CPU time tracks wall time, so it is not
scheduling).  ``Phase`` times a block and, every ``PERIOD_S`` of wall
time, interrupts it with SIGALRM to time a fixed pure-Python probe loop.
Each stretch between probes is then scaled by ``REFERENCE_PROBE_S``
over the (median-smoothed) probe duration at its end, so the result is
the block's time on a machine running at the reference speed.  Probe
time is excluded; it costs about 1 % of the block.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
PROBE_LOOPS = 5000
#: probe duration on an idle core of the reference machine (the 5th
#: percentile of 3000 probes on a 2-core 2.0 GHz Xeon)
REFERENCE_PROBE_S = 3.0e-4
SMOOTHING = 2


def probe_loop() -> float:
    started = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return time.perf_counter() - started


class Phase:
    """``with Phase() as p: ...`` (or ``start()``/``stop()``), then
    ``p.wall_s`` and ``p.reference_s``."""

    def __init__(self):
        self.samples: list = []
        self.started = self.end = 0.0

    def _probe(self, signum, frame) -> None:
        started = time.perf_counter()
        self.samples.append((started, probe_loop()))

    def start(self) -> "Phase":
        signal.signal(signal.SIGALRM, self._probe)
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.end = time.perf_counter()
        self.samples.append((self.end, probe_loop()))  # speed at the close

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def probe_s(self) -> float:
        return sum(d for t, d in self.samples if t < self.end)

    @property
    def wall_s(self) -> float:
        return self.end - self.started - self.probe_s

    @property
    def reference_s(self) -> float:
        durations = [d for _, d in self.samples]
        smoothed = [statistics.median(durations[max(0, i - SMOOTHING):i + SMOOTHING + 1])
                    for i in range(len(durations))]
        total, previous = 0.0, self.started
        for (t, d), s in zip(self.samples, smoothed):
            total += (min(t, self.end) - previous) * REFERENCE_PROBE_S / s
            previous = t + d
        return total
