"""Correct job times for the host's CPU speed, measured while each job runs.

On a shared host the speed of identical interpreter work drifts by 1.5x
and more, in episodes from under a second to minutes, as other tenants load
the physical cores. A job's wall time and its CPU time drift together, so
neither separates the program's speed from the host's.

So the benchmark pins itself and its jobs to one CPU, and while a job runs a
thread of the benchmark wakes every PROBE_INTERVAL_S and times a fixed piece
of interpreter work (tuples and dict lookups, like the jobs' own) on that
CPU. The job's slowdown is the mean probe time over PROBE_REF_S, where probe
times above twice the median are dropped: those probes were preempted. A
job's corrected time is its wall time divided by its slowdown, that is, its
wall time at the reference speed. The probes take about 2% of the CPU while
a job runs; that share is the same on every run.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PROBE_INTERVAL_S = 0.04
PROBE_REF_S = 0.0006  # one probe's time on a quiet core of a 2-core Xeon VM


def pin_to_one_cpu() -> int:
    """Pin this process, its threads and the children it starts to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe_once() -> float:
    start = time.perf_counter()
    counts: dict = {}
    for i in range(1500):
        key = (i & 63, i >> 6, i % 7)
        counts[key] = counts.get(key[1:], 0) + len(key)
    return time.perf_counter() - start


class SpeedProbe:
    """Probe the CPU speed from entering the `with` block until leaving it."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append(probe_once())
            if self._done.wait(PROBE_INTERVAL_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()

    def slowdown(self) -> float:
        median = statistics.median(self.samples)
        return statistics.mean(s for s in self.samples if s <= 2 * median) / PROBE_REF_S
