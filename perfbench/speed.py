"""Host-speed reference for the benchmark's timings.

On a shared host the speed at which this process executes can swing by more
than half over tens of seconds, longer than one run, so medians within a
run do not remove it. The benchmark therefore times a fixed stdlib-only
kernel between its measurements (in thread CPU time) and scales every
timing by

    REFERENCE_S / (median kernel time near the measurement)

which reports it at the speed where the kernel takes ``REFERENCE_S``. The
kernel uses the same kinds of work as depscope (JSON, dicts, tuples, small
frozen objects, sorting) and never calls depscope, so no change to depscope
moves it. Raw timings are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import json
import statistics
import time
from dataclasses import dataclass

#: kernel time that defines the reference speed (seconds)
REFERENCE_S = 0.006
#: kernel samples used on each side of a measurement
NEAREST = 10
#: kernel samples taken before and after a subprocess run
BURST = 30

_DOC = json.dumps([{"k": i, "v": [f"g{j}.a{i % 13}" for j in range(20)], "m": {"a": i * 1.5}}
                   for i in range(120)])


@dataclass(frozen=True)
class _Key:
    group: str
    rank: int


def kernel() -> int:
    data = json.loads(_DOC)
    index: dict = {}
    for record in data:
        for name in record["v"]:
            index.setdefault(_Key(name, record["k"] % 7), []).append(record["k"])
    ordered = sorted(index.items(), key=lambda item: (item[0].group, item[0].rank))
    flat = tuple(k for _, ks in ordered for k in ks)
    return len(flat) + len(json.dumps(data))


class SpeedLog:
    """Kernel samples (start time, duration), and the scale factors they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            # the kernel makes no reference cycles; pausing the collector keeps
            # its time independent of how many objects depscope holds
            collecting = gc.isenabled()
            gc.disable()
            try:
                started = time.perf_counter()
                cpu = time.thread_time()
                kernel()
                duration = time.thread_time() - cpu
            finally:
                if collecting:
                    gc.enable()
            self.starts.append(started)
            self.durations.append(duration)

    def factor(self, start: float, end: float, nearest: int = NEAREST) -> float:
        """Scale factor for a measurement over [start, end]: every sample
        inside it plus the ``nearest`` samples on each side."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return REFERENCE_S / statistics.median(self.durations[max(0, lo - nearest):hi + nearest])
