"""A yardstick for the speed of a shared, drifting CPU, sampled while a run works.

On a shared virtual machine the same pure-Python work can take twice as long
from one second to the next, and every workload moves with it.  A pass time
on its own then measures the neighbours more than the program.  While a run
is measuring, ``Speedometer`` interrupts it every 20 ms (``SIGALRM``) and
times a fixed, benchmark-owned kernel: Dijkstra in pure Python over a 15x15
grid with string node ids, about 0.5 ms.  Of four kernels tried
(integer-keyed, large and cache-missing, object-and-sort, and this one),
this one tracked the solve and ewtt passes most closely.  Samples are spread
evenly in wall time, so the mean of the kernel's rate over an interval says
how much work the machine did in it, compared with a reference machine.

``seconds(start, end)`` turns a wall-clock interval into reference seconds:
the interval minus the time spent in the kernel, times the machine's mean
speed relative to ``REFERENCE_KERNEL_S``.  A program change moves the result
as it moves wall time; a change in machine speed cancels out.  The kernel
never calls floodmit, so no change to the program can speed it up.
"""
from __future__ import annotations

import bisect
import heapq
import random
import signal
import statistics
import time
from contextlib import contextmanager

#: kernel time on the reference machine: the median on a shared 2-vCPU VM
#: (Intel Xeon, Python 3.11.7) in a fast spell, so reference seconds read
#: close to seconds there
REFERENCE_KERNEL_S = 0.0005
#: one kernel sample every this many seconds: about 3% of the run
SAMPLE_INTERVAL_S = 0.02
#: samples within this many seconds of an interval price its speed
WINDOW_PAD_S = 0.25
MIN_SAMPLES = 8


def _kernel_graph(side: int = 15) -> dict[str, dict[str, float]]:
    """A seeded grid of string-keyed nodes, shaped like a small road network."""
    rng = random.Random(1)
    graph: dict[str, dict[str, float]] = {}
    for i in range(side):
        for j in range(side):
            graph[f"n{i:03d}_{j:03d}"] = {
                f"n{a:03d}_{b:03d}": 1.0 + rng.random()
                for a, b in ((i, j + 1), (i + 1, j), (i, j - 1), (i - 1, j))
                if 0 <= a < side and 0 <= b < side}
    return graph


class Speedometer:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._graph = _kernel_graph()
        self._busy = False

    def _kernel(self) -> int:
        graph = self._graph
        source = "n000_000"
        dist = {source: 0.0}
        done: set[str] = set()
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in graph[u].items():
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return len(done)

    def _sample(self, *_signal) -> None:
        if self._busy:               # a late tick inside a sample: skip it
            return
        self._busy = True
        start = time.perf_counter()
        self._kernel()
        self.ends.append(time.perf_counter())
        self.starts.append(start)
        self._busy = False

    @contextmanager
    def running(self):
        """Sample the kernel every ``SAMPLE_INTERVAL_S`` seconds until exit."""
        for _ in range(MIN_SAMPLES):     # so a very short run has samples
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def net(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` minus the samples taken in it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        spent = sum(min(e, end) - s
                    for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return end - start - spent

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second, from start to end.

        The mean kernel rate over the samples within ``WINDOW_PAD_S`` of the
        interval, widened to at least ``MIN_SAMPLES`` samples.
        """
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, start - WINDOW_PAD_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_PAD_S)
        while hi - lo < min(MIN_SAMPLES, n):
            lo, hi = max(lo - 1, 0), min(hi + 1, n)
        return REFERENCE_KERNEL_S * statistics.fmean(
            1.0 / (e - s) for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the work done from ``start`` to ``end``."""
        return self.net(start, end) * self.factor(start, end)

    def kernel_ms(self) -> float:
        """Median kernel time over the run, in ms: the machine's speed."""
        return 1000.0 * statistics.median(
            e - s for s, e in zip(self.starts, self.ends))
