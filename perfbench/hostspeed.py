"""The host's speed, measured by a fixed calibration task run beside the work.

On a shared host the speed of a core is not fixed.  On a 2-vCPU Intel
Xeon VM at 2.1 GHz (Python 3.11, NumPy 2.4) this task ran at one of two
speeds about 1.5x apart, switching several times a second, in a mix that
changed from run to run, and the program's timings moved with it.
Timing a fixed pass of ``scalar-join`` in 10 s windows of one process,
the window medians spread 14% (distance between quartiles over the
median), while the same pass time divided by the time of this task, run
between its operations, spread 3%; on ``batch``, 11% against 4%.

So every time the benchmark reports is taken at a fixed reference speed:
each measured time divided by :meth:`HostSpeed.factor`, the task's median
time next to it over :data:`REFERENCE_SLICE_S`, its time on that VM.
The task is the benchmark's own code on fixed inputs, so a change to the
program never changes it.
"""

from __future__ import annotations

import bisect
import math
import statistics
from time import perf_counter

import numpy as np

#: Median time of one slice of :meth:`HostSpeed.run` on the reference host.
REFERENCE_SLICE_S = 0.0019
#: Slices this close outside a window still count for it, so that the
#: slices run just before and just after a piece of work always do.
MARGIN_S = 0.005


def _evict_oldest(refs: list[int], size: int) -> int:
    """Hits of a ``size``-entry cache that evicts its least recent key."""
    cache: dict[int, int] = {}
    hits = 0
    for t, v in enumerate(refs):
        if v in cache:
            hits += 1
        elif len(cache) >= size:
            del cache[min(cache, key=cache.get)]
        cache[v] = t
    return hits


class HostSpeed:
    """Times slices of a fixed task: interpreted dict work plus NumPy sorts.

    The mix follows the program's: the scalar engine and the server are
    interpreted Python over dicts, the batch engine NumPy over arrays.
    A run calls :meth:`run` between pieces of its work and divides the
    time of each piece by :meth:`factor` over the piece's interval.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.refs = [int(v) for v in rng.integers(0, 120, 600)]
        self.values = rng.random(20_000)
        #: Wall time of every slice run so far, in seconds, and the
        #: ``perf_counter`` reading at its middle.
        self.times: list[float] = []
        self.stamps: list[float] = []

    def run(self, slices: int) -> None:
        """Run the task ``slices`` times, recording each time."""
        for _ in range(slices):
            t0 = perf_counter()
            _evict_oldest(self.refs, 50)
            order = np.argsort(self.values)
            float((self.values[order].cumsum() + self.values).sum())
            t1 = perf_counter()
            self.times.append(t1 - t0)
            self.stamps.append((t0 + t1) / 2)

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """The host factor for work done from ``start`` to ``end``
        (``perf_counter`` readings; by default, the whole run so far).

        It is the median time of the slices run from one work-length
        before ``start`` to one work-length after ``end``, over the
        reference time: a short piece of work is judged by the slices
        next to it, a long one by as long a stretch as it took.  2.0
        means the host ran at half the reference speed.
        """
        span = end - start if math.isfinite(end - start) else 0.0
        lo = bisect.bisect_left(self.stamps, start - span - MARGIN_S)
        hi = bisect.bisect_right(self.stamps, end + span + MARGIN_S)
        return statistics.median(self.times[lo:hi]) / REFERENCE_SLICE_S
