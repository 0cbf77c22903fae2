"""Recorder protocol and the counter/no-op implementations.

The contract is designed around one invariant: **instrumentation must be
free when it is off**.  Hot loops therefore never build event payloads
or format strings unconditionally — they hoist the recorder once, check
the cheap :attr:`Recorder.enabled` / :attr:`Recorder.trace` flags, and
only then do per-event work.  :class:`NullRecorder` keeps both flags
``False`` and makes every method a no-op, so the disabled cost is one
attribute load per guarded block (asserted ≤2% on the FlowExpect
benchmark by ``benchmarks/perf_harness.py``).

Counters are plain integer accumulators keyed by dotted names
(``evict.LRU``, ``flow.solver_iterations``, ``prob_table.hits``); timers
accumulate monotonic wall-clock seconds plus a call count under one
name; series (:meth:`Recorder.series`) fold per-step gauges like cache
occupancy into the bounded-memory :class:`~repro.obs.timeseries.TimeSeries`
aggregates, whose quantiles come from one mergeable
:class:`~repro.obs.hist.LogHistogram` per series.  Snapshots are plain
dicts — JSON-serializable, mergeable, and safe to ship across a process
boundary, which is how the parallel engine folds worker-side counters
back into the parent recorder.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Protocol, runtime_checkable

from .timeseries import TimeSeries

__all__ = [
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "CounterRecorder",
]


@runtime_checkable
class Recorder(Protocol):
    """Instrumentation sink threaded through simulators and policies.

    Attributes
    ----------
    enabled:
        ``True`` when *any* instrumentation is active.  Hot paths guard
        every counting/timing block on this flag.
    trace:
        ``True`` when the sink also wants structured per-step events
        (:meth:`event`).  Event payload construction — candidate lists,
        score snapshots — is guarded on this flag separately because it
        is far more expensive than a counter bump.
    """

    enabled: bool
    trace: bool

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        ...

    def timer(self, name: str) -> Any:
        """Context manager accumulating wall-clock seconds under ``name``."""
        ...

    def event(self, kind: str, t: int, /, **fields: Any) -> None:
        """Record one structured event at step ``t``."""
        ...

    def series(self, name: str, t: int, value: float) -> None:
        """Fold the per-step gauge point ``(t, value)`` into ``name``.

        Backed by bounded-memory aggregation (fixed-budget downsampling
        buffer + a fixed-budget log histogram for quantiles), so
        emitting one point per step is safe for arbitrarily long runs.
        Call sites guard on :attr:`enabled` like every other
        instrumentation block.
        """
        ...

    def merge(self, snapshot: Mapping) -> None:
        """Fold another recorder's :meth:`snapshot` into this one."""
        ...

    def fork(self) -> "Recorder":
        """A fresh child recorder for a worker process.

        The child starts empty; its :meth:`snapshot` is merged back by
        the caller once the worker finishes.  Implementations that
        cannot replicate themselves across a process boundary (e.g. a
        trace stream bound to an open file) return a counters-only
        child.
        """
        ...


@contextmanager
def _null_timer() -> Iterator[None]:
    """The do-nothing timer shared by every :class:`NullRecorder`."""
    yield


class NullRecorder:
    """The default sink: collects nothing, costs (almost) nothing.

    All instrumented call sites are guarded on :attr:`enabled` /
    :attr:`trace`, so with this recorder a run executes the exact same
    arithmetic as an uninstrumented one — a property the test suite pins
    by comparing seed-for-seed results with and without it.
    """

    enabled = False
    trace = False

    def count(self, name: str, n: int = 1) -> None:
        """No-op."""

    def timer(self, name: str) -> Any:
        """Return a shared do-nothing context manager."""
        return _null_timer()

    def event(self, kind: str, t: int, /, **fields: Any) -> None:
        """No-op."""

    def series(self, name: str, t: int, value: float) -> None:
        """No-op."""

    def snapshot(self) -> dict:
        """An empty snapshot."""
        return {}

    def merge(self, snapshot: Mapping) -> None:
        """Discard ``snapshot`` (nothing is collected)."""

    def fork(self) -> "NullRecorder":
        """Return the shared null singleton (stateless, so reusable)."""
        return NULL_RECORDER


#: Shared stateless instance used as the default everywhere.
NULL_RECORDER = NullRecorder()


class CounterRecorder:
    """Counters plus monotonic timers; the workhorse metrics sink.

    >>> rec = CounterRecorder()
    >>> rec.count("evict.LRU")
    >>> rec.count("evict.LRU", 2)
    >>> rec.snapshot()["counters"]["evict.LRU"]
    3

    Timers nest freely and accumulate ``(seconds, calls)`` per name::

        with rec.timer("flow.solve"):
            ...

    Snapshots merge additively (:meth:`merge`), which makes worker
    recorders composable: the parallel engine forks one child per
    worker chunk and merges the returned snapshots, so a parallel run's
    counters equal the scalar run's exactly (timers differ — they
    measure each process's own wall clock).
    """

    enabled = True
    trace = False

    def __init__(self) -> None:
        """Start with empty counter, timer, and series tables."""
        self.counters: dict[str, int] = {}
        #: name -> [accumulated seconds, calls]
        self.timers: dict[str, list[float]] = {}
        #: name -> bounded-memory per-step aggregate
        self.series_data: dict[str, TimeSeries] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + n

    @contextmanager
    def _timed(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            slot = self.timers.setdefault(name, [0.0, 0])
            slot[0] += elapsed
            slot[1] += 1

    def timer(self, name: str) -> Any:
        """Context manager accumulating wall-clock seconds under ``name``."""
        return self._timed(name)

    def event(self, kind: str, t: int, /, **fields: Any) -> None:
        """Counters-only sink: events are counted, not stored."""
        self.count(f"events.{kind}")

    def series(self, name: str, t: int, value: float) -> None:
        """Fold ``(t, value)`` into the bounded series aggregate ``name``."""
        ts = self.series_data.get(name)
        if ts is None:
            ts = self.series_data[name] = TimeSeries(name)
        ts.add(t, value)

    def snapshot(self) -> dict:
        """``{"counters": ..., "timers": ..., "series": ...}``.

        The ``series`` key is present only when at least one series was
        recorded, so counters-only snapshots keep their PR-4 shape.
        """
        snap: dict = {
            "counters": dict(self.counters),
            "timers": {
                name: {"seconds": secs, "calls": int(calls)}
                for name, (secs, calls) in self.timers.items()
            },
        }
        if self.series_data:
            snap["series"] = {
                name: ts.snapshot() for name, ts in self.series_data.items()
            }
        return snap

    def merge(self, snapshot: Mapping) -> None:
        """Add a :meth:`snapshot`'s counters/timers/series into this one.

        Series aggregates and quantile histograms merge exactly; only
        the downsampling buffers merge approximately (see
        :meth:`repro.obs.timeseries.TimeSeries.merge`).
        """
        for name, n in snapshot.get("counters", {}).items():
            self.count(name, n)
        for name, entry in snapshot.get("timers", {}).items():
            slot = self.timers.setdefault(name, [0.0, 0])
            slot[0] += entry["seconds"]
            slot[1] += entry["calls"]
        for name, state in snapshot.get("series", {}).items():
            ts = self.series_data.get(name)
            if ts is None:
                self.series_data[name] = TimeSeries.from_state(name, state)
            else:
                ts.merge(state)

    def fork(self) -> "CounterRecorder":
        """A fresh, empty counter recorder for a worker process."""
        return CounterRecorder()
