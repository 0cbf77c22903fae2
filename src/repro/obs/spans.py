"""Request-path span timing recorded through the Recorder protocol.

A *span* is one timed section of the serve request path — ``submit``,
``route``, ``queue_wait``, ``decide``, ``emit`` — measured on the
monotonic clock (:func:`time.perf_counter`) and recorded twice:

* as a ``*_ms`` series point through the existing
  :meth:`~repro.obs.recorder.Recorder.series` call (bounded memory,
  trace-visible, merged like every other series), and
* into a :class:`~repro.obs.hist.HistogramSet` of log-bucketed latency
  histograms, whose exact merge is what lets per-request latency
  survive shard fork/merge and live resharding, and which a live
  ``/metrics`` scrape can read under a disabled recorder.

Both land in the same latency layout (:func:`series_kind` picks it for
every ``ms`` series), so on one shard the two agree bucket for bucket.

Everything flows through the existing :class:`~repro.obs.recorder.Recorder`
protocol — no new protocol methods — so a :class:`~repro.obs.NullRecorder`
run stays free: call sites guard on :attr:`SpanTracker.active` and skip
the clock reads entirely (the serve perf harness asserts the disabled
overhead stays ≤ 2%).

Naming convention
-----------------
Series names are dotted lowercase; **any series whose values are
wall-clock milliseconds ends in** ``_ms`` (``flow.solve_ms`` set the
precedent; the serve spans follow as ``serve.span.<name>_ms``).
:data:`KNOWN_SERIES` is the registry of every series name the codebase
emits, with its unit — the naming unit test enforces both directions
(``ms`` unit ⟺ ``_ms`` suffix) and that emitted names stay registered,
and ``docs/OBSERVABILITY.md`` documents each entry.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from .hist import HistogramSet

if TYPE_CHECKING:  # the recorder module builds series through this one
    from .recorder import Recorder

__all__ = [
    "MS_SUFFIX",
    "SERVE_SPAN_PREFIX",
    "SERVE_SPAN_NAMES",
    "KNOWN_SERIES",
    "is_wall_clock_series",
    "series_kind",
    "check_series_name",
    "SpanTracker",
]

#: Suffix every wall-clock-millisecond series name must carry.
MS_SUFFIX = "_ms"

#: Prefix of every serve request-path span series.
SERVE_SPAN_PREFIX = "serve.span."

#: The serve request path, in order: producer-side submit and routing,
#: then per-shard queue wait, policy decision, and telemetry emission.
SERVE_SPAN_NAMES = ("submit", "route", "queue_wait", "decide", "emit")

#: Registry of every series name the codebase emits, mapped to its
#: unit.  ``ms`` means wall-clock milliseconds (name must end ``_ms``);
#: the unit and the ``.cum`` suffix pick each series' quantile
#: histogram (:func:`series_kind`).  The naming unit test and
#: docs/OBSERVABILITY.md stay in sync with it.
KNOWN_SERIES: dict[str, str] = {
    "admission.rejects.cum": "rejects",
    "cache.hit_rate": "ratio",
    "cache.hits.cum": "hits",
    "cache.occupancy": "tuples",
    "flow.solve_ms": "ms",
    "join.results.cum": "results",
    "prob_table.hit_rate": "ratio",
    "scores.cutoff": "score",
    "serve.backpressure.wait_ms": "ms",
    "serve.queue_depth": "events",
    "serve.span.decide_ms": "ms",
    "serve.span.emit_ms": "ms",
    "serve.span.queue_wait_ms": "ms",
    "serve.span.route_ms": "ms",
    "serve.span.submit_ms": "ms",
    "serve.uptime_ms": "ms",
    "sketch.fill": "ratio",
    "sketch.fp_rate": "ratio",
}


def is_wall_clock_series(name: str) -> bool:
    """True when ``name`` follows the wall-clock ``*_ms`` convention."""
    return name.endswith(MS_SUFFIX)


def series_kind(name: str) -> str:
    """What the values of series ``name`` are, which sets how it is kept.

    * ``"counter"`` — names ending ``.cum``: running totals, whose
      quantiles mean nothing;
    * ``"latency"`` — unit ``ms`` in :data:`KNOWN_SERIES` (or, for an
      unregistered name, the ``_ms`` suffix): wall-clock durations;
    * ``"gauge"`` — everything else, possibly negative (policy scores).
    """
    if name.endswith(".cum"):
        return "counter"
    unit = KNOWN_SERIES.get(name)
    if unit == "ms" or (unit is None and is_wall_clock_series(name)):
        return "latency"
    return "gauge"


def check_series_name(name: str) -> list[str]:
    """Convention violations for one series name (empty list = clean).

    Checks the lowercase dotted shape, registry membership, and the
    two-way ``_ms`` ⟺ ``ms``-unit rule.  Used by the naming unit test;
    returning messages (instead of raising) keeps one test able to
    report every violation at once.
    """
    problems: list[str] = []
    if name != name.lower():
        problems.append(f"{name!r}: series names are lowercase")
    if not all(part for part in name.split(".")):
        problems.append(f"{name!r}: empty dotted component")
    unit = KNOWN_SERIES.get(name)
    if unit is None:
        problems.append(f"{name!r}: not in the KNOWN_SERIES registry")
    elif unit == "ms" and not is_wall_clock_series(name):
        problems.append(f"{name!r}: unit is ms but name lacks '_ms'")
    elif unit != "ms" and is_wall_clock_series(name):
        problems.append(f"{name!r}: name ends '_ms' but unit is {unit!r}")
    return problems


class SpanTracker:
    """Records named span durations through a recorder and a histogram set.

    Parameters
    ----------
    recorder:
        The observability sink; each span lands as one
        ``<prefix><name>_ms`` series point when the recorder is enabled.
    hists:
        Optional :class:`~repro.obs.hist.HistogramSet` receiving the
        same durations as mergeable log-bucketed histograms.
    prefix:
        Prepended to every span name (the serve tier uses
        ``"serve.span."``).
    active:
        Master switch.  Defaults to the recorder's ``enabled`` flag;
        the serve tier flips it on when a live metrics endpoint starts,
        so histograms fill even under a :class:`~repro.obs.NullRecorder`.
        Call sites guard their clock reads on this attribute — when it
        is ``False`` a request path does no span work at all.

    Spans nest freely: :meth:`span` keeps a stack so nested sections
    each time themselves independently (``depth`` exposes the nesting
    level, mostly for tests and debugging).
    """

    __slots__ = ("recorder", "hists", "prefix", "active", "_stack")

    def __init__(
        self,
        recorder: Recorder,
        hists: Optional[HistogramSet] = None,
        prefix: str = "",
        active: Optional[bool] = None,
    ):
        """Bind the sinks; ``active`` defaults to ``recorder.enabled``."""
        self.recorder = recorder
        self.hists = hists
        self.prefix = prefix
        self.active = recorder.enabled if active is None else active
        self._stack: list[str] = []

    @property
    def depth(self) -> int:
        """Current nesting depth of open :meth:`span` sections."""
        return len(self._stack)

    def record(self, name: str, t: int, elapsed_ms: float) -> None:
        """Record one measured duration under span ``name``.

        The series point and histogram observation share the full
        ``<prefix><name>_ms`` series name, so offline traces and live
        scrapes summarize under identical keys.
        """
        series_name = f"{self.prefix}{name}{MS_SUFFIX}"
        if self.recorder.enabled:
            self.recorder.series(series_name, t, elapsed_ms)
        if self.hists is not None:
            self.hists.observe(series_name, elapsed_ms)

    @contextmanager
    def span(self, name: str, t: int = 0) -> Iterator[None]:
        """Time the enclosed block as span ``name`` at step ``t``.

        Free when :attr:`active` is ``False`` (no clock read, nothing
        recorded).  Hot loops that cannot afford a context manager use
        the same guard with explicit :func:`time.perf_counter` reads
        and :meth:`record`.
        """
        if not self.active:
            yield
            return
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            self._stack.pop()
            self.record(name, t, elapsed_ms)
