"""Run-level observability: recorders, series, traces, and audits.

When a policy underperforms a paper figure or the FlowExpect fast path
regresses, final hit counts are not enough — diagnosing *why* needs
per-step visibility into evictions, ECB values, flow solves, and cache
occupancy.  This package provides that visibility as an opt-in layer
with zero overhead when disabled:

* :class:`Recorder` — the protocol every instrumentation sink follows
  (counters, monotonic timers, structured events, per-step series,
  snapshot/merge/fork);
* :class:`NullRecorder` / :data:`NULL_RECORDER` — the default no-op
  sink; every instrumented hot path guards on :attr:`Recorder.enabled`
  so a disabled run pays only an attribute check;
* :class:`CounterRecorder` — named counters plus wall-clock timers
  (evictions by policy, flow-solver iterations, ProbTable hits/misses,
  engine dispatch/fallback) plus bounded-memory
  :class:`~repro.obs.timeseries.TimeSeries` gauges (occupancy,
  cumulative hits/results, per-solve latency);
* :class:`TraceRecorder` — a bounded per-step JSONL event stream
  (arrivals, victim sets, per-candidate score/arc-cost snapshots,
  occupancy, series points) with a versioned schema;
* :mod:`repro.obs.timeseries` — the bounded-memory aggregation
  primitives (downsampling buffer, per-series quantile histograms,
  sparklines);
* :mod:`repro.obs.report` — turns a trace file or a counter snapshot
  into human-readable tables, including ``--series`` sparklines
  (``python -m repro.obs report``);
* :mod:`repro.obs.audit` — step-aligned diffing of two traces
  (``python -m repro.obs diff``);
* :class:`ProgressRecorder` — a delegating wrapper rendering a stderr
  trials-done/ETA line (the experiment CLI's ``--progress``);
* :mod:`repro.obs.spans` — request-path span timing for the serve tier
  (:class:`SpanTracker`) plus the :data:`KNOWN_SERIES` naming registry;
* :mod:`repro.obs.hist` — mergeable log-bucketed histograms
  (:class:`LogHistogram`), the one quantile primitive behind span
  latencies and series quantiles alike, whose exact merge survives
  shard fork/merge and live resharding;
* :mod:`repro.obs.promtext` — Prometheus text exposition rendering and
  a matching validator/parser for the serve ``/metrics`` endpoint;
* :mod:`repro.obs.top` — the refreshing per-shard TTY dashboard
  (``python -m repro.obs top``).

Recorders enter the system through ``recorder=`` keywords on the
simulators and experiment entry points and travel to policies via
:attr:`repro.policies.base.PolicyContext.recorder`.  See
``docs/OBSERVABILITY.md`` for the full guide and the event schema.
"""

from .audit import (
    TraceDiff,
    diff_trace_files,
    diff_traces,
    format_diff,
)
from .hist import HistogramSet, LogHistogram
from .progress import ProgressRecorder
from .promtext import parse_prometheus_text, render_prometheus
from .recorder import (
    NULL_RECORDER,
    CounterRecorder,
    NullRecorder,
    Recorder,
)
from .report import (
    collect_series,
    format_metrics,
    format_serve_section,
    format_series_table,
    format_trace_summary,
    save_series_png,
    serve_latency_histograms,
    summarize_trace,
    summarize_trace_file,
)
from .spans import KNOWN_SERIES, SpanTracker, check_series_name
from .timeseries import (
    SeriesBuffer,
    TimeSeries,
    sparkline,
)
from .trace import (
    TRACE_SCHEMA_VERSION,
    TraceRecorder,
    read_trace,
)

__all__ = [
    "CounterRecorder",
    "HistogramSet",
    "KNOWN_SERIES",
    "LogHistogram",
    "NULL_RECORDER",
    "NullRecorder",
    "ProgressRecorder",
    "Recorder",
    "SeriesBuffer",
    "SpanTracker",
    "TRACE_SCHEMA_VERSION",
    "TimeSeries",
    "TraceDiff",
    "TraceRecorder",
    "check_series_name",
    "collect_series",
    "diff_trace_files",
    "diff_traces",
    "format_diff",
    "format_metrics",
    "format_serve_section",
    "format_series_table",
    "format_trace_summary",
    "parse_prometheus_text",
    "read_trace",
    "render_prometheus",
    "save_series_png",
    "serve_latency_histograms",
    "sparkline",
    "summarize_trace",
    "summarize_trace_file",
]
