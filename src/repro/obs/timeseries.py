"""Bounded-memory per-step time series: buffers, histograms, sparklines.

PR 4's counters answer "how many evictions happened?"; the questions the
paper's figures actually pose — *when* does HEEB's hit rate converge to
FlowExpect's, *how* does occupancy settle after warm-up, *is* the
per-solve FlowExpect latency drifting — need values over time.  Storing
every ``(t, value)`` point is not an option for million-step streams, so
this module provides the standard streaming-telemetry shape (cf. the
sketch-based monitoring literature): every series is folded into a
fixed-size state no matter how many points it receives.

Three pieces compose into :class:`TimeSeries`, the per-series state held
by :class:`~repro.obs.recorder.CounterRecorder`:

* exact scalar aggregates — count, sum, min, max, last — which merge
  losslessly across engines and worker processes;
* :class:`SeriesBuffer`, a fixed-budget downsampling buffer: it keeps
  every ``stride``-th point and doubles the stride (thinning in place)
  whenever the budget fills, so the retained shape always spans the full
  run at uniform resolution;
* one :class:`~repro.obs.hist.LogHistogram` for quantiles, whose layout
  follows the series kind (:func:`~repro.obs.spans.series_kind`): the
  latency layout for ``*_ms`` series, the signed gauge layout for other
  gauges, and none for ``.cum`` counters, whose quantiles mean nothing.

Memory per series is therefore bounded by ``2 × buffer budget`` floats
plus the histogram's fixed bucket counts, regardless of stream length.
The scalar aggregates and the buffer are *deterministic* in the order
points arrive, which is what lets the batch engine reproduce a scalar
run's series bit for bit (it replays its arrays in the same trial-major
order).  Histograms do not depend on order at all: they merge by adding
bucket counts, so a parallel run's merged quantiles equal the scalar
run's exactly.

:func:`sparkline` renders any value sequence as a fixed-width Unicode
strip for the ``python -m repro.obs report --series`` tables.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .hist import LogHistogram, gauge_histogram
from .spans import series_kind

__all__ = [
    "DEFAULT_BUFFER_BUDGET",
    "SeriesBuffer",
    "TimeSeries",
    "sparkline",
]

#: Default point budget of a :class:`SeriesBuffer` (~8 KB per series).
DEFAULT_BUFFER_BUDGET = 512

#: Unicode blocks used by :func:`sparkline`, lowest to highest.
_BLOCKS = "▁▂▃▄▅▆▇█"


class SeriesBuffer:
    """Fixed-budget downsampling buffer of ``(t, value)`` points.

    Keeps every ``stride``-th offered point; when the retained list hits
    the budget it is thinned in place (every other point) and the stride
    doubles.  Retained points therefore always include the first point
    and span the run at uniform resolution, and the sequence of retained
    points is a deterministic function of the offered sequence — the
    property behind exact scalar/batch series parity.
    """

    __slots__ = ("budget", "stride", "offered", "points")

    def __init__(self, budget: int = DEFAULT_BUFFER_BUDGET):
        """Retain at most ``budget`` points (``budget >= 4``)."""
        if budget < 4:
            raise ValueError("budget must be >= 4")
        self.budget = budget
        self.stride = 1
        self.offered = 0
        self.points: list[tuple[int, float]] = []

    def add(self, t: int, value: float) -> None:
        """Offer one point; retained iff it falls on the current stride."""
        if self.offered % self.stride == 0:
            self.points.append((t, value))
            if len(self.points) >= self.budget:
                # Kept points sit at offered indices 0, s, 2s, ...;
                # dropping every other one leaves multiples of 2s, so
                # the doubled stride continues the pattern seamlessly.
                self.points = self.points[::2]
                self.stride *= 2
        self.offered += 1

    def state(self) -> dict:
        """JSON-serializable state for snapshots and merging."""
        return {
            "budget": self.budget,
            "stride": self.stride,
            "offered": self.offered,
            "points": [[t, v] for t, v in self.points],
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "SeriesBuffer":
        """Rebuild a buffer from :meth:`state` output."""
        buf = cls(int(state.get("budget", DEFAULT_BUFFER_BUDGET)))
        buf.stride = int(state.get("stride", 1))
        buf.offered = int(state.get("offered", 0))
        buf.points = [(int(t), float(v)) for t, v in state.get("points", ())]
        return buf

    def merge(self, state: Mapping) -> None:
        """Fold another buffer's :meth:`state` into this one.

        Points are interleaved by time and re-thinned to the budget.
        After a merge the buffer is a representative sample of both
        inputs (worker trials overlap in ``t``), not an exact replay —
        the exact aggregates live on :class:`TimeSeries` itself.
        """
        other_points = [(int(t), float(v)) for t, v in state.get("points", ())]
        if not other_points:
            self.offered += int(state.get("offered", 0))
            return
        combined = sorted(self.points + other_points, key=lambda p: p[0])
        stride = max(self.stride, int(state.get("stride", 1)))
        while len(combined) >= self.budget:
            combined = combined[::2]
            stride *= 2
        self.points = combined
        self.stride = stride
        self.offered += int(state.get("offered", 0))


def _histogram_for(name: str) -> Optional[LogHistogram]:
    """The empty quantile histogram of series ``name``, by its kind."""
    kind = series_kind(name)
    if kind == "counter":
        return None
    if kind == "latency":
        return LogHistogram(name)
    return gauge_histogram(name)


class TimeSeries:
    """Bounded-memory aggregate of one named per-step series.

    Combines exact scalar aggregates (count/sum/min/max/last — these
    merge losslessly), a :class:`SeriesBuffer` for shape, and ``hist``,
    the :class:`~repro.obs.hist.LogHistogram` behind :meth:`quantile`.
    ``hist`` is ``None`` for counters, and for a series restored from a
    snapshot that predates histograms: it always covers every point or
    does not exist.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "vmin",
        "vmax",
        "last_t",
        "last",
        "buffer",
        "hist",
    )

    def __init__(self, name: str, budget: int = DEFAULT_BUFFER_BUDGET):
        """Empty series ``name`` with a ``budget``-point buffer."""
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self.last_t: Optional[int] = None
        self.last: Optional[float] = None
        self.buffer = SeriesBuffer(budget)
        self.hist = _histogram_for(name)

    def add(self, t: int, value: float) -> None:
        """Fold in the point ``(t, value)``."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        self.last_t = t
        self.last = value
        self.buffer.add(t, value)
        if self.hist is not None:
            self.hist.observe(value)

    @property
    def mean(self) -> Optional[float]:
        """Mean of all points, ``None`` when empty."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate of quantile ``q`` in [0, 1]; ``None`` without a histogram.

        Within one bucket's relative width of the exact quantile, and
        within the observed ``[min, max]``.
        """
        return self.hist.quantile(q) if self.hist is not None else None

    def snapshot(self) -> dict:
        """Plain-dict view: aggregates, buffer state, histogram state."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "last_t": self.last_t,
            "last": self.last,
            "buffer": self.buffer.state(),
            "hist": self.hist.state() if self.hist is not None else None,
        }

    @classmethod
    def from_state(cls, name: str, state: Mapping) -> "TimeSeries":
        """Rebuild a series from :meth:`snapshot` output.

        A snapshot without a ``hist`` entry (counters, and snapshots
        that predate histograms) restores with no quantile estimate.
        """
        buffer_state = state.get("buffer", {})
        series = cls(
            name, budget=int(buffer_state.get("budget", DEFAULT_BUFFER_BUDGET))
        )
        series.count = int(state.get("count", 0))
        series.total = float(state.get("sum", 0.0))
        series.vmin = state.get("min")
        series.vmax = state.get("max")
        series.last_t = state.get("last_t")
        series.last = state.get("last")
        series.buffer = SeriesBuffer.from_state(buffer_state)
        hist_state = state.get("hist")
        series.hist = (
            LogHistogram.from_state(name, hist_state)
            if hist_state is not None
            else None
        )
        return series

    def merge(self, state: Mapping) -> None:
        """Fold another series' :meth:`snapshot` into this one.

        Scalar aggregates and histograms merge exactly (same-layout
        histograms add bucket counts); the buffer interleaves.  A donor
        with points but no histogram leaves the merge without one.  The
        merged ``last`` is the point with the larger ``t`` (ties keep
        ours), which makes the merge of same-shaped worker series
        deterministic.
        """
        had_points = self.count > 0
        donor_count = int(state.get("count", 0))
        self.count += donor_count
        self.total += float(state.get("sum", 0.0))
        other_min = state.get("min")
        if other_min is not None and (self.vmin is None or other_min < self.vmin):
            self.vmin = float(other_min)
        other_max = state.get("max")
        if other_max is not None and (self.vmax is None or other_max > self.vmax):
            self.vmax = float(other_max)
        other_t = state.get("last_t")
        if other_t is not None and (self.last_t is None or other_t > self.last_t):
            self.last_t = int(other_t)
            last = state.get("last")
            self.last = float(last) if last is not None else None
        self.buffer.merge(state.get("buffer", {}))
        donor_hist = state.get("hist")
        if donor_hist is None:
            if donor_count:
                self.hist = None
        elif self.hist is not None:
            self.hist.merge(donor_hist)
        elif not had_points:
            self.hist = LogHistogram.from_state(self.name, donor_hist)


def sparkline(values: Iterable[float], width: int = 48) -> str:
    """Render values as a fixed-width Unicode block strip.

    Longer sequences are bucket-averaged down to ``width`` cells;
    shorter ones use one cell per value.  A constant (or empty) series
    renders as a flat mid-height strip so tables stay aligned.
    """
    data = [float(v) for v in values]
    if not data:
        return ""
    if len(data) > width:
        bucketed = []
        for i in range(width):
            lo = i * len(data) // width
            hi = max(lo + 1, (i + 1) * len(data) // width)
            chunk = data[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        data = bucketed
    vmin = min(data)
    vmax = max(data)
    if vmax - vmin <= 0:
        return _BLOCKS[3] * len(data)
    scale = (len(_BLOCKS) - 1) / (vmax - vmin)
    return "".join(_BLOCKS[int((v - vmin) * scale + 0.5)] for v in data)
