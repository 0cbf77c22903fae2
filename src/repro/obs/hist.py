"""Mergeable log-bucketed histograms: the one quantile primitive.

Every quantile the codebase reports comes from :class:`LogHistogram`:
the serve tier's request-latency spans, and the quantiles of every
:class:`~repro.obs.timeseries.TimeSeries` gauge.  It is the standard
answer from the telemetry literature (HdrHistogram, Prometheus native
histograms): a fixed budget of geometrically growing buckets, whose
state merges *exactly* across ``fork``/``merge`` and live resharding.

Design contract
---------------
* **Fixed budget.**  ``n_buckets`` counters plus a handful of scalars,
  no matter how many observations arrive.  The bucket-bounds table is
  built once per layout (:func:`_bucket_bounds`) and shared by every
  histogram with that layout.
* **Two layouts.**  The latency layout (the default) spans 1 µs ..
  ~2.4 hours of millisecond-valued observations at one bucket per
  factor of two.  The signed gauge layout (:func:`gauge_histogram`)
  mirrors buckets of relative width ``2**(1/8) - 1`` (~9%) around a
  bucket of its own for zero, covering ``1e-6 .. ~9e9`` in magnitude
  on either side.
* **Exact merge.**  Two histograms with the same layout merge by adding
  bucket counts — associative, commutative, lossless.  Total count,
  sum, min, and max are preserved exactly, and every quantile of the
  merged histogram equals the quantile of the union of observations to
  within one bucket's relative width (the acceptance bound the serve
  reshard tests pin).  Mismatched layouts re-bin the donor's buckets at
  their midpoints (approximate, but never drops counts).
* **JSON state.**  ``state()`` / ``from_state()`` / ``merge()`` travel
  through the same plain-dict snapshots the parallel engine and the
  serve tier already ship across process and shard boundaries.

:class:`HistogramSet` is the name-keyed collection the serve tier hangs
off every shard: observe into it per span, merge sets at shard
retirement, and render the result as Prometheus histogram families
(:func:`repro.obs.promtext.render_prometheus`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from typing import Mapping, Optional

__all__ = [
    "DEFAULT_GROWTH",
    "DEFAULT_MIN_VALUE_MS",
    "DEFAULT_N_BUCKETS",
    "GAUGE_GROWTH",
    "GAUGE_MIN_VALUE",
    "GAUGE_N_BUCKETS",
    "LogHistogram",
    "HistogramSet",
    "gauge_histogram",
]

#: Default geometric growth factor between bucket upper bounds.
DEFAULT_GROWTH = 2.0

#: Default upper bound of the first bucket, in milliseconds (1 µs).
DEFAULT_MIN_VALUE_MS = 1e-3

#: Default bucket budget: 1 µs · 2^43 ≈ 2.4 hours of dynamic range.
DEFAULT_N_BUCKETS = 44

#: Smallest magnitude the signed gauge layout resolves; nonzero values
#: closer to zero share the two buckets next to the zero bucket.
GAUGE_MIN_VALUE = 1e-6

#: Gauge growth factor: eight buckets per doubling, ~9% relative width.
GAUGE_GROWTH = 2.0**0.125

#: Gauge bucket budget: 424 magnitudes per sign (1e-6 · 2^53 ≈ 9e9),
#: the tiny-negative and zero buckets, and the positive overflow.
GAUGE_N_BUCKETS = 2 * 424 + 3

#: Upper bound of the signed layouts' tiny-negative bucket: the largest
#: float below zero, so the next bucket holds exactly ``±0.0``.
_BELOW_ZERO = -math.ulp(0.0)


@lru_cache(maxsize=None)
def _bucket_bounds(
    min_value: float, growth: float, n_buckets: int, signed: bool = False
) -> tuple[float, ...]:
    """Ascending inclusive upper bounds of one layout's buckets.

    Unsigned layouts bound bucket ``i`` by ``min_value * growth**i``.
    Signed layouts mirror ``k = (n_buckets - 3) // 2`` of those bounds
    below zero, then add the tiny-negative bucket ``(-min_value, 0)``,
    the zero bucket, and ``k + 1`` positive bounds.  Cached, so every
    histogram of a layout shares one table.
    """
    if not signed:
        return tuple(min_value * growth**i for i in range(n_buckets))
    k = (n_buckets - 3) // 2
    positive = [min_value * growth**i for i in range(k + 1)]
    negative = [-b for b in reversed(positive[:k])]
    return tuple(negative + [_BELOW_ZERO, 0.0] + positive)


class LogHistogram:
    """Fixed-budget histogram with geometrically growing buckets.

    Bucket ``i`` (``0 <= i < n_buckets``) counts observations ``v`` with
    ``bound[i-1] < v <= bound[i]`` over the layout's
    :func:`_bucket_bounds` table; values at or below the first bound
    land in bucket 0 and values above the last bound land in the final
    (overflow) bucket, so no observation is ever dropped.  ``signed``
    selects the mirrored layout that also resolves negative values.
    """

    __slots__ = (
        "name",
        "min_value",
        "growth",
        "signed",
        "counts",
        "count",
        "total",
        "vmin",
        "vmax",
        "_bounds",
    )

    def __init__(
        self,
        name: str = "",
        *,
        min_value: float = DEFAULT_MIN_VALUE_MS,
        growth: float = DEFAULT_GROWTH,
        n_buckets: int = DEFAULT_N_BUCKETS,
        signed: bool = False,
    ):
        """Empty histogram ``name`` with the given bucket layout."""
        if min_value <= 0:
            raise ValueError("min_value must be positive")
        if growth <= 1.0:
            raise ValueError("growth must be > 1")
        if n_buckets < 2:
            raise ValueError("n_buckets must be >= 2")
        if signed and (n_buckets < 5 or n_buckets % 2 == 0):
            raise ValueError("signed layouts need an odd n_buckets >= 5")
        self.name = name
        self.min_value = float(min_value)
        self.growth = float(growth)
        self.signed = bool(signed)
        self.counts = [0] * n_buckets
        self.count = 0
        self.total = 0.0
        self.vmin: Optional[float] = None
        self.vmax: Optional[float] = None
        self._bounds = _bucket_bounds(
            self.min_value, self.growth, n_buckets, self.signed
        )

    @property
    def n_buckets(self) -> int:
        """Number of buckets in the fixed layout."""
        return len(self.counts)

    def bucket_index(self, value: float) -> int:
        """Index of the bucket that would receive ``value``.

        The first bound ``>= value``, clamped to the overflow bucket.
        """
        index = bisect_left(self._bounds, value)
        return index if index < len(self._bounds) else index - 1

    def bucket_bound(self, index: int) -> float:
        """Inclusive upper bound of bucket ``index``."""
        return self._bounds[index]

    def observe(self, value: float) -> None:
        """Fold one observation into the histogram."""
        value = float(value)
        bounds = self._bounds
        index = bisect_left(bounds, value)
        self.counts[index if index < len(bounds) else index - 1] += 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> Optional[float]:
        """Mean of all observations, ``None`` when empty."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Estimate of quantile ``q`` (``0 <= q <= 1``), or ``None``.

        Locates the bucket where the cumulative count crosses
        ``q * count`` and interpolates linearly inside it; the result is
        clamped to the observed ``[min, max]`` so single-bucket
        histograms report exact extremes.  The error is bounded by one
        bucket's width — the log-bucket guarantee.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return None
        bounds = self._bounds
        last = len(self.counts) - 1
        target = q * self.count
        cum = 0
        for index, n in enumerate(self.counts):
            if n == 0:
                continue
            if cum + n >= target:
                hi = bounds[index]
                if hi == 0.0:
                    # The signed layouts' zero bucket holds only zeros.
                    return 0.0
                lo = bounds[index - 1] if index else min(0.0, self.vmin)
                if index == last:
                    hi = max(hi, self.vmax)
                value = lo + (target - cum) / n * (hi - lo)
                return min(max(value, self.vmin), self.vmax)
            cum += n
        return self.vmax

    def percentiles(self) -> dict:
        """The headline latency summary: p50/p90/p99/max (and count)."""
        return {
            "count": self.count,
            "p50": self.quantile(0.5),
            "p90": self.quantile(0.9),
            "p99": self.quantile(0.99),
            "max": self.vmax,
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style.

        Only buckets up to the last non-empty one are emitted, followed
        by the infinity bucket, so empty histograms render compactly.
        """
        out: list[tuple[float, int]] = []
        cum = 0
        last = -1
        for index, n in enumerate(self.counts):
            if n:
                last = index
        for index in range(last + 1):
            cum += self.counts[index]
            out.append((self.bucket_bound(index), cum))
        out.append((math.inf, self.count))
        return out

    def state(self) -> dict:
        """JSON-serializable state for snapshots and merging."""
        return {
            "min_value": self.min_value,
            "growth": self.growth,
            "signed": self.signed,
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
        }

    @classmethod
    def from_state(cls, name: str, state: Mapping) -> "LogHistogram":
        """Rebuild a histogram from :meth:`state` output."""
        counts = [int(n) for n in state.get("counts", ())]
        hist = cls(
            name,
            min_value=float(state.get("min_value", DEFAULT_MIN_VALUE_MS)),
            growth=float(state.get("growth", DEFAULT_GROWTH)),
            n_buckets=max(2, len(counts)),
            signed=bool(state.get("signed", False)),
        )
        if counts:
            hist.counts = counts
        hist.count = int(state.get("count", 0))
        hist.total = float(state.get("sum", 0.0))
        vmin = state.get("min")
        vmax = state.get("max")
        hist.vmin = float(vmin) if vmin is not None else None
        hist.vmax = float(vmax) if vmax is not None else None
        return hist

    def _same_layout(self, state: Mapping) -> bool:
        return (
            float(state.get("min_value", -1.0)) == self.min_value
            and float(state.get("growth", -1.0)) == self.growth
            and bool(state.get("signed", False)) == self.signed
            and len(state.get("counts", ())) == len(self.counts)
        )

    def _midpoint(self, index: int) -> float:
        """Representative value of bucket ``index`` for re-binning."""
        hi = self._bounds[index]
        lo = self._bounds[index - 1] if index else min(0.0, hi * self.growth)
        if lo * hi > 0:
            return math.copysign(math.sqrt(lo * hi), hi)
        return (lo + hi) / 2.0

    def merge(self, state: Mapping) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Same-layout merges add bucket counts and are exact; mismatched
        layouts re-bin the donor's buckets at their midpoints (total
        count and sum still preserved exactly).
        """
        donor_counts = [int(n) for n in state.get("counts", ())]
        if self._same_layout(state):
            for index, n in enumerate(donor_counts):
                self.counts[index] += n
        else:
            donor = LogHistogram.from_state(self.name, state)
            for index, n in enumerate(donor_counts):
                if n:
                    self.counts[self.bucket_index(donor._midpoint(index))] += n
        self.count += int(state.get("count", 0))
        self.total += float(state.get("sum", 0.0))
        other_min = state.get("min")
        if other_min is not None and (
            self.vmin is None or other_min < self.vmin
        ):
            self.vmin = float(other_min)
        other_max = state.get("max")
        if other_max is not None and (
            self.vmax is None or other_max > self.vmax
        ):
            self.vmax = float(other_max)


def gauge_histogram(name: str = "") -> LogHistogram:
    """An empty histogram with the signed gauge layout."""
    return LogHistogram(
        name,
        min_value=GAUGE_MIN_VALUE,
        growth=GAUGE_GROWTH,
        n_buckets=GAUGE_N_BUCKETS,
        signed=True,
    )


class HistogramSet:
    """Name-keyed :class:`LogHistogram` collection with set-level merge.

    The serve tier hangs one of these off every shard (span latencies
    observed worker-side) plus one off the server (producer-side spans
    and retired shards' merged state); ``state()``/``merge()`` make the
    whole set travel like one recorder snapshot.
    """

    __slots__ = ("hists",)

    def __init__(self) -> None:
        """Start empty; histograms are created on first observe."""
        self.hists: dict[str, LogHistogram] = {}

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the histogram ``name`` (created lazily)."""
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = LogHistogram(name)
        hist.observe(value)

    def get(self, name: str) -> Optional[LogHistogram]:
        """The histogram ``name``, or ``None`` if never observed."""
        return self.hists.get(name)

    def __bool__(self) -> bool:
        """True when at least one histogram holds observations."""
        return any(h.count for h in self.hists.values())

    def state(self) -> dict:
        """``{name: histogram state}`` for every histogram in the set."""
        return {name: hist.state() for name, hist in self.hists.items()}

    def merge(self, state: Mapping) -> None:
        """Fold another set's :meth:`state` into this one, name by name."""
        for name, hist_state in state.items():
            hist = self.hists.get(name)
            if hist is None:
                self.hists[name] = LogHistogram.from_state(name, hist_state)
            else:
                hist.merge(hist_state)

    def copy(self) -> "HistogramSet":
        """Deep copy via state round-trip (cheap: fixed-budget state)."""
        clone = HistogramSet()
        clone.merge(self.state())
        return clone
