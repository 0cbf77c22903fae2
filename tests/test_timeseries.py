"""Bounded-memory time-series primitives: buffers, histograms, merging.

Pins the contracts ``docs/OBSERVABILITY.md`` states for
:mod:`repro.obs.timeseries`:

* a gauge series' quantiles come from its log histogram: every
  ``quantile(q)`` is within one bucket's relative width of the exact
  quantile and inside the observed ``[min, max]``, for any ``q``;
* histogram state round-trips through JSON exactly, and merging is
  associative and bucket-identical to the histogram of the
  concatenated stream;
* ``.cum`` counters keep aggregates and the buffer but no histogram,
  and a snapshot from before histograms restores without quantiles;
* :class:`SeriesBuffer` never exceeds its budget regardless of stream
  length, keeps an evenly-strided sample, and is deterministic in the
  order points are offered;
* :class:`TimeSeries` snapshots round-trip through ``from_state`` and
  ``merge`` preserves the exact aggregates (count/sum/min/max);
* :func:`sparkline` renders any numeric list without blowing up on
  constant or empty input.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.obs import LogHistogram, SeriesBuffer, TimeSeries, sparkline
from repro.obs.hist import GAUGE_GROWTH, GAUGE_MIN_VALUE

QS = (0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0)


def _streams() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(2005)
    mixed = np.concatenate(
        [rng.normal(0.0, 50.0, 3000), -rng.exponential(0.01, 500),
         np.zeros(400)]
    )
    rng.shuffle(mixed)
    return {
        "normal": rng.normal(10.0, 3.0, 4000),
        "exponential": rng.exponential(2.0, 4000),
        "mixed-sign": mixed,
    }


def _series(name: str, values) -> TimeSeries:
    ts = TimeSeries(name)
    for t, v in enumerate(values):
        ts.add(t, float(v))
    return ts


class TestHistogramQuantiles:
    """Gauge quantiles from the signed log histogram."""

    @pytest.mark.parametrize("stream", ["normal", "exponential", "mixed-sign"])
    def test_within_one_bucket_of_exact(self, stream):
        values = _streams()[stream]
        ts = _series("scores.cutoff", values)
        for q in QS:
            est = ts.quantile(q)
            # The histogram's rank rule is the inverted CDF: the
            # estimate shares a bucket with that order statistic.
            exact = float(np.quantile(values, q, method="inverted_cdf"))
            tol = (GAUGE_GROWTH - 1.0) * abs(exact) + GAUGE_MIN_VALUE
            assert abs(est - exact) <= tol, (stream, q, est, exact)
            assert values.min() <= est <= values.max()
        assert ts.quantile(0.0) == values.min()
        assert ts.quantile(1.0) == values.max()

    def test_zeros_have_their_own_bucket(self):
        ts = _series("scores.cutoff", [-3.0, 0.0, 0.0, 0.0, 5.0])
        assert ts.quantile(0.5) == 0.0
        assert ts.hist.counts[ts.hist.bucket_index(0.0)] == 3
        assert ts.hist.bucket_index(-1e-300) != ts.hist.bucket_index(0.0)
        assert ts.hist.bucket_index(1e-300) != ts.hist.bucket_index(0.0)

    def test_any_q_and_domain(self):
        ts = _series("cache.occupancy", range(1, 101))
        assert ts.quantile(0.37) == pytest.approx(37.0, rel=GAUGE_GROWTH - 1)
        with pytest.raises(ValueError):
            ts.quantile(1.5)
        assert TimeSeries("cache.occupancy").quantile(0.5) is None


class TestSeriesKinds:
    """The histogram layout follows the series kind."""

    def test_latency_series_use_the_span_layout(self):
        hist = TimeSeries("serve.span.decide_ms").hist
        default = LogHistogram()
        assert hist.signed is False
        assert hist.n_buckets == default.n_buckets
        assert [hist.bucket_bound(i) for i in range(hist.n_buckets)] == [
            default.bucket_bound(i) for i in range(default.n_buckets)
        ]

    @pytest.mark.parametrize(
        "name", ["join.results.cum", "cache.hits.cum", "admission.rejects.cum"]
    )
    def test_counters_have_no_histogram(self, name):
        ts = _series(name, range(10))
        assert ts.hist is None
        assert ts.quantile(0.5) is None
        snap = ts.snapshot()
        assert snap["hist"] is None
        assert snap["last"] == 9.0 and snap["count"] == 10
        assert len(snap["buffer"]["points"]) == 10

    def test_gauges_are_signed_and_share_one_bounds_table(self):
        a, b = TimeSeries("scores.cutoff"), TimeSeries("cache.hit_rate")
        assert a.hist.signed and b.hist.signed
        assert a.hist._bounds is b.hist._bounds


class TestHistogramState:
    """JSON round-trip and exact, associative merge."""

    def test_json_round_trip_is_exact(self):
        values = _streams()["mixed-sign"]
        ts = _series("scores.cutoff", values)
        clone = TimeSeries.from_state(
            "scores.cutoff", json.loads(json.dumps(ts.snapshot()))
        )
        assert clone.snapshot() == ts.snapshot()
        for q in QS:
            assert clone.quantile(q) == ts.quantile(q)

    def test_merge_is_associative_and_equals_concatenation(self):
        values = _streams()["mixed-sign"]
        parts = np.array_split(values, 3)
        whole = _series("scores.cutoff", values)

        def merged(order):
            acc = TimeSeries("scores.cutoff")
            for part in order:
                acc.merge(part.snapshot())
            return acc

        a, b, c = (_series("scores.cutoff", p) for p in parts)
        left = merged([a, b])
        left.merge(c.snapshot())
        bc = merged([b, c])
        right = TimeSeries.from_state("scores.cutoff", a.snapshot())
        right.merge(bc.snapshot())
        for ts in (left, right):
            assert ts.hist.counts == whole.hist.counts
            assert ts.hist.count == whole.hist.count
            assert ts.hist.vmin == whole.hist.vmin
            assert ts.hist.vmax == whole.hist.vmax
            assert ts.hist.total == pytest.approx(whole.hist.total)
            for q in QS:
                assert ts.quantile(q) == whole.quantile(q)

    def test_pre_histogram_snapshot_loads_without_quantiles(self):
        # A snapshot written before histograms carried P² marker state
        # under "quantiles"; the aggregates and buffer survive, and the
        # series has no quantile estimate.
        legacy = {
            "count": 3,
            "sum": 6.0,
            "min": 1.0,
            "max": 3.0,
            "last_t": 2,
            "last": 3.0,
            "buffer": {
                "budget": 512,
                "stride": 1,
                "offered": 3,
                "points": [[0, 1.0], [1, 2.0], [2, 3.0]],
            },
            "quantiles": {
                "0.5": {
                    "q": 0.5,
                    "count": 3.0,
                    "initial": [[1.0, 1.0], [2.0, 1.0], 3.0],
                    "heights": [],
                    "positions": [],
                    "desired": [],
                }
            },
        }
        ts = TimeSeries.from_state("cache.occupancy", legacy)
        assert (ts.count, ts.total, ts.vmin, ts.vmax) == (3, 6.0, 1.0, 3.0)
        assert (ts.last_t, ts.last) == (2, 3.0)
        assert ts.buffer.points == [(0, 1.0), (1, 2.0), (2, 3.0)]
        assert ts.hist is None
        assert ts.quantile(0.5) is None
        assert "quantiles" not in ts.snapshot()
        # A partial histogram would misreport, so none is grown later,
        # and merging the legacy state into a live series drops its own.
        ts.add(3, 4.0)
        ts.merge(_series("cache.occupancy", [5.0]).snapshot())
        assert ts.quantile(0.5) is None and ts.count == 5
        live = _series("cache.occupancy", [1.0, 2.0])
        live.merge(legacy)
        assert live.hist is None and live.count == 5


class TestSeriesBuffer:
    """Fixed-budget downsampling buffer."""

    def test_never_exceeds_budget(self):
        buf = SeriesBuffer(budget=16)
        for t in range(10_000):
            buf.add(t, float(t))
        state = buf.state()
        assert len(state["points"]) <= 16
        assert state["offered"] == 10_000

    def test_keeps_evenly_strided_sample(self):
        buf = SeriesBuffer(budget=8)
        for t in range(100):
            buf.add(t, float(t))
        ts = [t for t, _ in buf.state()["points"]]
        strides = {b - a for a, b in zip(ts, ts[1:])}
        assert len(strides) == 1  # uniform spacing
        assert ts[0] == 0

    def test_exact_below_budget(self):
        buf = SeriesBuffer(budget=64)
        points = [[t, t * 0.5] for t in range(20)]
        for t, v in points:
            buf.add(t, v)
        assert buf.state()["points"] == points

    def test_deterministic_in_offer_order(self):
        a, b = SeriesBuffer(budget=8), SeriesBuffer(budget=8)
        for t in range(500):
            a.add(t, float(t % 7))
            b.add(t, float(t % 7))
        assert a.state() == b.state()

    def test_merge_respects_budget(self):
        a, b = SeriesBuffer(budget=8), SeriesBuffer(budget=8)
        for t in range(100):
            a.add(t, float(t))
            b.add(100 + t, float(t))
        a.merge(b.state())
        state = a.state()
        assert len(state["points"]) <= 8
        assert state["offered"] == 200
        ts = [t for t, _ in state["points"]]
        assert ts == sorted(ts)


class TestTimeSeries:
    """Combined aggregates + buffer + histogram."""

    def test_exact_aggregates(self):
        ts = TimeSeries("gauge")
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        for t, v in enumerate(values):
            ts.add(t, v)
        snap = ts.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == sum(values)
        assert snap["min"] == 1.0
        assert snap["max"] == 5.0
        assert snap["last"] == 5.0
        assert snap["last_t"] == 4

    def test_snapshot_round_trip(self):
        ts = TimeSeries("gauge", budget=16)
        for t in range(200):
            ts.add(t, float(t % 13))
        clone = TimeSeries.from_state("gauge", ts.snapshot())
        assert clone.snapshot() == ts.snapshot()

    def test_merge_exact_on_scalar_aggregates(self):
        full = TimeSeries("g")
        left, right = TimeSeries("g"), TimeSeries("g")
        rng = np.random.default_rng(11)
        for t, v in enumerate(rng.uniform(0, 10, size=600)):
            full.add(t, float(v))
            (left if t < 300 else right).add(t, float(v))
        left.merge(right.snapshot())
        a, b = left.snapshot(), full.snapshot()
        for key in ("count", "min", "max", "last", "last_t"):
            assert a[key] == b[key]
        # Sum is exact up to float summation order.
        assert a["sum"] == pytest.approx(b["sum"], rel=1e-12)
        # Histograms merge by adding bucket counts: quantiles are exact.
        assert a["hist"]["counts"] == b["hist"]["counts"]
        for q in (0.5, 0.9, 0.99):
            assert left.quantile(q) == pytest.approx(full.quantile(q))

    def test_snapshot_is_json_serializable(self):
        import json

        ts = TimeSeries("g")
        for t in range(50):
            ts.add(t, float(t))
        json.dumps(ts.snapshot())


class TestSparkline:
    """Unicode rendering edge cases."""

    def test_monotone_ramp_uses_full_range(self):
        line = sparkline(list(range(48)))
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_constant_series_is_flat(self):
        line = sparkline([5.0] * 10)
        assert len(set(line)) == 1
        assert len(line) == 10

    def test_empty_is_empty(self):
        assert sparkline([]) == ""

    def test_downsamples_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40
