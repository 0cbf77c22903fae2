"""Mergeable log-bucketed latency histograms (:mod:`repro.obs.hist`).

The serve tier's latency story rests on three guarantees this suite
pins:

* **no observation is ever dropped** — underflow clamps to bucket 0,
  overflow to the last bucket, and exact bucket bounds settle correctly
  despite floating-point log;
* **same-layout merge is exact** — observations partitioned across
  shard histograms and merged back are *bucket-identical* to the
  unsharded histogram, so every quantile (p99 included) matches the
  unsharded run exactly, not just "within a bucket";
* **state round-trips as plain JSON** — the dict snapshots the serve
  tier ships across shard boundaries rebuild the histogram losslessly.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.obs.hist import (
    DEFAULT_GROWTH,
    DEFAULT_MIN_VALUE_MS,
    DEFAULT_N_BUCKETS,
    GAUGE_N_BUCKETS,
    HistogramSet,
    LogHistogram,
    gauge_histogram,
)


def filled(values, **kwargs) -> LogHistogram:
    hist = LogHistogram("test", **kwargs)
    for v in values:
        hist.observe(v)
    return hist


class TestBucketLayout:
    """Bucket geometry: bounds, boundary settling, clamping."""

    def test_constructor_validates_layout(self):
        with pytest.raises(ValueError):
            LogHistogram(min_value=0.0)
        with pytest.raises(ValueError):
            LogHistogram(growth=1.0)
        with pytest.raises(ValueError):
            LogHistogram(n_buckets=1)

    def test_default_layout_constants(self):
        hist = LogHistogram()
        assert hist.n_buckets == DEFAULT_N_BUCKETS
        assert hist.min_value == DEFAULT_MIN_VALUE_MS
        assert hist.growth == DEFAULT_GROWTH

    def test_bounds_grow_geometrically(self):
        hist = LogHistogram(min_value=1.0, growth=2.0, n_buckets=8)
        assert [hist.bucket_bound(i) for i in range(4)] == [1, 2, 4, 8]

    def test_exact_boundary_values_land_in_their_bucket(self):
        # bound[i] is inclusive: v == min * growth**i belongs to bucket i.
        hist = LogHistogram(min_value=1e-3, growth=2.0, n_buckets=44)
        for i in range(0, 40):
            v = hist.bucket_bound(i)
            assert hist.bucket_index(v) == i, f"bound {i} misplaced"
            # Just above an inclusive bound falls into the next bucket.
            assert hist.bucket_index(v * 1.0000001) == i + 1

    def test_underflow_and_overflow_clamp(self):
        hist = LogHistogram(min_value=1.0, growth=2.0, n_buckets=4)
        assert hist.bucket_index(0.0) == 0
        assert hist.bucket_index(-5.0) == 0
        assert hist.bucket_index(1e12) == 3
        hist.observe(1e12)
        assert hist.count == 1  # overflow counted, not dropped

    def test_every_observation_lands_somewhere(self):
        rng = random.Random(7)
        hist = LogHistogram()
        values = [rng.lognormvariate(0.0, 3.0) for _ in range(500)]
        for v in values:
            hist.observe(v)
        assert sum(hist.counts) == hist.count == 500
        assert hist.total == pytest.approx(sum(values))
        assert hist.vmin == min(values)
        assert hist.vmax == max(values)


def _edge_values(hist: LogHistogram) -> list[float]:
    """Every bound, the floats either side of it, and the far ends."""
    values = [0.0, -0.0, 1e-9, -1e-9, 1e-300, -1e-300, 1e300, -1e300]
    for i in range(hist.n_buckets):
        b = hist.bucket_bound(i)
        values += [b, math.nextafter(b, math.inf), math.nextafter(b, -math.inf)]
    return values


class TestBucketIndexRule:
    """``bucket_index`` is "first bound >= v", clamped to the overflow."""

    @pytest.mark.parametrize(
        "hist", [LogHistogram(), gauge_histogram()], ids=["latency", "gauge"]
    )
    def test_matches_brute_force_on_edge_values(self, hist):
        bounds = [hist.bucket_bound(i) for i in range(hist.n_buckets)]
        for v in _edge_values(hist):
            expected = next(
                (i for i, b in enumerate(bounds) if b >= v), len(bounds) - 1
            )
            assert hist.bucket_index(v) == expected, v


class TestSignedLayout:
    """The gauge layout: mirrored buckets and a zero bucket."""

    def test_layout_is_mirrored_around_zero(self):
        hist = gauge_histogram()
        assert hist.n_buckets == GAUGE_N_BUCKETS
        bounds = [hist.bucket_bound(i) for i in range(hist.n_buckets)]
        zero = bounds.index(0.0)
        negative = bounds[: zero - 1]
        positive = bounds[zero + 1 :]
        assert [-b for b in reversed(negative)] == positive[:-1]
        assert bounds == sorted(bounds)

    def test_only_zeros_share_the_zero_bucket(self):
        hist = gauge_histogram()
        zero = hist.bucket_index(0.0)
        assert hist.bucket_index(-0.0) == zero
        assert hist.bucket_index(math.ulp(0.0)) == zero + 1
        assert hist.bucket_index(-math.ulp(0.0)) == zero - 1

    def test_signed_layout_validated(self):
        with pytest.raises(ValueError):
            LogHistogram(n_buckets=6, signed=True)
        with pytest.raises(ValueError):
            LogHistogram(n_buckets=3, signed=True)

    def test_negative_quantiles_and_extremes(self):
        values = [-800.0, -40.0, -3.0, -0.5, 0.0, 2.0]
        hist = filled(values, min_value=1e-6, growth=2.0**0.125,
                      n_buckets=GAUGE_N_BUCKETS, signed=True)
        assert hist.quantile(0.0) == -800.0
        assert hist.quantile(1.0) == 2.0
        assert hist.quantile(0.5) == pytest.approx(-3.0, rel=0.1)

    def test_rebin_between_layouts_preserves_count(self):
        gauge = filled([-5.0, 0.0, 3.0, 70.0], min_value=1e-6,
                       growth=2.0**0.125, n_buckets=GAUGE_N_BUCKETS,
                       signed=True)
        target = LogHistogram()
        target.merge(gauge.state())
        assert target.count == sum(target.counts) == 4
        back = gauge_histogram()
        back.merge(filled([0.5, 3.0, 70.0]).state())
        assert back.count == sum(back.counts) == 3
        assert back.quantile(1.0) == 70.0


class TestQuantiles:
    """Quantile interpolation, clamping, and the log-bucket bound."""

    def test_empty_histogram(self):
        hist = LogHistogram()
        assert hist.count == 0
        assert hist.mean is None
        assert hist.quantile(0.99) is None
        assert hist.percentiles()["p50"] is None

    def test_quantile_domain_checked(self):
        with pytest.raises(ValueError):
            LogHistogram().quantile(1.5)

    def test_single_value_reports_exact_extremes(self):
        hist = filled([3.7])
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(3.7)

    def test_quantiles_within_one_bucket_of_truth(self):
        rng = random.Random(11)
        values = sorted(rng.uniform(0.01, 500.0) for _ in range(1000))
        hist = filled(values)
        for q in (0.5, 0.9, 0.99):
            true = values[int(q * len(values)) - 1]
            est = hist.quantile(q)
            # The estimate lives within one geometric bucket of truth.
            assert true / hist.growth <= est <= true * hist.growth

    def test_quantiles_monotone_and_clamped(self):
        hist = filled([0.5, 1.5, 2.5, 100.0])
        qs = [hist.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)
        assert qs[0] >= hist.vmin
        assert qs[-1] <= hist.vmax

    def test_percentiles_summary_shape(self):
        pct = filled([1.0, 2.0, 4.0]).percentiles()
        assert set(pct) == {"count", "p50", "p90", "p99", "max"}
        assert pct["count"] == 3
        assert pct["max"] == 4.0

    def test_mean_matches_arithmetic_mean(self):
        assert filled([1.0, 2.0, 3.0]).mean == pytest.approx(2.0)


class TestMerge:
    """Exact same-layout merge; lossless mismatched-layout rebin."""

    def test_partitioned_merge_is_bucket_identical(self):
        # The acceptance bound for live resharding: observations split
        # across shard histograms and merged equal the unsharded
        # histogram exactly — counts, sum, extremes, and thus p99.
        rng = random.Random(23)
        values = [rng.lognormvariate(1.0, 2.0) for _ in range(600)]
        whole = filled(values)
        shards = [LogHistogram("s") for _ in range(3)]
        for i, v in enumerate(values):
            shards[i % 3].observe(v)
        merged = LogHistogram("merged")
        for shard in shards:
            merged.merge(shard.state())
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.total == pytest.approx(whole.total)
        assert merged.vmin == whole.vmin
        assert merged.vmax == whole.vmax
        for q in (0.5, 0.9, 0.99):
            assert merged.quantile(q) == pytest.approx(whole.quantile(q))

    def test_merge_is_commutative(self):
        a = filled([0.1, 5.0, 40.0])
        b = filled([0.7, 0.7, 900.0])
        ab = filled([0.1, 5.0, 40.0])
        ab.merge(b.state())
        ba = filled([0.7, 0.7, 900.0])
        ba.merge(a.state())
        assert ab.counts == ba.counts
        assert ab.count == ba.count == 6

    def test_merge_into_empty_equals_donor(self):
        donor = filled([1.0, 2.0, 3.0])
        empty = LogHistogram("empty")
        empty.merge(donor.state())
        assert empty.counts == donor.counts
        assert empty.vmin == donor.vmin and empty.vmax == donor.vmax

    def test_mismatched_layout_rebin_preserves_count_and_sum(self):
        donor = filled([0.5, 3.0, 77.0], min_value=0.1, growth=3.0,
                       n_buckets=12)
        target = filled([10.0])
        target.merge(donor.state())
        assert target.count == 4
        assert sum(target.counts) == 4
        assert target.total == pytest.approx(10.0 + 0.5 + 3.0 + 77.0)
        assert target.vmin == 0.5
        assert target.vmax == 77.0


class TestState:
    """JSON snapshots rebuild histograms losslessly."""

    def test_state_round_trip(self):
        hist = filled([0.002, 1.5, 88.0, 4000.0])
        clone = LogHistogram.from_state("test", hist.state())
        assert clone.counts == hist.counts
        assert clone.count == hist.count
        assert clone.total == hist.total
        assert clone.vmin == hist.vmin and clone.vmax == hist.vmax
        assert clone.quantile(0.99) == hist.quantile(0.99)

    def test_state_is_json_serializable(self):
        hist = filled([1.0, 2.0])
        rebuilt = LogHistogram.from_state(
            "test", json.loads(json.dumps(hist.state()))
        )
        assert rebuilt.counts == hist.counts

    def test_empty_state_round_trip(self):
        clone = LogHistogram.from_state("e", LogHistogram().state())
        assert clone.count == 0
        assert clone.vmin is None and clone.vmax is None


class TestCumulativeBuckets:
    """The Prometheus-facing cumulative view."""

    def test_ends_with_infinity_bucket(self):
        hist = filled([1.0, 2.0, 2.0, 64.0])
        pairs = hist.cumulative_buckets()
        bound, cum = pairs[-1]
        assert math.isinf(bound)
        assert cum == hist.count

    def test_cumulative_counts_are_nondecreasing(self):
        hist = filled([0.1, 1.0, 10.0, 100.0, 1000.0])
        cums = [c for _, c in hist.cumulative_buckets()]
        assert cums == sorted(cums)

    def test_empty_histogram_renders_compactly(self):
        pairs = LogHistogram().cumulative_buckets()
        assert pairs == [(math.inf, 0)]

    def test_trailing_empty_buckets_elided(self):
        hist = filled([1.0])  # far below the top of the default range
        pairs = hist.cumulative_buckets()
        assert len(pairs) < DEFAULT_N_BUCKETS


class TestHistogramSet:
    """The name-keyed collection the serve shards carry."""

    def test_observe_creates_lazily_and_get(self):
        hs = HistogramSet()
        assert not hs
        assert hs.get("a") is None
        hs.observe("a", 1.0)
        assert hs
        assert hs.get("a").count == 1

    def test_set_merge_unions_names(self):
        a = HistogramSet()
        a.observe("x", 1.0)
        a.observe("y", 2.0)
        b = HistogramSet()
        b.observe("y", 3.0)
        b.observe("z", 4.0)
        a.merge(b.state())
        assert set(a.hists) == {"x", "y", "z"}
        assert a.get("y").count == 2
        assert a.get("z").count == 1

    def test_copy_is_independent(self):
        hs = HistogramSet()
        hs.observe("x", 1.0)
        clone = hs.copy()
        clone.observe("x", 2.0)
        assert hs.get("x").count == 1
        assert clone.get("x").count == 2

    def test_state_round_trip(self):
        hs = HistogramSet()
        hs.observe("x", 5.0)
        rebuilt = HistogramSet()
        rebuilt.merge(json.loads(json.dumps(hs.state())))
        assert rebuilt.get("x").counts == hs.get("x").counts
