"""Per-step series telemetry: cross-engine parity and emitter coverage.

Pins the acceptance contract of the time-series layer:

* the batch engine's simulator series are **bit-identical** to the
  scalar engine's — full snapshot states including downsampling buffers
  and quantile histograms — because batch replays its per-trial logs
  trial-major in the same order the scalar loop offered them;
* the parallel engine's merge keeps count/sum/min/max exact and the
  merged quantile histograms equal the scalar run's bucket for bucket;
* every documented emitter actually emits: simulators (occupancy,
  cumulative results/hits, hit rate), scored policies (score cutoff,
  mirrored bit-identically by the batch tier for exactly-scored
  adapters), and the FlowExpect fast path (per-solve latency, memo hit
  rate — scalar-only, since batch shares one memo across trials).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.obs import CounterRecorder, NullRecorder
from repro.policies import LruPolicy, make_policy
from repro.policies.flowexpect_policy import FlowExpectPolicy
from repro.sim.cache_sim import CacheSimulator
from repro.sim.engine import ExperimentSpec, ParallelEngine, ScalarEngine
from repro.sim.join_sim import JoinSimulator
from repro.sim.runner import (
    generate_paths,
    generate_reference_paths,
    run_experiment,
)
from repro.streams import RandomWalkStream, make_stream
from repro.streams.noise import bounded_uniform, discretized_normal

CACHE = 3

#: Series emitted by the join simulator itself (engine-independent).
JOIN_SIM_SERIES = {"cache.occupancy", "join.results.cum"}
#: Series emitted by the cache simulator itself.
CACHE_SIM_SERIES = {"cache.occupancy", "cache.hits.cum", "cache.hit_rate"}


def _join_spec_and_paths(n_runs=4, length=70, seed=11):
    step = discretized_normal(1.0)
    r_model = make_stream("random-walk", step=step)
    s_model = make_stream("random-walk", step=step)
    spec = ExperimentSpec(
        kind="join", cache_size=CACHE, r_model=r_model, s_model=s_model
    )
    return spec, generate_paths(r_model, s_model, length, n_runs, seed=seed)


def _cache_spec_and_paths(n_runs=4, length=80, seed=9):
    model = make_stream("random-walk", step=bounded_uniform(2))
    spec = ExperimentSpec(kind="cache", cache_size=CACHE, r_model=model)
    return spec, generate_reference_paths(model, length, n_runs, seed=seed)


def _series_snapshot(spec, paths, engine=None):
    rec = CounterRecorder()
    run_experiment(spec, lambda: LruPolicy(), paths, engine=engine, recorder=rec)
    return rec.snapshot().get("series", {})


class TestBatchSeriesParity:
    """Scalar and batch produce bit-identical simulator series."""

    def test_join_series_identical(self):
        spec, paths = _join_spec_and_paths()
        scalar = _series_snapshot(spec, paths)
        batch = _series_snapshot(spec, paths, engine="batch")
        assert JOIN_SIM_SERIES <= set(scalar)
        # The batch tier mirrors the simulator series AND the scored
        # policies' scores.cutoff (LRU is exactly scored), all
        # bit-identical; trace events remain scalar-only.
        assert set(batch) == JOIN_SIM_SERIES | {"scores.cutoff"}
        for name in sorted(set(batch)):
            assert scalar[name] == batch[name], name

    def test_cache_series_identical(self):
        spec, paths = _cache_spec_and_paths()
        scalar = _series_snapshot(spec, paths)
        batch = _series_snapshot(spec, paths, engine="batch")
        assert CACHE_SIM_SERIES <= set(scalar)
        for name in (*CACHE_SIM_SERIES, "scores.cutoff"):
            assert scalar[name] == batch[name], name

    def test_hit_rate_division_matches_scalar(self):
        # hit_rate is int/int in both tiers — the *same* operands, so
        # the float results are bit-equal, not merely close.
        spec, paths = _cache_spec_and_paths(n_runs=2, length=60, seed=3)
        scalar = _series_snapshot(spec, paths)
        batch = _series_snapshot(spec, paths, engine="batch")
        assert (
            scalar["cache.hit_rate"]["buffer"]["points"]
            == batch["cache.hit_rate"]["buffer"]["points"]
        )
        # The whole snapshot, quantile histogram included.
        assert scalar["cache.hit_rate"]["hist"] is not None
        assert scalar["cache.hit_rate"] == batch["cache.hit_rate"]


class TestParallelSeriesMerge:
    """Worker series merge back exactly: aggregates and histograms."""

    def test_merged_aggregates_and_quantiles(self):
        spec, paths = _join_spec_and_paths()
        rec_scalar, rec_par = CounterRecorder(), CounterRecorder()
        ScalarEngine().run(spec, lambda: LruPolicy(), paths, recorder=rec_scalar)
        ParallelEngine(max_workers=2).run(
            spec, lambda: LruPolicy(), paths, recorder=rec_par
        )
        scalar = rec_scalar.snapshot()["series"]
        par = rec_par.snapshot()["series"]
        for name in JOIN_SIM_SERIES:
            s, p = scalar[name], par[name]
            assert p["count"] == s["count"]
            assert p["min"] == s["min"]
            assert p["max"] == s["max"]
            assert p["sum"] == pytest.approx(s["sum"], rel=1e-12)
            # Histograms merge by adding bucket counts, so the merged
            # state equals the scalar run's (integer-valued series, so
            # even the histogram's float sum is order-free).
            assert p["hist"] == s["hist"], name
        # cache.occupancy is a gauge; join.results.cum a counter.
        assert scalar["cache.occupancy"]["hist"] is not None
        assert scalar["join.results.cum"]["hist"] is None
        from repro.obs import TimeSeries

        for name in JOIN_SIM_SERIES:
            ts_s = TimeSeries.from_state(name, scalar[name])
            ts_p = TimeSeries.from_state(name, par[name])
            for q in (0.5, 0.9, 0.99):
                assert ts_p.quantile(q) == ts_s.quantile(q), (name, q)


class TestServeSeriesHistogram:
    """A span series and the span latency histogram are one estimator."""

    def test_decide_series_equals_latency_histogram(self):
        from repro.policies import make_policy
        from repro.serve import StreamServer, run_replay

        servers = []

        def factory(*args, **kwargs):
            servers.append(StreamServer(*args, **kwargs))
            return servers[-1]

        rec = CounterRecorder()
        r = [i % 7 for i in range(300)]
        s = [(i + 3) % 7 for i in range(300)]
        summary = run_replay(
            ExperimentSpec(kind="join", cache_size=4),
            lambda: make_policy("lru"),
            r,
            s,
            recorder=rec,
            server_factory=factory,
        )
        name = "serve.span.decide_ms"
        series_hist = rec.series_data[name].hist
        live_hist = servers[0].latency_histograms()[name]
        assert series_hist.count == live_hist.count == 300
        assert series_hist.counts == live_hist.counts
        assert series_hist.state() == live_hist.state()
        assert rec.series_data[name].quantile(0.99) == summary.p99_decide_ms


class TestEmitters:
    """Each documented series name is actually produced."""

    def test_scored_policy_emits_cutoff(self):
        spec, paths = _join_spec_and_paths(n_runs=1)
        series = _series_snapshot(spec, paths)
        assert "scores.cutoff" in series
        assert series["scores.cutoff"]["count"] > 0

    def test_flowexpect_fast_path_emits_latency_and_hit_rate(self):
        model = RandomWalkStream(step=bounded_uniform(3))
        r = model.sample_path(60, np.random.default_rng(1))
        s = model.sample_path(60, np.random.default_rng(2))
        rec = CounterRecorder()
        policy = FlowExpectPolicy(4, model, model, fast=True)
        JoinSimulator(4, policy, recorder=rec).run(r, s)
        series = rec.snapshot()["series"]
        assert series["flow.solve_ms"]["count"] > 0
        assert series["flow.solve_ms"]["min"] >= 0.0
        hit_rate = series["prob_table.hit_rate"]
        assert 0.0 <= hit_rate["min"] <= hit_rate["max"] <= 1.0

    def test_cache_sim_emits_on_hits_and_misses(self):
        # A reference stream with guaranteed repeats: occupancy series
        # must cover hit steps too, not only the miss path.
        rec = CounterRecorder()
        sim = CacheSimulator(2, make_policy("lru"), recorder=rec)
        sim.run([1, 1, 2, 2, 3, 1])
        series = rec.snapshot()["series"]
        counters = rec.snapshot()["counters"]
        assert counters["cache.hits"] > 0
        # One occupancy point per observed reference — hits included.
        assert series["cache.occupancy"]["count"] == 6
        assert series["cache.hit_rate"]["last"] == counters["cache.hits"] / 6

    def test_null_recorder_collects_no_series(self):
        spec, paths = _join_spec_and_paths(n_runs=1)
        rec = NullRecorder()
        run_experiment(spec, lambda: LruPolicy(), paths, recorder=rec)
        assert rec.enabled is False

    def test_series_absent_from_snapshot_when_unused(self):
        rec = CounterRecorder()
        rec.count("x")
        assert "series" not in rec.snapshot()
