"""Tests for the baseline replacement policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tuples import StreamTuple
from repro.policies import (
    FarthestFromReferencePolicy,
    LfuPolicy,
    LifePolicy,
    LrukPolicy,
    LruPolicy,
    ProbPolicy,
    RandPolicy,
    SmallestValueFirstPolicy,
    TrendWindowOracle,
)
from repro.policies.base import PolicyContext
from repro.sim.cache_sim import CacheSimulator
from repro.sim.join_sim import JoinSimulator
from repro.streams import LinearTrendStream, bounded_uniform


def make_ctx(kind="join", time=0, cache_size=5, r_hist=None, s_hist=None, oracle=None):
    return PolicyContext(
        kind=kind,
        time=time,
        cache_size=cache_size,
        r_history=list(r_hist or []),
        s_history=list(s_hist or []),
        window_oracle=oracle,
    )


class TestRand:
    def test_deterministic_given_seed(self):
        candidates = [StreamTuple(i, "R", i, 0) for i in range(6)]
        ctx = make_ctx()
        a = RandPolicy(seed=3)
        a.reset(ctx)
        b = RandPolicy(seed=3)
        b.reset(ctx)
        va = {t.uid for t in a.select_victims(candidates, 2, ctx)}
        vb = {t.uid for t in b.select_victims(candidates, 2, ctx)}
        assert va == vb

    def test_evicts_requested_count(self):
        candidates = [StreamTuple(i, "R", i, 0) for i in range(6)]
        ctx = make_ctx()
        p = RandPolicy()
        p.reset(ctx)
        assert len(p.select_victims(candidates, 3, ctx)) == 3
        assert p.select_victims(candidates, 0, ctx) == []

    def test_window_aware_evicts_dead_first(self):
        r_model = LinearTrendStream(bounded_uniform(2), speed=1.0)
        s_model = LinearTrendStream(bounded_uniform(2), speed=1.0)
        oracle = TrendWindowOracle(r_model, s_model)
        t = 50
        dead = StreamTuple(0, "R", 40, 30)  # far behind the window
        alive = StreamTuple(1, "R", 50, 49)
        ctx = make_ctx(time=t, oracle=oracle)
        p = RandPolicy()
        p.reset(ctx)
        for _ in range(10):
            victims = p.select_victims([alive, dead], 1, ctx)
            assert victims == [dead]

    def test_window_oracle_asked_once_per_candidate(self):
        r_model = LinearTrendStream(bounded_uniform(2), speed=1.0)
        s_model = LinearTrendStream(bounded_uniform(2), speed=1.0)
        oracle = TrendWindowOracle(r_model, s_model)
        asked = []

        class CountingOracle:
            def is_dead(self, tup, t):
                asked.append(tup.uid)
                return oracle.is_dead(tup, t)

        candidates = [StreamTuple(i, "R", 40 + 2 * i, 30 + i) for i in range(8)]
        p = RandPolicy(seed=1)
        p.reset(make_ctx())
        victims = p.select_victims(
            candidates, 6, make_ctx(time=50, oracle=CountingOracle())
        )
        assert sorted(asked) == list(range(8))
        dead = [c for c in candidates if oracle.is_dead(c, 50)]
        assert 0 < len(dead) < 6
        assert victims[: len(dead)] == dead


class TestProb:
    def test_scores_by_partner_frequency(self):
        # R history irrelevant for R tuples; S tuples score by R history.
        ctx = make_ctx(
            r_hist=[1, 1, 1, 2],
            s_hist=[5, 5, 6, 7],
            time=3,
        )
        p = ProbPolicy()
        p.reset(ctx)
        # R tuple with value 5 occurs twice in S history; value 6 once.
        r5 = StreamTuple(0, "R", 5, 0)
        r6 = StreamTuple(1, "R", 6, 0)
        assert p.score(r5, ctx) > p.score(r6, ctx)
        # S tuple scores against R history.
        s1 = StreamTuple(2, "S", 1, 0)
        s2 = StreamTuple(3, "S", 2, 0)
        assert p.score(s1, ctx) > p.score(s2, ctx)

    def test_counts_update_incrementally(self):
        ctx = make_ctx(r_hist=[1], s_hist=[9], time=0)
        p = ProbPolicy()
        p.reset(ctx)
        s1 = StreamTuple(0, "S", 1, 0)
        first = p.score(s1, ctx)
        ctx.r_history.extend([1, 1])
        ctx.s_history.extend([9, 9])
        ctx.time = 2
        assert p.score(s1, ctx) > first

    def test_cache_kind_counts_reference_stream(self):
        ctx = make_ctx(kind="cache", r_hist=[4, 4, 9], time=2)
        p = ProbPolicy()
        p.reset(ctx)
        hot = StreamTuple(0, "S", 4, 0)
        cold = StreamTuple(1, "S", 9, 0)
        assert p.score(hot, ctx) > p.score(cold, ctx)

    def test_dead_tuples_sink_below_everything(self):
        r_model = LinearTrendStream(bounded_uniform(2), speed=1.0)
        s_model = LinearTrendStream(bounded_uniform(2), speed=1.0)
        oracle = TrendWindowOracle(r_model, s_model)
        ctx = make_ctx(time=50, oracle=oracle, r_hist=[40] * 10, s_hist=[0] * 10)
        p = ProbPolicy()
        p.reset(ctx)
        dead_but_frequent = StreamTuple(0, "S", 40, 30)
        alive_rare = StreamTuple(1, "S", 51, 50)
        assert p.score(alive_rare, ctx) > p.score(dead_but_frequent, ctx)

    def test_lfu_is_prob(self):
        assert issubclass(LfuPolicy, ProbPolicy)
        assert LfuPolicy().name == "LFU"


class TestLife:
    def test_requires_oracle(self):
        ctx = make_ctx()
        p = LifePolicy()
        p.reset(ctx)
        with pytest.raises(ValueError):
            p.score(StreamTuple(0, "R", 1, 0), ctx)

    def test_prefers_long_life_times_probability(self):
        r_model = LinearTrendStream(bounded_uniform(5), speed=1.0)
        s_model = LinearTrendStream(bounded_uniform(5), speed=1.0)
        oracle = TrendWindowOracle(r_model, s_model)
        t = 20
        # Equal frequency, different remaining life.
        ctx = make_ctx(
            time=t,
            oracle=oracle,
            r_hist=[18, 24] * 3,
            s_hist=[0] * 6,
        )
        p = LifePolicy()
        p.reset(ctx)
        short = StreamTuple(0, "S", 18, 10)  # window passes sooner
        long = StreamTuple(1, "S", 24, 19)
        assert p.score(long, ctx) > p.score(short, ctx)


class TestLruk:
    def test_lru2_prefers_frequently_revisited(self):
        # Value 1 referenced at 0 and 4; value 2 only at 5.  LRU evicts 1
        # (older last use... actually 2 is newer); LRU-2 evicts 2 (no 2nd
        # reference).
        ctx = make_ctx(kind="cache", r_hist=[1, 3, 3, 3, 1, 2], time=5)
        p = LrukPolicy(k=2)
        p.reset(ctx)
        v1 = StreamTuple(0, "S", 1, 0)
        v2 = StreamTuple(1, "S", 2, 5)
        assert p.score(v1, ctx) > p.score(v2, ctx)

    def test_lru1_matches_recency(self):
        ctx = make_ctx(kind="cache", r_hist=[1, 2], time=1)
        p = LrukPolicy(k=1)
        p.reset(ctx)
        v1 = StreamTuple(0, "S", 1, 0)
        v2 = StreamTuple(1, "S", 2, 1)
        assert p.score(v2, ctx) > p.score(v1, ctx)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            LrukPolicy(k=0)

    def test_lruk_runs_in_simulator(self):
        trace = [1, 2, 1, 3, 1, 2, 1, 4, 1, 2]
        result = CacheSimulator(2, LrukPolicy(k=2)).run(trace)
        # LRU-2 should protect the hot value 1.
        assert result.hits >= 4


class TestCaseOptimalPolicies:
    def test_smallest_value_first(self):
        ctx = make_ctx()
        p = SmallestValueFirstPolicy()
        tuples = [StreamTuple(i, "S", v, 0) for i, v in enumerate([5, 2, 9])]
        victims = p.select_victims(tuples, 1, ctx)
        assert victims[0].value == 2

    def test_farthest_from_reference(self):
        ctx = make_ctx(kind="cache", r_hist=[10, 20], time=1)
        p = FarthestFromReferencePolicy()
        tuples = [StreamTuple(i, "S", v, 0) for i, v in enumerate([19, 35, 22])]
        victims = p.select_victims(tuples, 1, ctx)
        assert victims[0].value == 35

    def test_farthest_skips_none_history(self):
        ctx = make_ctx(kind="cache", r_hist=[None, 7], time=1)
        p = FarthestFromReferencePolicy()
        t = StreamTuple(0, "S", 9, 0)
        assert p.score(t, ctx) == pytest.approx(-2.0)


class TestWindowOracle:
    def test_deadness_matches_model_window(self):
        r_model = LinearTrendStream(bounded_uniform(3), speed=1.0)
        s_model = LinearTrendStream(bounded_uniform(4), speed=1.0)
        oracle = TrendWindowOracle(r_model, s_model)
        t = 100
        # An S tuple joins R arrivals: dead once value < r_window_low
        # forever, i.e. last joinable time = value + w_r.
        s_tup = StreamTuple(0, "S", 98, 90)
        assert oracle.remaining_life(s_tup, t) == (98 + 3) - t
        assert not oracle.is_dead(s_tup, t)
        assert oracle.is_dead(s_tup, 101)

    def test_remaining_life_never_negative(self):
        r_model = LinearTrendStream(bounded_uniform(3), speed=1.0)
        oracle = TrendWindowOracle(r_model, r_model)
        tup = StreamTuple(0, "S", 0, 0)
        assert oracle.remaining_life(tup, 1000) == 0

    def test_static_window_never_dead(self):
        r_model = LinearTrendStream(bounded_uniform(3), speed=0.0)
        oracle = TrendWindowOracle(r_model, r_model)
        tup = StreamTuple(0, "S", 0, 0)
        assert not oracle.is_dead(tup, 10**9)


class TestPoliciesEndToEnd:
    def test_prob_beats_rand_on_stationary_streams(self, rng):
        """Section 5.2: PROB is optimal for stationary streams."""
        from repro.streams import StationaryStream, from_mapping

        dist = from_mapping({1: 0.55, 2: 0.25, 3: 0.1, 4: 0.05, 5: 0.05})
        model = StationaryStream(dist)
        totals = {"PROB": 0, "RAND": 0}
        for run in range(5):
            r = model.sample_path(800, np.random.default_rng(run))
            s = model.sample_path(800, np.random.default_rng(100 + run))
            for name, policy in (
                ("PROB", ProbPolicy()),
                ("RAND", RandPolicy(seed=run)),
            ):
                sim = JoinSimulator(4, policy)
                totals[name] += sim.run(r, s).total_results
        assert totals["PROB"] > totals["RAND"]

    def test_lru_beats_rand_on_local_trace(self):
        # A trace with heavy temporal locality.
        rng = np.random.default_rng(0)
        trace = []
        hot = 0
        for _ in range(1500):
            if rng.random() < 0.05:
                hot = int(rng.integers(0, 50))
            trace.append(hot if rng.random() < 0.8 else int(rng.integers(0, 50)))
        lru = CacheSimulator(5, LruPolicy()).run(trace)
        rand = CacheSimulator(5, RandPolicy(seed=1)).run(trace)
        assert lru.hits > rand.hits
