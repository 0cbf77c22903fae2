"""Tests for HEEB strategies and the HEEB policy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lifetime import LExp, LFixed
from repro.core.tuples import StreamTuple
from repro.policies import make_policy
from repro.policies.base import PolicyContext
from repro.policies.heeb_policy import (
    AR1CacheHeeb,
    AR1JoinHeeb,
    BandJoinHeeb,
    GenericCacheHeeb,
    GenericJoinHeeb,
    HeebPolicy,
    TrendJoinHeeb,
    WalkCacheHeeb,
    WalkJoinHeeb,
)
from repro.sim.cache_sim import CacheSimulator
from repro.sim.join_sim import JoinSimulator
from repro.streams import (
    AR1Stream,
    LinearTrendStream,
    RandomWalkStream,
    StationaryStream,
    bounded_normal,
    bounded_uniform,
    discretized_normal,
    from_mapping,
)

ALPHA = 8.0


def join_ctx(r_model, s_model, time, r_hist, s_hist, cache_size=5, window=None):
    return PolicyContext(
        kind="join",
        time=time,
        cache_size=cache_size,
        r_history=list(r_hist),
        s_history=list(s_hist),
        r_model=r_model,
        s_model=s_model,
        window=window,
    )


class TestTrendJoinHeebAgainstGeneric:
    def test_table_matches_direct_sum(self):
        r_model = LinearTrendStream(bounded_normal(5, 2.0), speed=1.0, lag=1)
        s_model = LinearTrendStream(bounded_uniform(7), speed=1.0)
        generic = GenericJoinHeeb(LExp(ALPHA))
        fast = TrendJoinHeeb(LExp(ALPHA))
        t0 = 60
        ctx = join_ctx(r_model, s_model, t0, [t0 - 1] * (t0 + 1), [t0] * (t0 + 1))
        fast.reset(ctx)
        for side, values in (("R", range(t0 - 8, t0 + 6)), ("S", range(t0 - 6, t0 + 6))):
            for i, v in enumerate(values):
                tup = StreamTuple(i, side, v, t0)
                assert fast.h_value(tup, ctx) == pytest.approx(
                    generic.h_value(tup, ctx), abs=1e-9
                ), (side, v)

    def test_rejects_non_trend_partner(self):
        model = StationaryStream(from_mapping({1: 1.0}))
        fast = TrendJoinHeeb(LExp(ALPHA))
        ctx = join_ctx(model, model, 0, [1], [1])
        with pytest.raises(ValueError):
            fast.h_value(StreamTuple(0, "R", 1, 0), ctx)

    def test_requires_lexp(self):
        with pytest.raises(ValueError):
            TrendJoinHeeb(LFixed(5))

    def test_fractional_speed_fallback(self):
        r_model = LinearTrendStream(bounded_uniform(4), speed=0.5)
        s_model = LinearTrendStream(bounded_uniform(4), speed=0.5)
        generic = GenericJoinHeeb(LExp(ALPHA))
        fast = TrendJoinHeeb(LExp(ALPHA))
        t0 = 40
        ctx = join_ctx(r_model, s_model, t0, [20] * (t0 + 1), [20] * (t0 + 1))
        tup = StreamTuple(0, "S", 22, t0)
        assert fast.h_value(tup, ctx) == pytest.approx(
            generic.h_value(tup, ctx), abs=1e-6
        )


class TestWalkJoinHeebAgainstGeneric:
    def test_table_matches_direct_sum(self):
        step = discretized_normal(1.0)
        r_model = RandomWalkStream(step)
        s_model = RandomWalkStream(step)
        estimator = LExp(ALPHA)
        horizon = estimator.suggested_horizon(1e-9)
        generic = GenericJoinHeeb(estimator, horizon=horizon)
        fast = WalkJoinHeeb(estimator, horizon=horizon)
        t0 = 5
        r_hist = [0, 1, 1, 2, 3, 3]
        s_hist = [0, -1, -1, 0, 1, 2]
        ctx = join_ctx(r_model, s_model, t0, r_hist, s_hist)
        fast.reset(ctx)
        for side in ("R", "S"):
            for i, v in enumerate(range(-4, 8)):
                tup = StreamTuple(i, side, v, t0)
                assert fast.h_value(tup, ctx) == pytest.approx(
                    generic.h_value(tup, ctx), abs=1e-9
                ), (side, v)

    def test_empty_history_scores_zero(self):
        step = discretized_normal(1.0)
        model = RandomWalkStream(step)
        fast = WalkJoinHeeb(LExp(ALPHA), horizon=40)
        ctx = join_ctx(model, model, 0, [None], [None])
        assert fast.h_value(StreamTuple(0, "R", 0, 0), ctx) == 0.0


class TestAR1CacheHeebPolicy:
    def test_surface_strategy_runs_and_prefers_near_values(self):
        from repro.core.precompute import ar1_h2_cache

        model = AR1Stream(phi0=2.0, phi1=0.6, sigma=2.0, bucket=1.0)
        estimator = LExp(20.0)
        center = model.stationary_mean
        v_grid = np.linspace(center - 6, center + 6, 5).round().astype(int)
        x_grid = np.linspace(center - 6, center + 6, 5)
        surface = ar1_h2_cache(model, estimator, v_grid, x_grid, exact_steps=40)
        strategy = AR1CacheHeeb(model, surface)
        ctx = PolicyContext(
            kind="cache",
            time=3,
            cache_size=5,
            r_history=[model.to_bucket(center)] * 4,
            r_model=model,
        )
        near = StreamTuple(0, "S", model.to_bucket(center), 0)
        far = StreamTuple(1, "S", model.to_bucket(center + 5.5), 0)
        assert strategy.h_value(near, ctx) > strategy.h_value(far, ctx)


class TestGenericCacheHeeb:
    def test_matches_module_function(self, stationary_stream):
        from repro.core.heeb import heeb_cache

        strategy = GenericCacheHeeb(LExp(ALPHA))
        ctx = PolicyContext(
            kind="cache",
            time=2,
            cache_size=3,
            r_history=[1, 2, 1],
            r_model=stationary_stream,
        )
        tup = StreamTuple(0, "S", 1, 0)
        assert strategy.h_value(tup, ctx) == pytest.approx(
            heeb_cache(stationary_stream, 2, 1, LExp(ALPHA))
        )

    def test_requires_model(self):
        strategy = GenericCacheHeeb(LExp(ALPHA))
        ctx = PolicyContext(kind="cache", time=0, cache_size=1)
        with pytest.raises(ValueError):
            strategy.h_value(StreamTuple(0, "S", 1, 0), ctx)


class TestHeebPolicyEndToEnd:
    def test_heeb_beats_prob_on_trend_streams(self):
        """The headline claim: hardwired heuristics fail under trends."""
        from repro.policies import ProbPolicy

        r_model = LinearTrendStream(bounded_normal(10, 1.0), speed=1.0, lag=1)
        s_model = LinearTrendStream(bounded_normal(15, 2.0), speed=1.0)
        heeb_total = prob_total = 0
        for run in range(3):
            rng_r = np.random.default_rng(run)
            rng_s = np.random.default_rng(100 + run)
            r = r_model.sample_path(500, rng_r)
            s = s_model.sample_path(500, rng_s)
            heeb = HeebPolicy(TrendJoinHeeb(LExp(3.0)))
            heeb_total += (
                JoinSimulator(10, heeb, r_model=r_model, s_model=s_model)
                .run(r, s)
                .total_results
            )
            prob_total += JoinSimulator(10, ProbPolicy()).run(r, s).total_results
        assert heeb_total > 1.5 * prob_total

    def test_heeb_cache_matches_lfu_on_stationary(self):
        """Section 5.2: HEEB's stationary caching order equals LFU's, so
        hit counts should match closely."""
        from repro.policies import LfuPolicy

        dist = from_mapping({1: 0.4, 2: 0.3, 3: 0.15, 4: 0.1, 5: 0.05})
        model = StationaryStream(dist)
        rng = np.random.default_rng(1)
        trace = model.sample_path(2000, rng)
        heeb = HeebPolicy(GenericCacheHeeb(LExp(20.0), horizon=300))
        lfu = LfuPolicy()
        h = CacheSimulator(2, heeb, reference_model=model).run(trace)
        f = CacheSimulator(2, lfu).run(trace)
        # Identical asymptotic behavior; allow small transient differences.
        assert abs(h.hits - f.hits) <= 0.05 * f.hits


# ----------------------------------------------------------------------
# Set scoring: ScoredPolicy.score_many / HeebStrategy.h_values
# ----------------------------------------------------------------------
def _bits(xs):
    """Float64 bit patterns, so ``==`` means bit-for-bit equality."""
    return np.asarray(xs, dtype=np.float64).view(np.int64).tolist()


def _checking(policy, seen):
    """Assert ``score_many == [score(t) ...]`` bitwise at every eviction."""
    select = policy.select_victims

    def checked(candidates, n_evict, ctx):
        many = policy.score_many(candidates, ctx)
        single = [policy.score(tup, ctx) for tup in candidates]
        assert _bits(many) == _bits(single), ctx.time
        seen.append(len(candidates))
        return select(candidates, n_evict, ctx)

    policy.select_victims = checked
    return policy


def _join_paths(r_model, s_model, length, seed):
    rng = np.random.default_rng(seed)
    return r_model.sample_path(length, rng), s_model.sample_path(length, rng)


def _join_case(make, config_name=None, models=None, window=None, length=60):
    from repro.experiments.configs import make_config

    def run(seen):
        if config_name is not None:
            config = make_config(config_name)
            r_model, s_model = config.r_model, config.s_model
            oracle = config.window_oracle
            policy = make(config)
        else:
            r_model, s_model = models()
            oracle = None
            policy = make(r_model)
        r, s = _join_paths(r_model, s_model, length, seed=4)
        JoinSimulator(
            3,
            _checking(policy, seen),
            window=window,
            r_model=r_model,
            s_model=s_model,
            window_oracle=oracle,
        ).run(r, s)

    return run


def _cache_case(make, model, length=120):
    def run(seen):
        reference = model().sample_path(length, np.random.default_rng(6))
        m = model()
        CacheSimulator(
            4, _checking(make(m, reference), seen), reference_model=m
        ).run(reference)

    return run


def _stationary_pair():
    dist = from_mapping({1: 0.4, 2: 0.25, 3: 0.2, 4: 0.1, 5: 0.05})
    return StationaryStream(dist), StationaryStream(dist)


def _ar1_pair():
    model = AR1Stream(phi0=2.0, phi1=0.6, sigma=2.0, bucket=1.0)
    return model, model


def _ar1_join_heeb(model):
    from repro.core.precompute import ar1_h2_join

    center = model.stationary_mean
    v_grid = np.linspace(center - 6, center + 6, 5).round().astype(int)
    x_grid = np.linspace(center - 6, center + 6, 5)
    surface = ar1_h2_join(model, LExp(4.0), v_grid, x_grid, horizon=40)
    return HeebPolicy(AR1JoinHeeb(model, surface))


def _ar1_cache_heeb(model, reference):
    from repro.core.precompute import ar1_h2_cache

    lo, hi = min(reference), max(reference)
    v_grid = np.linspace(lo, hi, 5).round().astype(int)
    x_grid = np.linspace(lo, hi, 5) * model.bucket
    surface = ar1_h2_cache(model, LExp(4.0), v_grid, x_grid, exact_steps=30)
    return HeebPolicy(AR1CacheHeeb(model, surface))


def _walk_cache_heeb(model, reference):
    from repro.core.precompute import random_walk_h1_cache

    table = random_walk_h1_cache(model, LExp(4.0), horizon=60, max_offset=12)
    return HeebPolicy(WalkCacheHeeb(table))


def _chain3_case(seen):
    from repro.experiments.configs import make_multi_config
    from repro.sim.multi_join import MultiJoinSimulator

    config = make_multi_config("CHAIN3")
    rng = np.random.default_rng(2)
    streams = {n: m.sample_path(60, rng) for n, m in config.models.items()}
    MultiJoinSimulator(
        4,
        _checking(config.make_heeb(4), seen),
        queries=config.queries,
        models=config.models,
    ).run(streams)


#: Every registered scored policy, and every HEEB strategy, on a run of
#: the problem kind it serves.
SCORE_MANY_CASES = {
    "lru": _join_case(lambda c: make_policy("lru"), "FLOOR"),
    "lru-k": _join_case(lambda c: make_policy("lru-k", k=2), "FLOOR"),
    "prob": _join_case(lambda c: make_policy("prob"), "FLOOR"),
    "life": _join_case(lambda c: make_policy("life"), "FLOOR"),
    "lfu": _cache_case(
        lambda m, ref: make_policy("lfu"), lambda: _stationary_pair()[0]
    ),
    "lfd": _cache_case(
        lambda m, ref: make_policy("lfd", reference=ref),
        lambda: _stationary_pair()[0],
    ),
    "heeb/trend": _join_case(lambda c: c.make_heeb(3), "FLOOR"),
    "heeb/walk-join": _join_case(lambda c: c.make_heeb(3), "WALK"),
    "heeb/generic-join": _join_case(
        lambda m: HeebPolicy(GenericJoinHeeb(LExp(3.0))),
        models=_stationary_pair,
    ),
    "heeb/generic-join-windowed": _join_case(
        lambda m: HeebPolicy(GenericJoinHeeb(LExp(3.0))),
        models=_stationary_pair,
        window=5,
        length=30,
    ),
    "heeb/generic-multi": _chain3_case,
    "heeb/band": _join_case(
        lambda m: HeebPolicy(BandJoinHeeb(1, LExp(3.0), horizon=30)),
        models=_stationary_pair,
        length=30,
    ),
    "heeb/ar1-join": _join_case(_ar1_join_heeb, models=_ar1_pair),
    "heeb/generic-cache": _cache_case(
        lambda m, ref: HeebPolicy(GenericCacheHeeb(LExp(3.0), horizon=30)),
        lambda: _stationary_pair()[0],
        length=40,
    ),
    "heeb/walk-cache": _cache_case(
        _walk_cache_heeb, lambda: RandomWalkStream(bounded_uniform(2))
    ),
    "heeb/ar1-cache": _cache_case(_ar1_cache_heeb, lambda: _ar1_pair()[0]),
}


class TestScoreMany:
    def test_cases_cover_every_registered_scored_policy(self):
        from repro.policies import POLICY_REGISTRY, ScoredPolicy

        scored = {
            name
            for name, factory in POLICY_REGISTRY.items()
            if isinstance(factory, type) and issubclass(factory, ScoredPolicy)
        }
        covered = {name.split("/")[0] for name in SCORE_MANY_CASES}
        assert scored == covered

    @pytest.mark.parametrize("case", sorted(SCORE_MANY_CASES))
    def test_score_many_is_per_tuple_score_bitwise(self, case):
        seen: list[int] = []
        SCORE_MANY_CASES[case](seen)
        assert seen, "the run never evicted"

    @pytest.mark.parametrize("strategy_cls", [AR1CacheHeeb, AR1JoinHeeb])
    def test_ar1_without_history_scores_zero(self, strategy_cls):
        model = _ar1_pair()[0]
        surface = _ar1_join_heeb(model).strategy.surface
        strategy = strategy_cls(model, surface)
        ctx = join_ctx(model, model, 1, [None, None], [None, None])
        tups = [StreamTuple(i, side, 2 + i, 1) for i, side in enumerate("RSR")]
        assert strategy.h_values(tups, ctx) == [0.0, 0.0, 0.0]
        assert [strategy.h_value(t, ctx) for t in tups] == [0.0, 0.0, 0.0]

    @given(
        anchors=st.lists(st.one_of(st.none(), st.integers(-4, 14)), min_size=1),
        values=st.lists(st.integers(-10, 20), min_size=1, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_ar1_h_values_match_pointwise_surface(self, anchors, values):
        """One vectorized spline call per eviction gives exactly the
        per-candidate ``surface(v, x)`` floats of the pointwise path."""
        model = _ar1_pair()[0]
        surface = _ar1_join_heeb(model).strategy.surface
        strategy = AR1CacheHeeb(model, surface)
        t = len(anchors) - 1
        ctx = PolicyContext(
            kind="cache", time=t, cache_size=3, r_history=anchors, r_model=model
        )
        tups = [StreamTuple(i, "S", v, 0) for i, v in enumerate(values)]
        last = next((a for a in reversed(anchors) if a is not None), None)
        expected = [
            0.0 if last is None else surface(float(v), model.to_latent(last))
            for v in values
        ]
        assert _bits(strategy.h_values(tups, ctx)) == _bits(expected)


class TestStationaryMemo:
    def _counting(self, monkeypatch):
        from repro.streams.base import StreamModel

        calls = []
        prob = StreamModel.prob

        def counting(self, t, value, history=None):
            calls.append(t)
            return prob(self, t, value, history)

        monkeypatch.setattr(StreamModel, "prob", counting)
        return calls

    def test_chain3_prob_calls_per_run_not_per_step(self, monkeypatch):
        from repro.experiments.configs import make_multi_config
        from repro.sim.multi_join import MultiJoinSimulator

        calls = self._counting(monkeypatch)
        config = make_multi_config("CHAIN3")
        rng = np.random.default_rng(11)
        streams = {n: m.sample_path(150, rng) for n, m in config.models.items()}
        result = MultiJoinSimulator(
            10, config.make_heeb(10), queries=config.queries,
            models=config.models,
        ).run(streams)
        support = max(len(m.dist.values) for m in config.models.values())
        assert len(calls) <= support * len(config.models)
        # The unmemoized strategy (727,584 prob calls) gave these totals.
        assert result.total_results == 650
        assert sorted(result.per_query.values()) == [259, 391]

    def test_memo_is_heeb_join_bitwise(self):
        from repro.core.heeb import heeb_join

        r_model, s_model = _stationary_pair()
        strategy = GenericJoinHeeb(LExp(3.0))
        ctx = join_ctx(r_model, s_model, 9, [1] * 10, [2] * 10)
        for v in (None, -3, 0, 1, 2, 3, 4, 5, 6, 40):
            tup = StreamTuple(0, "R", v, 9)
            assert _bits([strategy.h_value(tup, ctx)]) == _bits(
                [heeb_join(s_model, 9, v, LExp(3.0))]
            ), v
        assert list(strategy._tables) == [s_model]
        strategy.reset(ctx)
        assert strategy._tables == {}

    def test_windowed_strategy_bypasses_memo(self, monkeypatch):
        from repro.core.heeb import heeb_join
        from repro.core.lifetime import WindowedLExp

        r_model, s_model = _stationary_pair()
        strategy = GenericJoinHeeb(LExp(3.0), horizon=20)
        ctx = join_ctx(r_model, s_model, 9, [1] * 10, [2] * 10, window=4)
        tup = StreamTuple(0, "R", 2, 7)
        expected = heeb_join(s_model, 9, 2, WindowedLExp(3.0, 2), 20)
        calls = self._counting(monkeypatch)
        assert strategy.h_value(tup, ctx) == expected
        assert len(calls) == 20
        assert strategy._tables == {}
