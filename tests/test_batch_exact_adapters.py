"""Exact batch adapters for the formerly scalar-only policy families.

PR-9 extends the vectorized tier to the last four policy families that
used to negotiate down to the scalar loop: LRU-k, the windowed /
band-join HEEB strategies, trie caching on the binary problems, and
FlowExpect.  Each adapter is specified to be *seed-for-seed identical*
to its scalar counterpart — same victims, same totals, same occupancy
traces, same policy-emitted series — not merely statistically
equivalent.  These tests pin that contract per family, and every test
also asserts ``engine_used == "batch"`` so a silent scalar fallback can
never make the equivalence pass vacuously.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lifetime import LExp
from repro.experiments.configs import tower_config, walk_config
from repro.obs import CounterRecorder
from repro.policies import make_policy
from repro.policies.flowexpect_policy import FlowExpectPolicy
from repro.policies.heeb_policy import (
    BandJoinHeeb,
    GenericJoinHeeb,
    HeebPolicy,
    TrendJoinHeeb,
)
from repro.policies.lru import LrukPolicy
from repro.sim.engine import BatchEngine, ExperimentSpec, ScalarEngine
from repro.sim.runner import (
    generate_paths,
    generate_reference_paths,
    run_cache_experiment,
    run_join_experiment,
)
from repro.streams import (
    LinearTrendStream,
    RandomWalkStream,
    StationaryStream,
)
from repro.streams.noise import (
    bounded_normal,
    discretized_normal,
    from_mapping,
)

LENGTH = 240
N_RUNS = 3
CACHE = 6
WARMUP = 20

STATIONARY_PMF = {1: 0.35, 2: 0.25, 3: 0.2, 4: 0.12, 5: 0.08}


def _stationary_pair():
    return (
        StationaryStream(from_mapping(STATIONARY_PMF)),
        StationaryStream(from_mapping(STATIONARY_PMF)),
    )


def _assert_join_equal(scalar, batch):
    assert scalar.policy_name == batch.policy_name
    assert len(scalar.per_run) == len(batch.per_run)
    for i, (a, b) in enumerate(zip(scalar.per_run, batch.per_run)):
        assert a.total_results == b.total_results, f"run {i}"
        assert a.results_after_warmup == b.results_after_warmup, f"run {i}"
        np.testing.assert_array_equal(a.occupancy, b.occupancy)
        np.testing.assert_array_equal(a.r_occupancy, b.r_occupancy)


def _assert_snapshot_equal(a, b, name):
    """Snapshot equality that treats NaN == NaN.

    LRU-k cutoffs include ``-inf`` (below-k slots), which puts NaNs in
    the quantile-sketch state; ``repr`` round-trips floats exactly, so
    repr equality is still byte-level equality of the state.
    """
    assert repr(a.snapshot()) == repr(b.snapshot()), name


def _policy_counters(rec):
    """Counters minus the engine-dispatch bookkeeping (tier-specific)."""
    return {
        k: v for k, v in rec.counters.items() if not k.startswith("engine.")
    }


def _assert_cache_equal(scalar, batch):
    assert scalar.policy_name == batch.policy_name
    for i, (a, b) in enumerate(zip(scalar.per_run, batch.per_run)):
        assert (a.hits, a.misses) == (b.hits, b.misses), f"run {i}"
        assert a.hits_after_warmup == b.hits_after_warmup, f"run {i}"


def _join_both(
    r_model,
    s_model,
    factory,
    *,
    window=None,
    window_oracle=None,
    seed=0,
    length=LENGTH,
    n_runs=N_RUNS,
    cache_size=CACHE,
    recorders=None,
):
    paths = generate_paths(r_model, s_model, length, n_runs, seed=seed)
    kwargs = dict(
        cache_size=cache_size,
        warmup=WARMUP,
        window=window,
        r_model=r_model,
        s_model=s_model,
        window_oracle=window_oracle,
    )
    rec_scalar, rec_batch = recorders or (None, None)
    scalar = run_join_experiment(
        factory,
        paths,
        **kwargs,
        **({"recorder": rec_scalar} if rec_scalar is not None else {}),
    )
    batch = run_join_experiment(
        factory,
        paths,
        engine="batch",
        **kwargs,
        **({"recorder": rec_batch} if rec_batch is not None else {}),
    )
    assert batch.engine_used == "batch", "adapter fell back to scalar"
    return scalar, batch


# ----------------------------------------------------------------------
# LRU-k
# ----------------------------------------------------------------------
class TestLruK:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "make_config", [tower_config, walk_config], ids=["TOWER", "WALK"]
    )
    def test_join_exact(self, make_config, k):
        config = make_config()
        scalar, batch = _join_both(
            config.r_model, config.s_model, lambda: LrukPolicy(k)
        )
        _assert_join_equal(scalar, batch)
        assert any(r.total_results > 0 for r in scalar.per_run)

    def test_join_windowed(self):
        config = tower_config()
        scalar, batch = _join_both(
            config.r_model,
            config.s_model,
            lambda: LrukPolicy(2),
            window=8,
            window_oracle=config.window_oracle,
        )
        _assert_join_equal(scalar, batch)

    @pytest.mark.parametrize("k", [1, 2])
    def test_cache_exact(self, k):
        models = {
            "stationary": StationaryStream(from_mapping(STATIONARY_PMF)),
            "walk": RandomWalkStream(discretized_normal(1.0), drift=0, start=0),
        }
        for model in models.values():
            refs = generate_reference_paths(model, LENGTH, N_RUNS, seed=7)
            kwargs = dict(
                cache_size=CACHE, warmup=WARMUP, reference_model=model
            )
            scalar = run_cache_experiment(
                lambda: LrukPolicy(k), refs, **kwargs
            )
            batch = run_cache_experiment(
                lambda: LrukPolicy(k), refs, engine="batch", **kwargs
            )
            assert batch.engine_used == "batch"
            _assert_cache_equal(scalar, batch)

    def test_cutoff_series_parity(self):
        """LRU-k is exactly scored: the batch tier must mirror its
        scores.cutoff series byte-for-byte."""
        config = tower_config()
        rec_scalar, rec_batch = CounterRecorder(), CounterRecorder()
        _join_both(
            config.r_model,
            config.s_model,
            lambda: LrukPolicy(2),
            recorders=(rec_scalar, rec_batch),
        )
        _assert_snapshot_equal(
            rec_batch.series_data["scores.cutoff"],
            rec_scalar.series_data["scores.cutoff"],
            "scores.cutoff",
        )


# ----------------------------------------------------------------------
# Windowed HEEB (trend + stationary) and the band join
# ----------------------------------------------------------------------
class TestWindowedHeeb:
    @pytest.mark.parametrize("window", [5, 25])
    def test_trend_unit_speed(self, window):
        config = tower_config()
        scalar, batch = _join_both(
            config.r_model,
            config.s_model,
            lambda: config.make_heeb(CACHE),
            window=window,
            window_oracle=config.window_oracle,
        )
        _assert_join_equal(scalar, batch)
        assert any(r.total_results > 0 for r in scalar.per_run)

    def test_trend_general_speed(self):
        """speed != 1 lacks translation invariance: the adapter's
        per-step memo branch must still reproduce the scalar sums."""
        r_model = LinearTrendStream(bounded_normal(10, 1.5), speed=2.0, lag=1)
        s_model = LinearTrendStream(bounded_normal(15, 2.0), speed=2.0, lag=0)
        factory = lambda: HeebPolicy(TrendJoinHeeb(LExp(4.0)))
        scalar, batch = _join_both(
            r_model, s_model, factory, window=8, length=160
        )
        _assert_join_equal(scalar, batch)

    @pytest.mark.parametrize("window", [None, 6])
    def test_stationary_generic(self, window):
        r_model, s_model = _stationary_pair()
        factory = lambda: HeebPolicy(GenericJoinHeeb(LExp(3.0), horizon=40))
        scalar, batch = _join_both(
            r_model, s_model, factory, window=window
        )
        _assert_join_equal(scalar, batch)
        assert any(r.total_results > 0 for r in scalar.per_run)


class TestBandJoinHeeb:
    @pytest.mark.parametrize("band", [1, 2])
    def test_stationary_band_exact(self, band):
        r_model, s_model = _stationary_pair()
        spec = ExperimentSpec(
            kind="join",
            cache_size=CACHE,
            warmup=WARMUP,
            band=band,
            r_model=r_model,
            s_model=s_model,
        )
        factory = lambda: HeebPolicy(
            BandJoinHeeb(band, LExp(3.0), horizon=40)
        )
        paths = generate_paths(r_model, s_model, LENGTH, N_RUNS, seed=13)
        assert BatchEngine().supports(spec, factory) is None
        scalar = ScalarEngine().run(spec, factory, paths)
        batch = BatchEngine().run(spec, factory, paths)
        _assert_join_equal(scalar, batch)
        assert any(r.total_results > 0 for r in scalar.per_run)


# ----------------------------------------------------------------------
# Trie caching on the binary problems
# ----------------------------------------------------------------------
class TestTrieBinary:
    def test_join_exact_with_series(self):
        r_model, s_model = _stationary_pair()
        rec_scalar, rec_batch = CounterRecorder(), CounterRecorder()
        scalar, batch = _join_both(
            r_model,
            s_model,
            lambda: make_policy("trie"),
            recorders=(rec_scalar, rec_batch),
        )
        _assert_join_equal(scalar, batch)
        assert _policy_counters(rec_batch) == _policy_counters(rec_scalar)
        budget_series = [
            name
            for name in rec_scalar.series_data
            if name.startswith("trie.budget.")
        ]
        assert budget_series, "scalar trie must emit per-level budgets"
        for name in ("scores.cutoff", *budget_series):
            _assert_snapshot_equal(
                rec_batch.series_data[name], rec_scalar.series_data[name], name
            )

    def test_cache_exact_with_series(self):
        model = StationaryStream(from_mapping(STATIONARY_PMF))
        refs = generate_reference_paths(model, LENGTH, N_RUNS, seed=29)
        kwargs = dict(cache_size=CACHE, warmup=WARMUP, reference_model=model)
        rec_scalar, rec_batch = CounterRecorder(), CounterRecorder()
        scalar = run_cache_experiment(
            lambda: make_policy("trie"), refs, recorder=rec_scalar, **kwargs
        )
        batch = run_cache_experiment(
            lambda: make_policy("trie"),
            refs,
            engine="batch",
            recorder=rec_batch,
            **kwargs,
        )
        assert batch.engine_used == "batch"
        _assert_cache_equal(scalar, batch)
        assert _policy_counters(rec_batch) == _policy_counters(rec_scalar)
        for name in rec_scalar.series_data:
            if name.startswith("trie.budget.") or name == "scores.cutoff":
                _assert_snapshot_equal(
                    rec_batch.series_data[name],
                    rec_scalar.series_data[name],
                    name,
                )

    def test_trend_models_batch_too(self):
        """Independent but time-*dependent* models (linear trends) take
        the per-step memo branch; decisions must still match."""
        config = tower_config()
        scalar, batch = _join_both(
            config.r_model,
            config.s_model,
            lambda: make_policy("trie"),
            length=160,
        )
        _assert_join_equal(scalar, batch)


# ----------------------------------------------------------------------
# FlowExpect
# ----------------------------------------------------------------------
class TestFlowExpectBatch:
    def _flow_counters(self, rec):
        return {
            k: v
            for k, v in rec.counters.items()
            if k in ("flow.solves", "flow.solver_iterations")
        }

    @pytest.mark.parametrize("lookahead", [1, 3, 6])
    def test_stationary_exact(self, lookahead):
        r_model, s_model = _stationary_pair()
        factory = lambda: FlowExpectPolicy(
            lookahead, r_model, s_model, fast=True
        )
        rec_scalar, rec_batch = CounterRecorder(), CounterRecorder()
        scalar, batch = _join_both(
            r_model,
            s_model,
            factory,
            length=100,
            n_runs=2,
            cache_size=4,
            recorders=(rec_scalar, rec_batch),
        )
        _assert_join_equal(scalar, batch)
        # The batch tier shares one ProbTable/template cache across
        # trials, so memo hit/miss telemetry legitimately differs; the
        # *decision-path* counters must agree exactly.
        assert self._flow_counters(rec_scalar) == self._flow_counters(
            rec_batch
        )
        assert rec_scalar.counters["flow.solves"] > 0

    def test_trend_models_exact(self):
        """Independent time-dependent models: per-(t, value) ProbTable
        entries, shared across trials, must not change any decision."""
        config = tower_config()
        factory = lambda: FlowExpectPolicy(
            3, config.r_model, config.s_model, fast=True
        )
        scalar, batch = _join_both(
            config.r_model,
            config.s_model,
            factory,
            length=80,
            n_runs=2,
            cache_size=4,
        )
        _assert_join_equal(scalar, batch)

    @settings(max_examples=25, deadline=None)
    @given(
        support=st.integers(min_value=2, max_value=5),
        weights=st.lists(
            st.integers(min_value=1, max_value=9), min_size=5, max_size=5
        ),
        lookahead=st.integers(min_value=1, max_value=6),
        cache_size=st.integers(min_value=1, max_value=5),
        length=st.integers(min_value=10, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_random_stationary_runs(
        self, support, weights, lookahead, cache_size, length, seed
    ):
        """Property-based mirror of the fastpath suite, one level up:
        random stationary pmfs and parameters, full short runs, exact
        batch-vs-scalar agreement on results and occupancy."""
        total = sum(weights[:support])
        pmf = {v: w / total for v, w in enumerate(weights[:support])}
        r_model = StationaryStream(from_mapping(pmf))
        s_model = StationaryStream(from_mapping(pmf))
        factory = lambda: FlowExpectPolicy(
            lookahead, r_model, s_model, fast=True
        )
        paths = generate_paths(r_model, s_model, length, 1, seed=seed)
        kwargs = dict(
            cache_size=cache_size,
            warmup=0,
            r_model=r_model,
            s_model=s_model,
        )
        scalar = run_join_experiment(factory, paths, **kwargs)
        batch = run_join_experiment(factory, paths, engine="batch", **kwargs)
        assert batch.engine_used == "batch"
        _assert_join_equal(scalar, batch)

    def test_slow_reference_pipeline_stays_scalar(self):
        """fast=False pins the networkx reference pipeline; the batch
        tier must refuse rather than silently swap solvers."""
        r_model, s_model = _stationary_pair()
        spec = ExperimentSpec(
            kind="join", cache_size=4, r_model=r_model, s_model=s_model
        )
        factory = lambda: FlowExpectPolicy(2, r_model, s_model, fast=False)
        reason = BatchEngine().supports(spec, factory)
        assert reason is not None and "networkx" in reason

    def test_markov_models_stay_scalar(self):
        """History-anchored (Markov) models rebind the ProbTable every
        step per trial; there is no exact shared-memo replay."""
        step = discretized_normal(1.0)
        r_model = RandomWalkStream(step, drift=0, start=0)
        s_model = RandomWalkStream(step, drift=0, start=0)
        spec = ExperimentSpec(
            kind="join", cache_size=4, r_model=r_model, s_model=s_model
        )
        factory = lambda: FlowExpectPolicy(2, r_model, s_model, fast=True)
        reason = BatchEngine().supports(spec, factory)
        assert reason is not None and "has no exact batch adapter" in reason


# ----------------------------------------------------------------------
# AR(1) h2-surface HEEB on the REAL pipeline
# ----------------------------------------------------------------------
def _real_pipeline(n_days=600, seed=0, memory=50):
    """Figure 13's inputs: temperatures, fitted AR(1), buckets, surface."""
    from repro.analysis.fitting import fit_ar1
    from repro.core.precompute import ar1_h2_cache
    from repro.streams import AR1Stream
    from repro.streams.melbourne import melbourne_like_temperatures

    temps = melbourne_like_temperatures(n_days, np.random.default_rng(seed))
    fit = fit_ar1(temps)
    model = AR1Stream(fit.phi0, fit.phi1, fit.sigma, bucket=0.1)
    reference = [model.to_bucket(t) for t in temps]
    lo, hi = min(reference), max(reference)
    v_grid = np.linspace(lo, hi, 5).round().astype(int)
    x_grid = np.linspace(lo * 0.1, hi * 0.1, 5)
    surface = ar1_h2_cache(
        model, LExp(float(memory)), v_grid, x_grid, exact_steps=60
    )
    return model, reference, surface


class TestSurfaceHeebExact:
    """Scalar and batch AR(1) HEEB make the same spline call, so the
    batch adapter is exactly scored like every other adapter."""

    def test_h_values_equal_batch_scores_bitwise_on_real(self):
        from repro.core.tuples import StreamTuple
        from repro.policies.base import PolicyContext
        from repro.policies.batch import BatchSurfaceHeeb
        from repro.policies.heeb_policy import AR1CacheHeeb
        from repro.sim.batch import BatchState

        model, reference, surface = _real_pipeline()
        values = sorted(set(reference))
        anchors = values  # every observed bucket is some step's anchor
        strategy = AR1CacheHeeb(model, surface)
        state = BatchState.empty(len(anchors), len(values))
        state.val[:] = values
        state.last_r[:] = anchors
        batch = BatchSurfaceHeeb(surface, model, "cache").scores(state, 0)
        tups = [StreamTuple(i, "R", v, 0) for i, v in enumerate(values)]
        for row, anchor in enumerate(anchors):
            ctx = PolicyContext(
                kind="cache", time=0, cache_size=50, r_history=[anchor],
                r_model=model,
            )
            scalar = np.array(strategy.h_values(tups, ctx))
            assert scalar.tobytes() == batch[row].tobytes(), anchor

    def test_cutoff_series_parity(self):
        """AR(1) HEEB's scores.cutoff is mirrored by the batch tier."""
        from repro.policies.heeb_policy import AR1CacheHeeb

        model, reference, surface = _real_pipeline(n_days=300)
        refs = [reference[:150], reference[150:]]
        recs = []
        for batch in (False, True):
            rec = CounterRecorder()
            result = run_cache_experiment(
                lambda: HeebPolicy(AR1CacheHeeb(model, surface)),
                refs,
                cache_size=20,
                reference_model=model,
                engine="batch" if batch else None,
                recorder=rec,
            )
            assert result.engine_used == ("batch" if batch else "scalar")
            recs.append(rec)
        _assert_snapshot_equal(
            recs[1].series_data["scores.cutoff"],
            recs[0].series_data["scores.cutoff"],
            "scores.cutoff",
        )


# ----------------------------------------------------------------------
# The binary join is the two-stream multi-join
# ----------------------------------------------------------------------
class TestBinaryIsTwoStreamMultiJoin:
    """Appendix C at the batch tier: one query between R and S.

    ``kind="join"`` and ``kind="multi_join"`` with ``queries=[("R",
    "S")]`` get the same adapter class and, on the same stationary
    paths, the same per-trial results and occupancy — what
    ``test_multi_binary_equivalence`` pins at the scalar tier.
    """

    FACTORIES = {
        "rand": lambda: make_policy("rand", seed=7),
        "lru": lambda: make_policy("lru"),
        "prob": lambda: make_policy("prob"),
        "lfu": lambda: make_policy("lfu"),
        "heeb": lambda: HeebPolicy(GenericJoinHeeb(LExp(5.0), horizon=40)),
        "trie": lambda: make_policy("trie"),
    }

    @pytest.mark.parametrize("policy_name", sorted(FACTORIES))
    def test_join_equals_one_query_multi_join(self, policy_name):
        from repro.policies.batch import make_batch_policy

        factory = self.FACTORIES[policy_name]
        r_model, s_model = _stationary_pair()
        models = {"R": r_model, "S": s_model}
        join_spec = ExperimentSpec(
            kind="join",
            cache_size=CACHE,
            warmup=WARMUP,
            r_model=r_model,
            s_model=s_model,
        )
        multi_spec = ExperimentSpec(
            kind="multi_join",
            cache_size=CACHE,
            warmup=WARMUP,
            queries=(("R", "S"),),
            models=models,
        )
        binary_adapter = make_batch_policy(
            factory(), kind="join", r_model=r_model, s_model=s_model
        )
        multi_adapter = make_batch_policy(
            factory(), kind="multi_join", models=models, queries=[("R", "S")]
        )
        assert type(binary_adapter) is type(multi_adapter)

        paths = generate_paths(r_model, s_model, LENGTH, 4, seed=5)
        binary = BatchEngine().run(join_spec, factory, paths)
        multi = BatchEngine().run(
            multi_spec, factory, [{"R": r, "S": s} for r, s in paths]
        )
        assert len(binary.per_run) == len(multi.per_run) == 4
        for i, (a, b) in enumerate(zip(binary.per_run, multi.per_run)):
            assert a.total_results == b.total_results, f"run {i}"
            assert a.results_after_warmup == b.results_after_warmup, f"run {i}"
            occ = b.occupancy_by_stream
            np.testing.assert_array_equal(a.r_occupancy, occ["R"])
            np.testing.assert_array_equal(a.occupancy, occ["R"] + occ["S"])
