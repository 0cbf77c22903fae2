"""Perf-regression harness: engine tiers on fig08, FlowExpect fast path.

Times every batchable policy of the Figure-8 comparison workload (all
four synthetic configurations) on the three execution tiers and records
trials/sec plus the per-engine speedup over scalar in
``BENCH_batch.json`` at the repo root.  The numbers seed the performance
trajectory: future engine work should move the ``aggregate`` speedups
up, and a regression below the recorded baseline is a red flag.

All engines consume the *same* pre-generated paths and produce identical
per-trial results (asserted here run by run), so the timing comparison
is apples to apples.  The parallel tier fans trials across worker
processes; on a single-core machine its speedup is expectedly < 1 (pure
fork/IPC overhead) — the recorded ``cpu_count`` makes that legible.

The ``flowexpect`` section times one FLOOR-config join run under
:class:`~repro.policies.flowexpect_policy.FlowExpectPolicy` on the fast
(template + ProbTable + direct solver) and reference (networkx +
``network_simplex``) paths, asserts they make *identical* per-step
kept/victim decisions, and records per-step milliseconds plus the
speedup.  ``--min-fe-speedup`` turns the speedup into a hard floor for
CI smoke runs.

The FlowExpect section also enforces the :mod:`repro.obs` zero-overhead
contract — an explicit ``NullRecorder`` run must stay within
``--max-null-overhead`` percent (default 2%) of the default run — and
records a ``CounterRecorder`` run's solver-iteration count and ProbTable
hit rate alongside the timings.

The ``serve`` section replays a seeded FLOOR stream through the
:mod:`repro.serve` streaming tier — after asserting single-shard
parity with the scalar simulator — and records ingestion throughput
(tuples/sec) plus queue-depth telemetry (p90 and high-water mark).

The ``multi_join`` section times the CHAIN3 Appendix-C topology under
unified HEEB on the scalar and batch tiers (asserting trial-for-trial
identical results before reporting the speedup), then replays the same
topology through the serving tier — single-shard parity against
:class:`~repro.sim.multi_join.MultiJoinSimulator` first — and records
sharded ingestion throughput.

The ``batch_coverage`` section times the four PR-9 adapter families —
LRU-k, windowed HEEB, trie caching, FlowExpect — scalar vs batch,
asserting seed-for-seed identical results and that the batch preference
was honoured before recording per-family speedups.
``--min-batch-speedup`` turns the non-FlowExpect speedups into a hard
CI floor; FlowExpect gets the separate, lower
``--min-fe-batch-speedup`` floor because its scalar tier already is the
optimized fast path (the Amdahl argument is spelled out in
``docs/PERFORMANCE.md``).

The ``sketch`` section runs the bounded-memory cache workload of
:func:`run_sketch_bench`: a ``cache_size=10**6`` skewed reference
stream under ``LfuPolicy(counts="sketch")`` plus the bloom
:class:`~repro.sketch.AdmissionFilter`, with the run's tracemalloc peak
asserted under ``--sketch-max-mem-mb`` and the hit-rate delta vs exact
counts recorded for the history gate.

Each full run is also appended to ``BENCH_history.jsonl`` (timestamp,
git SHA, environment fingerprint, headline metrics) via
``tools/bench_history.py``, whose ``--check`` mode gates CI against the
rolling median of prior same-environment runs.  ``--no-history`` skips
the append; ``--skip-engines`` partial runs never append.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py [--trials 256]
        [--length 600] [--workers N] [--fe-length 300]
        [--fe-lookahead 8] [--min-fe-speedup X] [--max-null-overhead P]
        [--batchcov-trials 192] [--batchcov-length 400]
        [--min-batch-speedup X] [--min-fe-batch-speedup X]
        [--skip-batchcov]
        [--serve-length 2000] [--serve-shards 4] [--serve-queue 256]
        [--skip-serve] [--multi-length 300] [--multi-trials 64]
        [--multi-serve-length 1500] [--multi-shards 3] [--skip-multi]
        [--sketch-cache-size 1000000] [--sketch-length 120000]
        [--sketch-max-mem-mb 64] [--sketch-width 65536] [--skip-sketch]
        [--out BENCH_batch.json]
        [--history BENCH_history.jsonl] [--no-history]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.experiments.configs import SYNTHETIC_CONFIGS, make_config
from repro.obs import NULL_RECORDER, CounterRecorder, NullRecorder
from repro.policies import make_policy
from repro.policies.flowexpect_policy import FlowExpectPolicy
from repro.sim.engine import ParallelEngine
from repro.sim.join_sim import JoinSimulator
from repro.sim.runner import generate_paths, run_join_experiment

CACHE_SIZE = 10

#: Default serve replay length, and the floor of the disabled-span
#: overhead replays: that check compares two nearly equal times, which
#: shorter replays cannot tell apart from host noise.
SERVE_LENGTH = 2000

_REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_bench_history():
    """Import ``tools/bench_history.py`` by path (tools/ is not a package)."""
    path = _REPO_ROOT / "tools" / "bench_history.py"
    spec = importlib.util.spec_from_file_location("bench_history", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _policy_factories(config):
    factories = {
        "RAND": lambda: make_policy("rand", seed=1),
        "PROB": lambda: make_policy("prob"),
    }
    if config.has_life:
        factories["LIFE"] = lambda: make_policy("life")
    factories["HEEB"] = lambda: config.make_heeb(CACHE_SIZE)
    return factories


def _assert_equal(config_name, policy_name, engine_name, baseline, other):
    mismatches = sum(
        a.total_results != b.total_results
        or not np.array_equal(a.occupancy, b.occupancy)
        for a, b in zip(baseline.per_run, other.per_run)
    )
    if mismatches:
        raise AssertionError(
            f"{config_name}/{policy_name}: {engine_name} diverged from "
            f"scalar on {mismatches} trials"
        )


def run_harness(n_trials: int, length: int, workers: int | None) -> dict:
    """Time the fig08 workload on all three engines; return the report."""
    warmup = 4 * CACHE_SIZE
    parallel_engine = ParallelEngine(max_workers=workers)
    entries = []
    totals = {"scalar": 0.0, "batch": 0.0, "parallel": 0.0}
    total_trials = 0

    for config_name, config in SYNTHETIC_CONFIGS().items():
        paths = generate_paths(
            config.r_model, config.s_model, length, n_trials, seed=0
        )
        kwargs = dict(
            cache_size=CACHE_SIZE,
            warmup=warmup,
            r_model=config.r_model,
            s_model=config.s_model,
            window_oracle=config.window_oracle,
        )
        for policy_name, factory in _policy_factories(config).items():
            seconds = {}
            results = {}
            for engine_name, engine in (
                ("scalar", None),
                ("batch", "batch"),
                ("parallel", parallel_engine),
            ):
                t0 = time.perf_counter()
                results[engine_name] = run_join_experiment(
                    factory, paths, engine=engine, **kwargs
                )
                seconds[engine_name] = time.perf_counter() - t0

            for engine_name in ("batch", "parallel"):
                _assert_equal(
                    config_name,
                    policy_name,
                    engine_name,
                    results["scalar"],
                    results[engine_name],
                )

            entry = {"config": config_name, "policy": policy_name,
                     "trials": n_trials}
            # Negotiation may have demoted the parallel preference (e.g.
            # a single effective worker): record what actually ran so a
            # ~1x "parallel" number is legible.
            entry["parallel_engine_used"] = results["parallel"].engine_used
            for engine_name, t in seconds.items():
                entry[f"{engine_name}_seconds"] = round(t, 4)
                entry[f"{engine_name}_trials_per_sec"] = round(
                    n_trials / t, 2
                )
                totals[engine_name] += t
            entry["batch_speedup"] = round(
                seconds["scalar"] / seconds["batch"], 2
            )
            entry["parallel_speedup"] = round(
                seconds["scalar"] / seconds["parallel"], 2
            )
            entries.append(entry)
            total_trials += n_trials
            print(
                f"{config_name:6s} {policy_name:5s} "
                f"scalar {seconds['scalar']:7.3f}s  "
                f"batch {seconds['batch']:7.3f}s "
                f"({entry['batch_speedup']:5.1f}x)  "
                f"parallel {seconds['parallel']:7.3f}s "
                f"({entry['parallel_speedup']:5.1f}x)"
            )

    aggregate = {"trials": total_trials}
    for engine_name, t in totals.items():
        aggregate[f"{engine_name}_seconds"] = round(t, 4)
        aggregate[f"{engine_name}_trials_per_sec"] = round(
            total_trials / t, 2
        )
    aggregate["batch_speedup"] = round(
        totals["scalar"] / totals["batch"], 2
    )
    aggregate["parallel_speedup"] = round(
        totals["scalar"] / totals["parallel"], 2
    )

    return {
        "workload": {
            "figure": "fig08 comparison (synthetic configs)",
            "length": length,
            "trials_per_experiment": n_trials,
            "cache_size": CACHE_SIZE,
            "warmup": warmup,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "parallel_workers": parallel_engine.max_workers,
        },
        "entries": entries,
        "aggregate": aggregate,
    }


class _RecordingFlowExpect(FlowExpectPolicy):
    """FlowExpect that logs every (time, victim-uid) decision it makes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decisions: list[tuple] = []

    def select_victims(self, candidates, n_evict, ctx):
        victims = super().select_victims(candidates, n_evict, ctx)
        self.decisions.append(
            (ctx.time, tuple(sorted(v.uid for v in victims)))
        )
        return victims


def run_flowexpect_bench(
    length: int,
    lookahead: int,
    cache_size: int = CACHE_SIZE,
    max_null_overhead: float = 2.0,
) -> dict:
    """Time FlowExpect fast vs reference on one FLOOR join run.

    Both paths replay the identical stream realization; their per-step
    victim decisions are asserted equal before any timing is reported.

    Two observability checks ride along: a best-of-3 comparison asserts
    an explicit :class:`~repro.obs.NullRecorder` costs at most
    ``max_null_overhead`` percent over the default uninstrumented run
    (the zero-overhead contract of :mod:`repro.obs`), and a
    :class:`~repro.obs.CounterRecorder` run records the flow-solver
    iteration count and the ProbTable memo hit rate into the entry.
    """
    config = make_config("floor")
    r = config.r_model.sample_path(length, np.random.default_rng(42))
    s = config.s_model.sample_path(length, np.random.default_rng(43))

    seconds = {}
    decisions = {}
    totals = {}
    for label, fast in (("fast", True), ("reference", False)):
        policy = _RecordingFlowExpect(
            lookahead, config.r_model, config.s_model, fast=fast
        )
        sim = JoinSimulator(cache_size, policy)
        t0 = time.perf_counter()
        result = sim.run(r, s)
        seconds[label] = time.perf_counter() - t0
        decisions[label] = policy.decisions
        totals[label] = result.total_results

    if decisions["fast"] != decisions["reference"]:
        diverged = sum(
            a != b
            for a, b in zip(decisions["fast"], decisions["reference"])
        )
        raise AssertionError(
            f"FlowExpect fast path diverged from reference on {diverged} "
            f"of {len(decisions['reference'])} per-step decisions"
        )
    if totals["fast"] != totals["reference"]:
        raise AssertionError(
            "FlowExpect fast path total results diverged: "
            f"{totals['fast']} vs {totals['reference']}"
        )

    # Zero-overhead contract: an explicit NullRecorder run must cost no
    # more than max_null_overhead percent over the default run.  Both
    # variants run the same code, so any measured gap is either noise or
    # a real regression; the check takes the *minimum* per-round ratio of
    # interleaved pairs — noise only inflates a round's ratio, so the
    # best round is the least-noise estimate, while genuine overhead
    # (e.g. an unguarded counting call) shows up in every round.
    def _one_fast_run(recorder) -> float:
        policy = FlowExpectPolicy(
            lookahead, config.r_model, config.s_model, fast=True
        )
        sim = JoinSimulator(cache_size, policy, recorder=recorder)
        t0 = time.perf_counter()
        sim.run(r, s)
        return time.perf_counter() - t0

    base_seconds = float("inf")
    null_seconds = float("inf")
    null_ratio = float("inf")
    for _ in range(5):
        round_base = _one_fast_run(NULL_RECORDER)
        round_null = _one_fast_run(NullRecorder())
        base_seconds = min(base_seconds, round_base)
        null_seconds = min(null_seconds, round_null)
        null_ratio = min(null_ratio, round_null / round_base)
    null_overhead_pct = 100.0 * (null_ratio - 1.0)
    if null_overhead_pct > max_null_overhead:
        raise AssertionError(
            f"NullRecorder overhead {null_overhead_pct:.2f}% exceeds the "
            f"{max_null_overhead}% budget (base {base_seconds:.4f}s, "
            f"null {null_seconds:.4f}s)"
        )

    # CounterRecorder run: solver work and memo effectiveness.
    counter_recorder = CounterRecorder()
    policy = FlowExpectPolicy(
        lookahead, config.r_model, config.s_model, fast=True
    )
    sim = JoinSimulator(cache_size, policy, recorder=counter_recorder)
    t0 = time.perf_counter()
    sim.run(r, s)
    counted_seconds = time.perf_counter() - t0
    counters = counter_recorder.counters
    table_hits = counters.get("prob_table.hits", 0)
    table_misses = counters.get("prob_table.misses", 0)
    table_lookups = table_hits + table_misses

    speedup = seconds["reference"] / seconds["fast"]
    entry = {
        "config": "FLOOR",
        "length": length,
        "lookahead": lookahead,
        "cache_size": cache_size,
        "decisions": len(decisions["fast"]),
        "total_results": totals["fast"],
        "fast_seconds": round(seconds["fast"], 4),
        "reference_seconds": round(seconds["reference"], 4),
        "fast_ms_per_step": round(1000 * seconds["fast"] / length, 4),
        "reference_ms_per_step": round(
            1000 * seconds["reference"] / length, 4
        ),
        "fast_speedup": round(speedup, 2),
        "null_overhead_pct": round(null_overhead_pct, 2),
        "counter_overhead_pct": round(
            100.0 * (counted_seconds / base_seconds - 1.0), 2
        ),
        "flow_solves": counters.get("flow.solves", 0),
        "solver_iterations": counters.get("flow.solver_iterations", 0),
        "prob_table_lookups": table_lookups,
        "prob_table_hit_rate": (
            round(table_hits / table_lookups, 4) if table_lookups else None
        ),
    }
    print(
        f"flowexpect la={lookahead:2d} len={length} "
        f"reference {entry['reference_ms_per_step']:7.3f} ms/step  "
        f"fast {entry['fast_ms_per_step']:7.3f} ms/step "
        f"({entry['fast_speedup']:5.1f}x), identical decisions"
    )
    print(
        f"observability: NullRecorder {entry['null_overhead_pct']:+.2f}% "
        f"(budget {max_null_overhead}%), counters "
        f"{entry['counter_overhead_pct']:+.2f}%, "
        f"{entry['solver_iterations']} solver iterations over "
        f"{entry['flow_solves']} solves, prob-table hit rate "
        f"{entry['prob_table_hit_rate']}"
    )
    return entry


#: Floors for the batch-coverage section: the families whose adapters
#: replay per-trial Python loops share memoized scoring across trials,
#: so their speedup scales with the trial count; FlowExpect is Amdahl-
#: bound by its per-trial exact solver (see docs/PERFORMANCE.md) and
#: gets a lower floor.
BATCHCOV_FE_FAMILY = "flowexpect"


def run_batch_coverage_bench(
    n_trials: int,
    length: int,
    fe_trials: int,
    fe_length: int,
) -> dict:
    """Time the four PR-9 adapter families, scalar vs batch.

    LRU-k, windowed HEEB, trie caching, and FlowExpect used to negotiate
    down to the scalar tier; each now has an exact batch adapter.  Every
    family runs the same pre-generated paths on both tiers, asserts
    trial-for-trial identical results (totals and occupancy) and that
    the batch preference was *not* demoted, then records the speedup.
    FlowExpect runs a reduced shape: its scalar tier is itself the fast
    path, so the reference timing is expensive and the achievable
    speedup is bounded by the per-trial solver share (Amdahl), not by
    vectorization.
    """
    from repro.policies.lru import LrukPolicy

    warmup = 2 * CACHE_SIZE
    families: dict[str, dict] = {}

    def _time_family(
        name,
        r_model,
        s_model,
        factory,
        *,
        window=None,
        window_oracle=None,
        trials=n_trials,
        steps=length,
        cache_size=CACHE_SIZE,
    ):
        paths = generate_paths(r_model, s_model, steps, trials, seed=0)
        kwargs = dict(
            cache_size=cache_size,
            warmup=warmup,
            window=window,
            r_model=r_model,
            s_model=s_model,
            window_oracle=window_oracle,
        )
        seconds = {}
        results = {}
        for engine_name in ("scalar", "batch"):
            t0 = time.perf_counter()
            results[engine_name] = run_join_experiment(
                factory, paths, engine=engine_name, **kwargs
            )
            seconds[engine_name] = time.perf_counter() - t0
        if results["batch"].engine_used != "batch":
            raise AssertionError(
                f"batch-coverage {name}: batch preference was demoted to "
                f"{results['batch'].engine_used!r}"
            )
        _assert_equal(name, results["scalar"].policy_name, "batch",
                      results["scalar"], results["batch"])
        entry = {
            "policy": results["scalar"].policy_name,
            "trials": trials,
            "length": steps,
            "cache_size": cache_size,
            "window": window,
            "scalar_seconds": round(seconds["scalar"], 4),
            "batch_seconds": round(seconds["batch"], 4),
            "batch_speedup": round(
                seconds["scalar"] / seconds["batch"], 2
            ),
        }
        families[name] = entry
        print(
            f"batchcov {name:13s} scalar {seconds['scalar']:7.3f}s  "
            f"batch {seconds['batch']:7.3f}s "
            f"({entry['batch_speedup']:5.1f}x), identical results"
        )

    tower = make_config("tower")
    _time_family(
        "lruk", tower.r_model, tower.s_model, lambda: LrukPolicy(2)
    )
    _time_family(
        "windowed_heeb",
        tower.r_model,
        tower.s_model,
        lambda: tower.make_heeb(CACHE_SIZE),
        window=8,
        window_oracle=tower.window_oracle,
    )
    from repro.streams import StationaryStream
    from repro.streams.noise import from_mapping

    pmf = from_mapping({1: 0.35, 2: 0.25, 3: 0.2, 4: 0.12, 5: 0.08})
    trie_r, trie_s = StationaryStream(pmf), StationaryStream(pmf)
    _time_family(
        "trie", trie_r, trie_s, lambda: make_policy("trie")
    )
    fe_r, fe_s = StationaryStream(pmf), StationaryStream(pmf)
    _time_family(
        BATCHCOV_FE_FAMILY,
        fe_r,
        fe_s,
        lambda: FlowExpectPolicy(4, fe_r, fe_s, fast=True),
        trials=fe_trials,
        steps=fe_length,
        cache_size=6,
    )

    return {
        "length": length,
        "trials": n_trials,
        "fe_length": fe_length,
        "fe_trials": fe_trials,
        "families": families,
    }


def enforce_batch_coverage_floors(
    section: dict,
    min_batch_speedup: float | None,
    min_fe_batch_speedup: float | None,
) -> None:
    """Apply the CI smoke floors to a batch-coverage section.

    ``min_batch_speedup`` gates every family except FlowExpect, whose
    scalar tier already *is* the optimized fast path — the batch win
    there is bounded by the shareable (non-solver) fraction of the work
    and gets its own, lower ``min_fe_batch_speedup`` floor.
    """
    for name, entry in section["families"].items():
        floor = (
            min_fe_batch_speedup
            if name == BATCHCOV_FE_FAMILY
            else min_batch_speedup
        )
        if floor is not None and entry["batch_speedup"] < floor:
            raise SystemExit(
                f"batch-coverage {name} speedup "
                f"{entry['batch_speedup']}x is below the required "
                f"floor {floor}x"
            )


def run_serve_bench(
    length: int,
    n_shards: int,
    queue_maxsize: int,
    max_null_overhead: float = 2.0,
) -> dict:
    """Time the serving tier on a seeded FLOOR replay; return the entry.

    First asserts the tier's parity contract at bench scale — a
    single-shard replay must reproduce the scalar simulator's result
    count exactly — then times a sharded replay and records ingestion
    throughput (tuples/sec), queue-depth telemetry (high-water mark and
    the histogram p90/p99 of the ``serve.queue_depth`` series), and the
    p99 of the ``decide`` request-path span from the merged latency
    histograms.

    The span machinery's disabled-path contract rides along: replays
    under the shared :data:`~repro.obs.NULL_RECORDER` and an explicit
    :class:`~repro.obs.NullRecorder` (spans inactive in both — the
    request path must read no clocks) are interleaved and the *minimum*
    per-round throughput ratio must stay within ``max_null_overhead``
    percent, the same least-noise estimate the FlowExpect bench uses.
    These replays run over at least :data:`SERVE_LENGTH` ticks whatever
    ``length`` is, and the spread of the per-round ratios is printed
    beside the estimate.  A :class:`~repro.obs.CounterRecorder` replay
    of the same stream joins every round; its minimum time over the
    NullRecorder minimum is the *enabled* telemetry cost, recorded as
    ``enabled_overhead_pct`` (measured, not gated).
    """
    from repro.serve import run_replay
    from repro.serve.replay import generate_join_stream
    from repro.sim.engine import ExperimentSpec

    config = make_config("FLOOR")
    r_values, s_values = generate_join_stream(
        config.r_model, config.s_model, length, seed=0
    )
    spec = ExperimentSpec(kind="join", cache_size=CACHE_SIZE)
    factory = lambda: make_policy("lru")

    sim = JoinSimulator(policy=factory(), cache_size=CACHE_SIZE)
    sim_results = sim.run(r_values, s_values).total_results
    parity = run_replay(spec, factory, r_values, s_values, n_shards=1)
    if parity.total_results != sim_results:
        raise AssertionError(
            f"serve parity broken: single-shard replay produced "
            f"{parity.total_results} results, simulator {sim_results}"
        )

    def _one_replay(recorder, r, s):
        return run_replay(
            spec,
            factory,
            r,
            s,
            n_shards=n_shards,
            queue_maxsize=queue_maxsize,
            recorder=recorder,
        )

    overhead_length = max(length, SERVE_LENGTH)
    if overhead_length == length:
        over_r, over_s = r_values, s_values
    else:
        over_r, over_s = generate_join_stream(
            config.r_model, config.s_model, overhead_length, seed=0
        )
    base_seconds = float("inf")
    null_seconds = float("inf")
    counter_seconds = float("inf")
    ratios = []
    for _ in range(3):
        round_base = _one_replay(NULL_RECORDER, over_r, over_s).seconds
        round_null = _one_replay(NullRecorder(), over_r, over_s).seconds
        base_seconds = min(base_seconds, round_base)
        null_seconds = min(null_seconds, round_null)
        ratios.append(round_null / round_base)
        counter_seconds = min(
            counter_seconds,
            _one_replay(CounterRecorder(), over_r, over_s).seconds,
        )
    span_overhead_pct = 100.0 * (min(ratios) - 1.0)
    rounds_pct = [round(100.0 * (r - 1.0), 2) for r in ratios]
    enabled_overhead_pct = 100.0 * (counter_seconds / null_seconds - 1.0)
    if span_overhead_pct > max_null_overhead:
        raise AssertionError(
            f"disabled-span serve overhead {span_overhead_pct:.2f}% "
            f"exceeds the {max_null_overhead}% budget "
            f"(base {base_seconds:.4f}s, null {null_seconds:.4f}s, "
            f"rounds {rounds_pct}% over {overhead_length} ticks)"
        )

    # The instrumented run: an enabled recorder activates span timing,
    # so the summary carries the decide-span p99 for the history gate.
    recorder = CounterRecorder()
    summary = run_replay(
        spec,
        factory,
        r_values,
        s_values,
        n_shards=n_shards,
        queue_maxsize=queue_maxsize,
        recorder=recorder,
    )
    entry = {
        "length": length,
        "n_shards": n_shards,
        "queue_maxsize": queue_maxsize,
        "policy": "lru",
        "seconds": round(summary.seconds, 4),
        "tuples_per_sec": round(summary.tuples_per_sec, 1),
        "max_queue_depth": summary.max_queue_depth,
        "p90_queue_depth": (
            round(summary.p90_queue_depth, 2)
            if summary.p90_queue_depth is not None
            else None
        ),
        "p99_queue_depth": (
            round(summary.p99_queue_depth, 2)
            if summary.p99_queue_depth is not None
            else None
        ),
        "p99_ms": (
            round(summary.p99_decide_ms, 4)
            if summary.p99_decide_ms is not None
            else None
        ),
        "span_overhead_pct": round(span_overhead_pct, 2),
        "span_overhead_rounds_pct": rounds_pct,
        "overhead_length": overhead_length,
        "enabled_overhead_pct": round(enabled_overhead_pct, 1),
        "backpressure_waits": summary.backpressure_waits,
        "total_results": summary.total_results,
    }
    print(
        f"serve    shards={n_shards} len={length} "
        f"{entry['tuples_per_sec']:10.1f} tuples/sec  "
        f"queue depth p90 {entry['p90_queue_depth']} "
        f"max {entry['max_queue_depth']}  "
        f"decide p99 {entry['p99_ms']}ms  "
        f"spans disabled {entry['span_overhead_pct']:+.2f}% "
        f"(rounds {min(rounds_pct):+.2f}%..{max(rounds_pct):+.2f}% "
        f"over {overhead_length} ticks; budget {max_null_overhead}%), "
        f"counters on {entry['enabled_overhead_pct']:+.1f}%, parity OK"
    )
    return entry


def run_multi_join_bench(
    length: int,
    n_trials: int,
    serve_length: int,
    serve_shards: int,
    queue_maxsize: int,
) -> dict:
    """Time the CHAIN3 multi-join on scalar vs batch, then serve it.

    The batch tier runs the same trials as the scalar reference and
    must produce identical per-trial results (total, per-query, and
    per-stream occupancy) before its speedup is reported — the same
    apples-to-apples contract as the binary engine harness.  The serve
    half first asserts single-shard parity with
    :class:`~repro.sim.multi_join.MultiJoinSimulator`, then times a
    sharded replay and records ingestion throughput.
    """
    from repro.experiments.configs import make_multi_config
    from repro.serve import run_replay
    from repro.serve.replay import generate_multi_join_stream
    from repro.sim.engine import ExperimentSpec, spawn_rng
    from repro.sim.multi_join import MultiJoinSimulator
    from repro.sim.runner import run_multi_join_experiment

    config = make_multi_config("CHAIN3")
    warmup = 4 * CACHE_SIZE
    trials = []
    for run in range(n_trials):
        rng = spawn_rng(0, run)
        trials.append(
            {
                name: model.sample_path(length, rng)
                for name, model in config.models.items()
            }
        )

    factory = lambda: config.make_heeb(CACHE_SIZE)
    seconds = {}
    results = {}
    for engine_name in ("scalar", "batch"):
        t0 = time.perf_counter()
        results[engine_name] = run_multi_join_experiment(
            factory,
            trials,
            CACHE_SIZE,
            config.queries,
            warmup=warmup,
            models=config.models,
            engine=engine_name,
        )
        seconds[engine_name] = time.perf_counter() - t0
    if results["batch"].engine_used != "batch":
        raise AssertionError(
            "multi-join bench: batch preference was demoted to "
            f"{results['batch'].engine_used!r}"
        )
    mismatches = sum(
        a.total_results != b.total_results
        or a.per_query != b.per_query
        or any(
            not np.array_equal(
                np.asarray(a.occupancy_by_stream[name]),
                np.asarray(b.occupancy_by_stream[name]),
            )
            for name in a.occupancy_by_stream
        )
        for a, b in zip(results["scalar"].per_run, results["batch"].per_run)
    )
    if mismatches:
        raise AssertionError(
            f"multi-join bench: batch diverged from scalar on "
            f"{mismatches} of {n_trials} trials"
        )

    streams = generate_multi_join_stream(
        config.models, serve_length, seed=0
    )
    spec = ExperimentSpec(
        kind="multi_join",
        cache_size=CACHE_SIZE,
        queries=tuple(tuple(q) for q in config.queries),
        models=config.models,
    )
    serve_factory = lambda: make_policy("lru")
    sim = MultiJoinSimulator(
        CACHE_SIZE, serve_factory(), config.queries, models=config.models
    )
    sim_results = sim.run(streams).total_results
    parity = run_replay(spec, serve_factory, streams, n_shards=1)
    if parity.total_results != sim_results:
        raise AssertionError(
            f"multi-join serve parity broken: single-shard replay "
            f"produced {parity.total_results} results, simulator "
            f"{sim_results}"
        )
    summary = run_replay(
        spec,
        serve_factory,
        streams,
        n_shards=serve_shards,
        queue_maxsize=queue_maxsize,
    )

    entry = {
        "config": config.name,
        "length": length,
        "trials": n_trials,
        "cache_size": CACHE_SIZE,
        "warmup": warmup,
        "policy": "HEEB",
        "scalar_seconds": round(seconds["scalar"], 4),
        "batch_seconds": round(seconds["batch"], 4),
        "scalar_trials_per_sec": round(n_trials / seconds["scalar"], 2),
        "batch_trials_per_sec": round(n_trials / seconds["batch"], 2),
        "batch_speedup": round(seconds["scalar"] / seconds["batch"], 2),
        "serve_length": serve_length,
        "serve_n_shards": serve_shards,
        "serve_policy": "lru",
        "serve_seconds": round(summary.seconds, 4),
        "serve_tuples_per_sec": round(summary.tuples_per_sec, 1),
        "serve_total_results": summary.total_results,
    }
    print(
        f"multi    {config.name} len={length} trials={n_trials} "
        f"scalar {seconds['scalar']:7.3f}s  "
        f"batch {seconds['batch']:7.3f}s "
        f"({entry['batch_speedup']:5.1f}x), identical results; "
        f"serve shards={serve_shards} "
        f"{entry['serve_tuples_per_sec']:10.1f} tuples/sec, parity OK"
    )
    return entry


def _sketch_workload(
    length: int, head_values: int, tail_fraction: float, seed: int = 7
) -> list[int]:
    """Skewed reference stream over a huge value domain.

    A Zipf-popular "head" of ``head_values`` hot keys carries most
    references; a "tail" of essentially-unique cold keys (drawn from a
    disjoint 10^9-sized domain) supplies the one-hit wonders that blow
    up exact per-value state.  Values are plain ints, deterministic in
    ``seed``.
    """
    rng = np.random.default_rng(seed)
    is_tail = rng.random(length) < tail_fraction
    head = rng.zipf(1.5, size=length) % head_values
    tail = rng.integers(head_values, 10**9, size=length)
    values = np.where(is_tail, tail, head)
    return [int(v) for v in values]


def run_sketch_bench(
    cache_size: int = 10**6,
    length: int = 120_000,
    head_values: int = 1_000,
    tail_fraction: float = 0.15,
    sketch_width: int = 65_536,
    max_mem_mb: float = 64.0,
) -> dict:
    """Cache at ``cache_size`` slots with sketch front-ends vs exact.

    Two runs over the identical skewed reference stream:

    * **exact** — ``LfuPolicy(counts="exact")``, every miss admitted;
      per-value ``Counter`` state grows with the distinct-value count.
    * **sketch** — ``LfuPolicy(counts="sketch")`` plus the bloom
      :class:`~repro.sketch.AdmissionFilter`: frequency state is a
      fixed count-min table and one-hit wonders never occupy a cache
      slot.  The sketch run executes under :mod:`tracemalloc` and its
      peak must stay below ``max_mem_mb`` (the bounded-memory
      contract); the measured hit-rate delta vs the exact run is
      recorded for the history gate (lower is better — it is the price
      of approximation, dominated by each hot value's one extra
      doorkeeper miss).
    """
    import tracemalloc

    from repro.sim.cache_sim import CacheSimulator
    from repro.sketch import AdmissionFilter

    reference = _sketch_workload(length, head_values, tail_fraction)

    exact_policy = make_policy("lfu")
    t0 = time.perf_counter()
    exact = CacheSimulator(cache_size, exact_policy).run(reference)
    exact_seconds = time.perf_counter() - t0
    # What exact per-value state costs on this stream: one Counter entry
    # (and, for admitted values, one live cache tuple) per distinct value.
    distinct_values = len(set(reference))

    tracemalloc.start()
    sketch_policy = make_policy(
        "lfu", counts="sketch", sketch_width=sketch_width
    ).with_admission(AdmissionFilter())
    t0 = time.perf_counter()
    sketch = CacheSimulator(cache_size, sketch_policy).run(reference)
    sketch_seconds = time.perf_counter() - t0
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    mem_mb = peak_bytes / 2**20
    if mem_mb > max_mem_mb:
        raise AssertionError(
            f"sketch run peak memory {mem_mb:.1f} MB exceeds the "
            f"{max_mem_mb} MB bounded-memory budget"
        )
    exact_hit_rate = exact.hits / max(1, exact.hits + exact.misses)
    sketch_hit_rate = sketch.hits / max(1, sketch.hits + sketch.misses)
    delta = exact_hit_rate - sketch_hit_rate
    admission = sketch_policy.admission
    entry = {
        "cache_size": cache_size,
        "length": length,
        "head_values": head_values,
        "tail_fraction": tail_fraction,
        "sketch_width": sketch_width,
        "max_mem_mb": max_mem_mb,
        "mem_mb": round(mem_mb, 2),
        "exact_seconds": round(exact_seconds, 4),
        "sketch_seconds": round(sketch_seconds, 4),
        "steps_per_sec": round(length / sketch_seconds, 1),
        "exact_hit_rate": round(exact_hit_rate, 4),
        "sketch_hit_rate": round(sketch_hit_rate, 4),
        "hit_rate_delta": round(delta, 4),
        "distinct_values": distinct_values,
        "sketch_state_bytes": sketch_policy.sketch_memory_bytes()
        + admission.memory_bytes(),
        "admission_rejects": admission.rejects,
        "admission_fp_rate": round(admission.fp_rate(), 6),
    }
    print(
        f"sketch   cache={cache_size} len={length} "
        f"peak {entry['mem_mb']:6.1f} MB (budget {max_mem_mb}), "
        f"hit rate exact {entry['exact_hit_rate']:.4f} -> sketch "
        f"{entry['sketch_hit_rate']:.4f} (delta {entry['hit_rate_delta']:+.4f}), "
        f"state {entry['sketch_state_bytes'] / 2**20:.2f} MB fixed vs "
        f"{distinct_values} distinct values of exact state"
    )
    return entry


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=256)
    parser.add_argument("--length", type=int, default=600)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel-engine worker count (default: cpu_count)",
    )
    parser.add_argument(
        "--fe-length",
        type=int,
        default=300,
        help="stream length for the FlowExpect fast-path benchmark",
    )
    parser.add_argument(
        "--fe-lookahead",
        type=int,
        default=8,
        help="FlowExpect lookahead for the fast-path benchmark",
    )
    parser.add_argument(
        "--min-fe-speedup",
        type=float,
        default=None,
        help="fail unless the FlowExpect fast path is at least this "
        "many times faster than the reference (CI smoke floor)",
    )
    parser.add_argument(
        "--max-null-overhead",
        type=float,
        default=2.0,
        help="fail when an explicit NullRecorder costs more than this "
        "percentage over the default uninstrumented run",
    )
    parser.add_argument(
        "--skip-engines",
        action="store_true",
        help="skip the engine-tier benchmark (FlowExpect section only)",
    )
    parser.add_argument(
        "--batchcov-trials",
        type=int,
        default=192,
        help="trial count for the batch-coverage adapter benchmark",
    )
    parser.add_argument(
        "--batchcov-length",
        type=int,
        default=400,
        help="stream length for the batch-coverage adapter benchmark",
    )
    parser.add_argument(
        "--batchcov-fe-trials",
        type=int,
        default=16,
        help="FlowExpect trial count for the batch-coverage benchmark",
    )
    parser.add_argument(
        "--batchcov-fe-length",
        type=int,
        default=150,
        help="FlowExpect stream length for the batch-coverage benchmark",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=None,
        help="fail unless every non-FlowExpect batch-coverage family is "
        "at least this many times faster than scalar (CI smoke floor)",
    )
    parser.add_argument(
        "--min-fe-batch-speedup",
        type=float,
        default=None,
        help="fail unless the FlowExpect batch adapter clears this "
        "lower, Amdahl-bounded floor (see docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--skip-batchcov",
        action="store_true",
        help="skip the batch-coverage adapter benchmark",
    )
    parser.add_argument(
        "--serve-length",
        type=int,
        default=SERVE_LENGTH,
        help="stream length for the serving-tier throughput benchmark",
    )
    parser.add_argument(
        "--serve-shards",
        type=int,
        default=4,
        help="shard count for the serving-tier throughput benchmark",
    )
    parser.add_argument(
        "--serve-queue",
        type=int,
        default=256,
        help="per-shard queue bound for the serving-tier benchmark",
    )
    parser.add_argument(
        "--skip-serve",
        action="store_true",
        help="skip the serving-tier throughput benchmark",
    )
    parser.add_argument(
        "--multi-length",
        type=int,
        default=300,
        help="stream length for the multi-join benchmark",
    )
    parser.add_argument(
        "--multi-trials",
        type=int,
        default=64,
        help="trial count for the multi-join scalar-vs-batch timing",
    )
    parser.add_argument(
        "--multi-serve-length",
        type=int,
        default=1500,
        help="stream length for the multi-join serving throughput",
    )
    parser.add_argument(
        "--multi-shards",
        type=int,
        default=3,
        help="shard count for the multi-join serving throughput",
    )
    parser.add_argument(
        "--skip-multi",
        action="store_true",
        help="skip the multi-join benchmark",
    )
    parser.add_argument(
        "--sketch-cache-size",
        type=int,
        default=10**6,
        help="cache slots for the sketch front-end benchmark",
    )
    parser.add_argument(
        "--sketch-length",
        type=int,
        default=120_000,
        help="reference-stream length for the sketch benchmark",
    )
    parser.add_argument(
        "--sketch-max-mem-mb",
        type=float,
        default=64.0,
        help="tracemalloc peak budget (MB) for the sketch run",
    )
    parser.add_argument(
        "--sketch-width",
        type=int,
        default=65_536,
        help="count-min width per row for the sketch run",
    )
    parser.add_argument(
        "--skip-sketch",
        action="store_true",
        help="skip the sketch front-end benchmark",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=_REPO_ROOT / "BENCH_batch.json",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=_REPO_ROOT / "BENCH_history.jsonl",
        help="append this run to the benchmark history file "
        "(see tools/bench_history.py)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="do not append this run to the benchmark history",
    )
    args = parser.parse_args()

    fe_entry = run_flowexpect_bench(
        args.fe_length,
        args.fe_lookahead,
        max_null_overhead=args.max_null_overhead,
    )
    if (
        args.min_fe_speedup is not None
        and fe_entry["fast_speedup"] < args.min_fe_speedup
    ):
        raise SystemExit(
            f"FlowExpect fast-path speedup {fe_entry['fast_speedup']}x is "
            f"below the required floor {args.min_fe_speedup}x"
        )
    batchcov = None
    if not args.skip_batchcov:
        batchcov = run_batch_coverage_bench(
            args.batchcov_trials,
            args.batchcov_length,
            args.batchcov_fe_trials,
            args.batchcov_fe_length,
        )
        enforce_batch_coverage_floors(
            batchcov, args.min_batch_speedup, args.min_fe_batch_speedup
        )
    if args.skip_engines:
        return

    report = run_harness(args.trials, args.length, args.workers)
    report["flowexpect"] = fe_entry
    if batchcov is not None:
        report["batch_coverage"] = batchcov
    if not args.skip_serve:
        report["serve"] = run_serve_bench(
            args.serve_length,
            args.serve_shards,
            args.serve_queue,
            max_null_overhead=args.max_null_overhead,
        )
    if not args.skip_multi:
        report["multi_join"] = run_multi_join_bench(
            args.multi_length,
            args.multi_trials,
            args.multi_serve_length,
            args.multi_shards,
            args.serve_queue,
        )
    if not args.skip_sketch:
        report["sketch"] = run_sketch_bench(
            cache_size=args.sketch_cache_size,
            length=args.sketch_length,
            sketch_width=args.sketch_width,
            max_mem_mb=args.sketch_max_mem_mb,
        )
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    if not args.no_history:
        bench_history = _load_bench_history()
        entry = bench_history.entry_from_report(report)
        bench_history.append_entry(args.history, entry)
        print(
            f"history: appended run {entry['git_sha']} to {args.history}"
        )
    agg = report["aggregate"]
    print(
        f"\naggregate: scalar {agg['scalar_trials_per_sec']} -> "
        f"batch {agg['batch_trials_per_sec']} "
        f"({agg['batch_speedup']}x), parallel "
        f"{agg['parallel_trials_per_sec']} trials/sec "
        f"({agg['parallel_speedup']}x), flowexpect fast path "
        f"{fe_entry['fast_speedup']}x, written to {args.out}"
    )


if __name__ == "__main__":
    main()
