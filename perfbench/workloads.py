"""The benchmark's four workloads and how each is timed and checked.

Every input is generated here from the workload seed; the program only
receives the generated values.  Each workload checks its own outputs
against reference values computed on the same inputs by an independent
path (see :meth:`OfflineWorkload.reference` and
:meth:`ServeWorkload.reference`).  A mismatch or an exception counts as
a failed operation; it never aborts the run.

Offline workloads (``scalar-join``, ``scalar-cache``, ``batch``) are a
fixed list of operations.  One pass runs every operation once; the
timed section repeats passes and times each operation by the median of
its runs.
``serve`` drives one long trajectory through a sharded server, tick by
tick.  Both run calibration slices (:mod:`hostspeed`) between pieces
of their work and take each piece's time at the reference host speed.

Everything runs in one process and one thread.  The parallel engine is
not measured: on a 2-CPU host a fork pool measures the scheduler.
"""

from __future__ import annotations

import statistics
import traceback
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from repro.analysis import fitting
from repro.core import precompute
from repro.core.lifetime import LExp
from repro.experiments.configs import make_config, make_multi_config
from repro.obs import CounterRecorder
from repro.policies import make_policy
from repro.policies.heeb_policy import AR1CacheHeeb
from repro.serve import StreamServer
from repro.serve.shard import ShardRouter
from repro.sim.engine import ExperimentSpec
from repro.sim.runner import run_experiment
from repro.sim.step import join_step, make_join_state
from repro.sketch import AdmissionFilter
from repro.streams import melbourne
from repro.streams.ar1 import AR1Stream

from hostspeed import HostSpeed

CACHE_SIZE = 10
WARMUP = 4 * CACHE_SIZE
#: Steps of each operation run, untimed, at the end of set-up.
WARM_TICKS = 60
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Calibration slices before each set-up and after each operation.
SETUP_SLICES = 10
OP_SLICES = 2
#: Rounds of (plain, traced) fixed work in a traced run.
TRACE_ROUNDS = 3


def rng_for(seed: int, label: str) -> np.random.Generator:
    """The generator for one named input of one seed."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


def weighted_quantile(values, weights, q: float) -> float:
    """Smallest value whose cumulative weight reaches ``q`` of the total.

    When the cumulative weight lands exactly on ``q``, the next value is
    averaged in, as the median of an even count averages its middle two.
    """
    order = np.argsort(values, kind="stable")
    vals = np.asarray(values, dtype=np.float64)[order]
    cum = np.cumsum(np.asarray(weights, dtype=np.int64)[order])
    target = q * cum[-1]
    i = min(int(np.searchsorted(cum, target, side="left")), len(vals) - 1)
    if cum[i] == target and i + 1 < len(vals):
        return float((vals[i] + vals[i + 1]) / 2)
    return float(vals[i])


@dataclass
class Measurement:
    """What one timed section observed."""

    steps_per_s: float
    tick_p50_ms: float
    tick_p99_ms: float
    tick_samples: int
    attempted: int
    failed: int
    extra: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Offline workloads
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One operation: a policy over a list of trials on one engine."""

    label: str
    spec: ExperimentSpec
    factory: Callable
    data: list
    engine: Optional[str]
    #: Stream steps per trial (one lockstep step of the batch engine
    #: advances every trial by one of them).
    ticks: int
    #: Expected per-trial outcome; filled in by the reference phase.
    ref: tuple = ()

    @property
    def steps(self) -> int:
        return self.ticks * len(self.data)

    @property
    def latency_steps(self) -> int:
        """Steps that each take one step latency: lockstep steps of all
        trials on the batch engine, every trial's steps otherwise."""
        return self.ticks if self.engine == "batch" else self.steps


def outcome(kind: str, result) -> tuple:
    """Per-trial result counts (joins) or (hits, misses) pairs (cache)."""
    if kind == "cache":
        return tuple((int(r.hits), int(r.misses)) for r in result.per_run)
    return tuple(int(r.total_results) for r in result.per_run)


def run_op(op: Op, data=None) -> tuple:
    result = run_experiment(
        op.spec, op.factory, op.data if data is None else data,
        engine=op.engine,
    )
    return outcome(op.spec.kind, result)


def truncate(trial, n: int):
    """The first ``n`` steps of one trial of any kind."""
    if isinstance(trial, dict):
        return {k: v[:n] for k, v in trial.items()}
    if isinstance(trial, tuple):
        return tuple(v[:n] for v in trial)
    return trial[:n]


def belady_outcome(reference, cache_size: int) -> tuple[int, int]:
    """(hits, misses) of farthest-next-use caching with bypass.

    Any policy that evicts the candidate referenced farthest in the
    future is optimal, so LFD must reproduce these counts exactly.
    """
    never = len(reference)
    next_use = [never] * len(reference)
    last: dict = {}
    for i in range(len(reference) - 1, -1, -1):
        v = reference[i]
        if v is not None:
            next_use[i] = last.get(v, never)
            last[v] = i
    cached: dict = {}
    hits = misses = 0
    for i, v in enumerate(reference):
        if v is None:
            continue
        if v in cached:
            hits += 1
            cached[v] = next_use[i]
            continue
        misses += 1
        if len(cached) < cache_size:
            cached[v] = next_use[i]
            continue
        far = max(cached, key=cached.get)
        if cached[far] > next_use[i]:
            del cached[far]
            cached[v] = next_use[i]
    return hits, misses


def join_spec(config) -> ExperimentSpec:
    return ExperimentSpec(
        kind="join",
        cache_size=CACHE_SIZE,
        warmup=WARMUP,
        r_model=config.r_model,
        s_model=config.s_model,
        window_oracle=config.window_oracle,
    )


def multi_spec(config) -> ExperimentSpec:
    return ExperimentSpec(
        kind="multi_join",
        cache_size=CACHE_SIZE,
        warmup=WARMUP,
        queries=tuple(config.queries),
        models=config.models,
    )


def join_factories(config, names) -> dict[str, Callable]:
    make = {
        "RAND": lambda: make_policy("rand", seed=1),
        "PROB": lambda: make_policy("prob"),
        "LIFE": lambda: make_policy("life"),
        "LRU": lambda: make_policy("lru"),
        "HEEB": lambda: config.make_heeb(CACHE_SIZE),
    }
    return {
        n: make[n] for n in names if n != "LIFE" or config.has_life
    }


def join_trials(seed, config, label, length, n_trials):
    out = []
    for i in range(n_trials):
        rng = rng_for(seed, f"{label}#{i}")
        out.append((config.r_model.sample_path(length, rng),
                    config.s_model.sample_path(length, rng)))
    return out


def multi_trials(seed, config, label, length, n_trials):
    out = []
    for i in range(n_trials):
        rng = rng_for(seed, f"{label}#{i}")
        out.append({name: model.sample_path(length, rng)
                    for name, model in config.models.items()})
    return out


def real_series(seed: int, label: str, n_days: int):
    """The REAL pipeline's inputs: temperatures, fitted AR(1), buckets."""
    temps = melbourne.melbourne_like_temperatures(n_days, rng_for(seed, label))
    fit = fitting.fit_ar1(temps)
    model = AR1Stream(fit.phi0, fit.phi1, fit.sigma, bucket=0.1)
    return model, [model.to_bucket(t) for t in temps]


def real_series_set(seed: int, label: str, n_series: int, n_days: int):
    """Independent temperature series under one AR(1) fit to all of them."""
    temps = [melbourne.melbourne_like_temperatures(
        n_days, rng_for(seed, f"{label}#{i}")) for i in range(n_series)]
    fit = fitting.fit_ar1(np.concatenate(temps))
    model = AR1Stream(fit.phi0, fit.phi1, fit.sigma, bucket=0.1)
    return model, [[model.to_bucket(t) for t in series] for series in temps]


def h2_surface(model: AR1Stream, reference, memory: int, bucket=0.1):
    """Theorem 5's precomputed h2 surface, as in Figure 13."""
    lo, hi = min(reference), max(reference)
    v_grid = np.linspace(lo, hi, 5).round().astype(int)
    x_grid = np.linspace(lo * bucket, hi * bucket, 5)
    return precompute.ar1_h2_cache(
        model, LExp(float(memory)), v_grid, x_grid, exact_steps=60
    )


def cache_factories(model, reference, surface) -> dict[str, Callable]:
    return {
        "LRU": lambda: make_policy("lru"),
        "LFU": lambda: make_policy("lfu"),
        "LFU-CM": lambda: make_policy(
            "lfu", counts="sketch").with_admission(AdmissionFilter()),
        "RAND": lambda: make_policy("rand", seed=1),
        "LFD": lambda: make_policy("lfd", reference=reference),
        "HEEB": lambda: make_policy(
            "heeb", strategy=AR1CacheHeeb(model, surface)),
    }


def build_scalar_join(seed: int, scale: float) -> list[Op]:
    """Figure 8's mix plus CHAIN3 and one FlowExpect run, one trial each."""
    length = scaled(300, scale, 60)
    ops = []
    for cname in ("TOWER", "ROOF", "FLOOR", "WALK"):
        config = make_config(cname)
        data = join_trials(seed, config, cname, length, 1)
        factories = join_factories(
            config, ("RAND", "PROB", "LIFE", "LRU", "HEEB"))
        for pname, factory in factories.items():
            ops.append(Op(f"{cname}/{pname}", join_spec(config), factory,
                          data, None, length))
    chain3 = make_multi_config("CHAIN3")
    m_length = scaled(200, scale, 60)
    data = multi_trials(seed, chain3, "CHAIN3", m_length, 1)
    for pname, factory in (
        ("LRU", lambda: make_policy("lru")),
        ("PROB", lambda: make_policy("prob")),
    ):
        ops.append(Op(f"CHAIN3/{pname}", multi_spec(chain3), factory, data,
                      None, m_length))
    # Generic HEEB costs ~3 ms a step; its shorter trial keeps a pass
    # short enough to repeat many times while still holding ~2% of the
    # pass's steps, so the step-weighted p99 lands inside it.
    h_length = scaled(120, scale, 60)
    ops.append(Op("CHAIN3/HEEB", multi_spec(chain3),
                  lambda: chain3.make_heeb(CACHE_SIZE),
                  [truncate(data[0], h_length)], None, h_length))
    floor = make_config("FLOOR")
    f_length = scaled(100, scale, 60)
    ops.append(Op(
        "FLOOR/FLOWEXPECT", join_spec(floor),
        lambda: make_policy("flowexpect", lookahead=5,
                            r_model=floor.r_model, s_model=floor.s_model),
        join_trials(seed, floor, "FLOOR-FE", f_length, 1), None, f_length,
    ))
    return ops


def build_scalar_cache(seed: int, scale: float) -> list[Op]:
    """Figure 13's REAL caching pipeline at memory 50 and 150."""
    # Eviction counts, and so the cost of a step, vary with the series;
    # five seasons of data in three independent series keep that
    # variation across seeds small.
    n_days = scaled(600, scale, 200)
    model, series = real_series_set(seed, "REAL", 3, n_days)
    everything = [v for reference in series for v in reference]
    ops = []
    for memory in (50, 150):
        surface = h2_surface(model, everything, memory)
        spec = ExperimentSpec(kind="cache", cache_size=memory, warmup=0,
                              r_model=model)
        for pname, factory in cache_factories(
                model, series[0], surface).items():
            # LFD reads the future of one reference, the first series.
            # That also keeps the step-weighted median away from the
            # gap between the cheap policies (RAND, LRU, LFD) and the
            # dear ones, where it would jump from run to run.
            data = series[:1] if pname == "LFD" else series
            ops.append(Op(f"REAL{memory}/{pname}", spec, factory, data,
                          None, n_days))
    return ops


def build_batch(seed: int, scale: float) -> list[Op]:
    """The same kinds with many trials each, on the batch engine."""
    n_trials = scaled(24, scale, 3)
    length = scaled(300, scale, 60)
    ops = []
    for cname, names in (
        ("TOWER", ("PROB", "HEEB")),
        ("FLOOR", ("RAND", "LIFE", "LRU", "HEEB")),
        ("WALK", ("PROB", "HEEB")),
    ):
        config = make_config(cname)
        data = join_trials(seed, config, f"B-{cname}", length, n_trials)
        for pname, factory in join_factories(config, names).items():
            ops.append(Op(f"{cname}/{pname}", join_spec(config), factory,
                          data, "batch", length))
    m_length = scaled(150, scale, 60)
    for mname, names in (("CHAIN3", ("LRU", "PROB", "HEEB")),
                         ("STAR5", ("PROB", "HEEB"))):
        config = make_multi_config(mname)
        data = multi_trials(seed, config, f"B-{mname}", m_length, n_trials)
        make = {
            "LRU": lambda: make_policy("lru"),
            "PROB": lambda: make_policy("prob"),
            "HEEB": lambda c=config: c.make_heeb(CACHE_SIZE),
        }
        for pname in names:
            ops.append(Op(f"{mname}/{pname}", multi_spec(config), make[pname],
                          data, "batch", m_length))
    n_series = scaled(8, scale, 2)
    n_days = scaled(400, scale, 200)
    series = [real_series(seed, f"B-REAL#{i}", n_days)
              for i in range(n_series)]
    model, first = series[0]
    surface = h2_surface(model, first, 50)
    spec = ExperimentSpec(kind="cache", cache_size=50, warmup=0, r_model=model)
    factories = cache_factories(model, first, surface)
    for pname in ("LRU", "LFU", "RAND", "HEEB"):
        ops.append(Op(f"REAL50/{pname}", spec, factories[pname],
                      [ref for _, ref in series], "batch", n_days))
    return ops


class OfflineWorkload:
    """A fixed list of operations, timed pass by pass."""

    def __init__(self, build: Callable[[int, float], list[Op]]):
        self.build = build

    def setup(self, seed: int, scale: float) -> list[Op]:
        return self.build(seed, scale)

    def warm(self, ops: list[Op]) -> None:
        for op in ops:
            run_op(op, [truncate(t, WARM_TICKS) for t in op.data])

    def reference(self, ops: list[Op]) -> None:
        """Fill ``op.ref`` from a path independent of the timed one.

        Scalar operations are checked against the batch engine on the
        same trials, LFD against a direct farthest-next-use replay.  The
        batch workload is checked against the scalar engine on its first
        trial and, for the rest, against its own first run.  The
        one policy with neither (LFU with count-min counts and bloom
        admission) is checked against its own first scalar run.
        """
        for op in ops:
            if op.engine == "batch":
                ref = list(run_op(op))
                ref[0] = run_op(Op(op.label, op.spec, op.factory,
                                   op.data[:1], None, op.ticks))[0]
                op.ref = tuple(ref)
            elif op.label.endswith("/LFD"):
                op.ref = tuple(belady_outcome(trial, op.spec.cache_size)
                               for trial in op.data)
            elif op.label.endswith("/LFU-CM"):
                op.ref = run_op(op)
            else:
                op.ref = run_op(Op(op.label, op.spec, op.factory, op.data,
                                   "batch", op.ticks))

    def one_pass(self, ops: list[Op], speed: Optional[HostSpeed] = None
                 ) -> tuple[list[tuple[float, float]], int]:
        """Run every operation once.

        Returns each operation's (start, end) ``perf_counter`` readings
        and the number of failed trials.  With ``speed``, calibration
        slices run after each operation.
        """
        spans, failed = [], 0
        for op in ops:
            t0 = perf_counter()
            try:
                got = run_op(op)
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                got = ()
            spans.append((t0, perf_counter()))
            failed += sum(a != b for a, b in zip(got, op.ref))
            failed += len(op.ref) - len(got)
            if speed is not None:
                speed.run(OP_SLICES)
        return spans, failed

    def measure(self, ops: list[Op], seconds: float,
                speed: HostSpeed) -> Measurement:
        """Repeat passes for ``seconds``; time each operation by the median
        of its runs, each at the reference host speed around it.

        Every operation is timed many times across the whole window and
        the pass time is the sum of the per-operation figures.
        """
        spans: list[list[tuple[float, float]]] = [[] for _ in ops]
        passes = failed = 0
        elapsed = 0.0
        t_start = perf_counter()
        # Start another pass only if it would end about on time.
        while not passes or elapsed * (1 + 0.5 / passes) < seconds:
            pass_spans, bad = self.one_pass(ops, speed)
            for op_spans, span in zip(spans, pass_spans):
                op_spans.append(span)
            passes += 1
            failed += bad
            elapsed = perf_counter() - t_start
        op_times = [
            statistics.median((t1 - t0) / speed.factor(t0, t1)
                              for t0, t1 in op_spans)
            for op_spans in spans
        ]
        weights = [op.latency_steps for op in ops]
        lat = [1000.0 * m / w for m, w in zip(op_times, weights)]
        return Measurement(
            steps_per_s=sum(op.steps for op in ops) / sum(op_times),
            tick_p50_ms=weighted_quantile(lat, weights, 0.50),
            tick_p99_ms=weighted_quantile(lat, weights, 0.99),
            tick_samples=passes * sum(weights),
            attempted=passes * sum(len(op.data) for op in ops),
            failed=failed,
            extra={"passes": passes},
        )

    def traced(self, seed: int, scale: float,
               tracer) -> tuple[Measurement, dict]:
        """Set up under the tracer, then alternate plain and traced passes.

        The traced work is a fixed number of passes, so its counts repeat
        exactly for a seed; the overhead compares the median passes.
        """
        with tracer:
            ops = self.setup(seed, scale)
        self.warm(ops)
        self.reference(ops)
        plain, traced = [], []
        for _ in range(TRACE_ROUNDS):
            plain.append(self.measure_fixed(ops))
            with tracer:
                traced.append(self.measure_fixed(ops))
        rate = statistics.median(m.steps_per_s for m in traced)
        everything = plain + traced
        return Measurement(
            rate, 0.0, 0.0, 0,
            attempted=sum(m.attempted for m in everything),
            failed=sum(m.failed for m in everything),
        ), {
            "trace.overhead": statistics.median(
                m.steps_per_s for m in plain) / rate,
            "serve.events_per_tick": 0.0,
            "serve.shard_skew": 0.0,
        }

    def measure_fixed(self, ops: list[Op]) -> Measurement:
        spans, failed = self.one_pass(ops)
        n = sum(len(op.data) for op in ops)
        steps = sum(op.steps for op in ops)
        seconds = sum(t1 - t0 for t0, t1 in spans)
        return Measurement(steps / seconds, 0.0, 0.0, 0, n, failed)


# ----------------------------------------------------------------------
# Serve
# ----------------------------------------------------------------------
SERVE_SHARDS = 4
#: Ticks sampled per run; a run that uses them all ends early.
SERVE_MAX_TICKS = 120_000
#: Untimed ticks at the end of set-up.
SERVE_WARM_TICKS = 1_000
#: Ticks per plain or traced round of a traced run.
SERVE_TRACED_TICKS = 2_000
#: Ticks per timed chunk; one calibration slice runs after each chunk.
#: The host's speed can change several times a second, so chunks are
#: short.
SERVE_CHUNK = 200
#: Chunks pooled for one p99 (2000 ticks, 20 beyond it).
SERVE_P99_CHUNKS = 10


@dataclass
class ServeState:
    server: StreamServer
    config: object
    r: list
    s: list
    #: Next tick index of the trajectory.
    t: int = 0
    #: Per-tick results observed by the client, from tick 0.
    deltas: list = field(default_factory=list)


class ServeWorkload:
    """A 4-shard server joining FLOOR streams under HEEB, counters on.

    One closed-loop client sends each tick with ``submit`` and waits on
    ``drain`` before sending the next, so each tick's latency is from
    ``submit`` until that tick is applied.
    """

    async def setup(self, seed: int, scale: float) -> ServeState:
        config = make_config("FLOOR")
        n = scaled(SERVE_MAX_TICKS, scale, 400)
        rng = rng_for(seed, "SERVE")
        r = config.r_model.sample_path(n, rng)
        s = config.s_model.sample_path(n, rng)
        server = StreamServer(
            join_spec(config), lambda: config.make_heeb(CACHE_SIZE),
            n_shards=SERVE_SHARDS, recorder=CounterRecorder(),
        )
        await server.start()
        return ServeState(server, config, r, s)

    async def warm(self, state: ServeState, scale: float) -> None:
        await self.ticks(state, scaled(SERVE_WARM_TICKS, scale, 50), None)

    async def ticks(self, state: ServeState, n: int, latencies) -> int:
        """Send up to ``n`` ticks closed-loop; return how many were sent."""
        server, r, s = state.server, state.r, state.s
        n = min(n, len(r) - state.t)
        prev = server.total_results
        for t in range(state.t, state.t + n):
            t0 = perf_counter()
            try:
                await server.submit(t, r[t], s[t])
                await server.drain()
                ok = True
            except Exception:  # a failed tick is counted, not fatal
                traceback.print_exc()
                ok = False
            if latencies is not None:
                latencies.append(perf_counter() - t0)
            now = server.total_results
            state.deltas.append(now - prev if ok else None)
            prev = now
        state.t += n
        return n

    def reference(self, state: ServeState) -> list[int]:
        """Per-tick results of the same ticks on per-shard step states.

        Each shard is a fresh HEEB state fed the arrivals that hash to
        it, with the absent side as "−", driven directly by
        :func:`~repro.sim.step.join_step` without the event loop.
        """
        config = state.config
        router = ShardRouter(SERVE_SHARDS)
        shards = [
            make_join_state(CACHE_SIZE, config.make_heeb(CACHE_SIZE),
                            r_model=config.r_model, s_model=config.s_model,
                            window_oracle=config.window_oracle)
            for _ in range(SERVE_SHARDS)
        ]
        out = []
        for t in range(state.t):
            events: dict[int, list] = {}
            if state.r[t] is not None:
                events.setdefault(router.shard_for(state.r[t]),
                                  [None, None])[0] = state.r[t]
            if state.s[t] is not None:
                events.setdefault(router.shard_for(state.s[t]),
                                  [None, None])[1] = state.s[t]
            out.append(sum(join_step(shards[i], t, *events[i]).results
                           for i in sorted(events)))
        return out

    def check(self, state: ServeState, first: int) -> tuple[int, int]:
        """(attempted, failed) over ticks ``first`` onwards."""
        ref = self.reference(state)
        got = state.deltas
        failed = sum(a != b for a, b in zip(got[first:], ref[first:]))
        return len(got) - first, failed + len(ref) - len(got)

    async def measure(self, state: ServeState, seconds: float,
                      speed: HostSpeed) -> Measurement:
        """Send ticks for ``seconds`` in chunks of :data:`SERVE_CHUNK`,
        with a calibration slice after each chunk.

        Each chunk's times are taken at the reference host speed around
        it.  Throughput is ticks over the sum of those times, median
        latency is over every tick, and p99 latency is the median of the
        p99s of blocks of :data:`SERVE_P99_CHUNKS` chunks.
        """
        first = state.t
        chunks = []
        speed.run(1)
        t_start = perf_counter()
        while perf_counter() - t_start < seconds:
            t0 = perf_counter()
            latencies: list[float] = []
            sent = await self.ticks(state, SERVE_CHUNK, latencies)
            if sent == 0:
                break
            chunks.append((t0, perf_counter(), latencies))
            speed.run(1)
        attempted, failed = self.check(state, first)
        factors = [speed.factor(t0, t1) for t0, t1, _ in chunks]
        chunk_times = [(t1 - t0) / f for (t0, t1, _), f in zip(chunks, factors)]
        chunk_latencies = [np.asarray(latencies) / f
                           for (_, _, latencies), f in zip(chunks, factors)]
        n = SERVE_P99_CHUNKS
        p99s = [
            float(np.percentile(np.concatenate(chunk_latencies[i:i + n]), 99))
            for i in range(0, max(1, len(chunk_latencies) - n + 1), n)
        ]
        everything = np.concatenate(chunk_latencies)
        return Measurement(
            steps_per_s=everything.size / sum(chunk_times),
            tick_p50_ms=1000.0 * float(np.median(everything)),
            tick_p99_ms=1000.0 * statistics.median(p99s),
            tick_samples=everything.size,
            attempted=attempted,
            failed=failed,
            extra={"chunks": len(chunks), "p99_blocks": len(p99s)},
        )

    async def traced(self, seed: int, scale: float, tracer):
        with tracer:
            state = await self.setup(seed, scale)
        await self.warm(state, scale)
        n = scaled(SERVE_TRACED_TICKS, scale, 100)
        first = state.t
        before = [sh.events_applied for sh in state.server.shards]
        plain, traced = [], []
        for _ in range(TRACE_ROUNDS):
            t0 = perf_counter()
            await self.ticks(state, n, None)
            plain.append(n / (perf_counter() - t0))
            with tracer:
                t0 = perf_counter()
                await self.ticks(state, n, None)
                traced.append(n / (perf_counter() - t0))
        applied = [sh.events_applied - b
                   for sh, b in zip(state.server.shards, before)]
        await state.server.stop()
        attempted, failed = self.check(state, first)
        traced_rate = statistics.median(traced)
        extra = {
            "trace.overhead": statistics.median(plain) / traced_rate,
            "serve.events_per_tick": sum(applied) / (2 * TRACE_ROUNDS * n),
            "serve.shard_skew": max(applied) / (sum(applied) / len(applied)),
        }
        return Measurement(traced_rate, 0.0, 0.0, 0, attempted, failed), extra


WORKLOADS = {
    "scalar-join": OfflineWorkload(build_scalar_join),
    "scalar-cache": OfflineWorkload(build_scalar_cache),
    "batch": OfflineWorkload(build_batch),
    "serve": ServeWorkload(),
}
