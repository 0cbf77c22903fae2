"""Push-driven asyncio join/cache service over the shared step functions.

:class:`StreamServer` is the serving tier promised by the roadmap: the
same per-step transition the simulators drive with a ``for`` loop
(:mod:`repro.sim.step`), driven instead by an asyncio event loop fed by
concurrent producers.  Because both drivers call the *same* pure
transition over the *same* state objects, a single-shard server replay
of a seeded stream is decision-identical to the scalar simulator — the
parity suite (``tests/test_serve_parity.py``,
``tests/test_serve_multi.py``) pins kept/victim uids, hit counts, and
:mod:`repro.obs` counters byte for byte.  All three problem kinds are
served: two-stream joins, the caching problem, and the Appendix-C
multi-join topologies (``kind="multi_join"``, fed via
:meth:`StreamServer.submit_multi`).

Architecture
------------
* **Shards.**  The join-attribute space is partitioned across
  ``n_shards`` independent caches (:class:`~repro.serve.shard.ShardRouter`),
  each with its own policy instance, :class:`~repro.policies.base.PolicyContext`,
  and bounded event queue.  Routing by join value means all matches for
  a key are intra-shard — in the multi-join case every query edge probes
  by the same join attribute, so one value-keyed router covers all
  queries and no cross-shard probe exists.  Each shard's capacity is
  ``spec.cache_size`` (total capacity scales with shards).
* **Backpressure.**  Each shard queue is a bounded :class:`asyncio.Queue`;
  when a queue is full, ``submit`` awaits — producers slow to the rate
  of the slowest shard instead of growing memory without bound.
  Engagements are counted (``serve.backpressure.engaged``) and queue
  depth is reported through the recorder's ``series()`` telemetry.
* **Instrumentation.**  With one shard the caller's recorder is used
  directly (exact simulator parity, trace events included).  With many
  shards each shard records into a :meth:`~repro.obs.recorder.Recorder.fork`
  of the caller's recorder and the snapshots are merged back additively
  at :meth:`StreamServer.stop` — the same pattern the parallel engine
  uses for worker processes.
* **Runtime observability.**  The request path ``submit → route →
  queue_wait → decide → emit`` is span-timed (:mod:`repro.obs.spans`)
  into mergeable log-bucketed latency histograms
  (:mod:`repro.obs.hist`), all guarded so a
  :class:`~repro.obs.NullRecorder` run reads no clocks.  An opt-in
  asyncio endpoint (:meth:`StreamServer.start_metrics`) serves
  Prometheus-text ``/metrics`` and JSON ``/health`` live.
* **Uids.**  Shard ``i`` of ``n`` mints tuple uids ``i, i + n,
  i + 2n, ...`` (a strided :class:`~repro.core.tuples.TupleFactory`),
  so uids are globally unique and deterministic per shard regardless of
  event-loop interleaving — which is what makes live resharding
  (:meth:`StreamServer.reshard`) collision-free.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Union

from ..core.tuples import StreamTuple, TupleFactory
from ..obs.hist import HistogramSet, LogHistogram
from ..obs.recorder import NULL_RECORDER, Recorder
from ..obs.spans import SERVE_SPAN_PREFIX, SpanTracker
from ..policies.base import ReplacementPolicy
from ..sim.engine import ExperimentSpec
from ..sim.step import (
    CacheStepState,
    JoinStepState,
    MultiJoinStepState,
    build_multi_join_state,
    cache_step,
    join_step,
    make_cache_state,
    make_join_state,
    multi_join_step,
    multi_partner_names,
)
from ..streams.base import Value
from .shard import ShardRouter, reshard as reshard_tuples

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from .metrics import MetricsEndpoint

__all__ = ["Shard", "StreamServer", "ServerClosed"]

#: Queue sentinel telling a shard worker to exit after draining.
_STOP = object()

#: Default bound on each shard's event queue.
DEFAULT_QUEUE_MAXSIZE = 1024


class ServerClosed(RuntimeError):
    """Raised when submitting to a server that is not accepting events."""


class Shard:
    """One shard: its own cache/policy state plus a bounded event queue.

    Created and owned by :class:`StreamServer`; exposed read-only for
    inspection (tests, stats).  ``state`` is a
    :class:`~repro.sim.step.JoinStepState`,
    :class:`~repro.sim.step.CacheStepState`, or
    :class:`~repro.sim.step.MultiJoinStepState`.
    """

    def __init__(
        self,
        index: int,
        state: Union[JoinStepState, CacheStepState, MultiJoinStepState],
        queue_maxsize: int,
    ):
        """Bind the shard's index, step state, and bounded queue."""
        self.index = index
        self.state = state
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=queue_maxsize)
        self.worker: Optional[asyncio.Task] = None
        #: Events this shard's worker has applied.
        self.events_applied = 0
        #: Times a producer found this shard's queue full and had to wait.
        self.backpressure_waits = 0
        #: Seconds producers spent blocked on this shard's full queue.
        self.backpressure_wait_seconds = 0.0
        #: High-water mark of the queue depth observed at enqueue time.
        self.max_queue_depth = 0
        #: Events put on the queue and not yet marked done by the
        #: worker — the queue's unfinished-task count, minus the stop
        #: sentinel.  Zero means ``queue.join()`` would return at once.
        self.pending = 0
        #: Recorder snapshot captured at server stop (sharded mode only).
        self.snapshot: Optional[dict] = None
        #: Worker-side span latency histograms (queue_wait/decide/emit).
        self.hists = HistogramSet()
        #: Span timing for this shard's worker loop; records ``*_ms``
        #: series through the shard recorder and into :attr:`hists`.
        self.spans = SpanTracker(
            state.recorder, self.hists, prefix=SERVE_SPAN_PREFIX
        )
        #: True once :attr:`hists` has been folded into the server-level
        #: set (shard retirement at stop/abort/reshard).
        self.hists_folded = False

    @property
    def alive(self) -> bool:
        """True while this shard's worker task is running."""
        return self.worker is not None and not self.worker.done()

    @property
    def occupancy(self) -> int:
        """Tuples currently cached by this shard."""
        return len(self.state.cache)


class StreamServer:
    """Asyncio join/cache service sharing the simulators' transition.

    Parameters
    ----------
    spec:
        The problem description (``kind`` may be ``"join"``, ``"cache"``,
        or ``"multi_join"`` — the Appendix-C generalization is served
        through :meth:`submit_multi`).  ``cache_size`` is the
        *per-shard* capacity.
    policy_factory:
        Builds a fresh replacement policy per shard, exactly like the
        per-trial factories of :func:`~repro.sim.runner.run_experiment`.
    n_shards:
        Number of independent cache shards (default 1: simulator-parity
        mode, where the caller's recorder is shared verbatim).
    queue_maxsize:
        Bound on each shard's event queue; full queues apply
        backpressure to ``submit`` callers.
    recorder:
        Observability sink (:mod:`repro.obs`).  Counters/series:
        ``serve.ingested``, ``serve.backpressure.engaged``,
        ``serve.queue_depth`` plus everything the step functions emit.
    step_delay:
        Artificial seconds slept per applied event — a slow-consumer
        knob for backpressure tests and demos, 0.0 in production.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        policy_factory: Callable[[], ReplacementPolicy],
        *,
        n_shards: int = 1,
        queue_maxsize: int = DEFAULT_QUEUE_MAXSIZE,
        recorder: Recorder = NULL_RECORDER,
        step_delay: float = 0.0,
    ):
        """Validate the spec and build the (not yet started) shards."""
        if spec.kind not in ("join", "cache", "multi_join"):
            raise ValueError(
                "StreamServer serves 'join', 'cache', or 'multi_join' "
                f"specs, not {spec.kind!r}"
            )
        if spec.kind == "multi_join":
            partner_names = multi_partner_names(spec.queries)
            if spec.models:
                names = list(spec.models)
            else:
                names = []
                for a, b in spec.queries:
                    for name in (a, b):
                        if name not in names:
                            names.append(name)
            missing = set(partner_names) - set(names)
            if missing:
                raise ValueError(f"queries reference unknown streams {missing}")
            self._names: tuple[str, ...] = tuple(names)
        else:
            self._names = ()
        if queue_maxsize < 1:
            raise ValueError("queue_maxsize must be >= 1")
        if step_delay < 0:
            raise ValueError("step_delay must be nonnegative")
        self._spec = spec
        self._policy_factory = policy_factory
        self._recorder = recorder
        self._queue_maxsize = queue_maxsize
        self._step_delay = step_delay
        self._router = ShardRouter(n_shards)
        self._started = False
        self._stopping = False
        self._stopped = False
        #: The step of the last accepted tick (``None`` before the first).
        self._last_step: Optional[int] = None
        #: Arrivals (non-"−" values) accepted by ``submit`` so far.
        self.ingested_arrivals = 0
        #: Total times any producer hit a full queue.
        self.backpressure_waits = 0
        #: Total seconds producers spent blocked on full queues.
        self.backpressure_wait_seconds = 0.0
        #: Server-level latency histograms: producer-side spans plus the
        #: folded state of every retired shard (stop/abort/reshard).
        self._hists = HistogramSet()
        #: Producer-side span timing (submit/route).
        self._spans = SpanTracker(
            recorder, self._hists, prefix=SERVE_SPAN_PREFIX
        )
        self._started_at: Optional[float] = None
        self._stopped_at: Optional[float] = None
        self._metrics: Optional["MetricsEndpoint"] = None
        self._shards = [
            self._make_shard(i, n_shards, uid_start=i)
            for i in range(n_shards)
        ]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_shard(self, index: int, n_shards: int, uid_start: int) -> Shard:
        """Build one shard with its own policy, state, and recorder."""
        # Single shard shares the caller's recorder verbatim so traces,
        # counters, and series match the scalar simulator exactly; many
        # shards fork and merge at stop (the parallel-engine pattern).
        if n_shards == 1:
            shard_recorder = self._recorder
        else:
            shard_recorder = self._recorder.fork()
        spec = self._spec
        state: Union[JoinStepState, CacheStepState, MultiJoinStepState]
        if spec.kind == "join":
            state = make_join_state(
                spec.cache_size,
                self._policy_factory(),
                window=spec.window,
                band=spec.band,
                r_model=spec.r_model,
                s_model=spec.s_model,
                window_oracle=spec.window_oracle,
                recorder=shard_recorder,
            )
        elif spec.kind == "multi_join":
            state = build_multi_join_state(
                spec.cache_size,
                self._policy_factory(),
                spec.queries,
                list(self._names),
                models=spec.models,
                recorder=shard_recorder,
            )
        else:
            state = make_cache_state(
                spec.cache_size,
                self._policy_factory(),
                reference_model=spec.r_model,
                recorder=shard_recorder,
            )
        state.factory = TupleFactory(start=uid_start, step=n_shards)
        shard = Shard(index, state, self._queue_maxsize)
        # A live metrics endpoint keeps spans on even under a disabled
        # recorder (histograms still fill); new shards inherit that.
        shard.spans.active = self._spans.active
        return shard

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> ExperimentSpec:
        """The problem description this server was built for."""
        return self._spec

    @property
    def names(self) -> tuple[str, ...]:
        """Stream names served, in arrival order (multi-join kind;
        empty for join/cache)."""
        return self._names

    @property
    def n_shards(self) -> int:
        """Current number of shards."""
        return self._router.n_shards

    @property
    def shards(self) -> tuple[Shard, ...]:
        """The live shard objects, in index order (read-only view)."""
        return tuple(self._shards)

    @property
    def recorder(self) -> Recorder:
        """The server-level observability sink."""
        return self._recorder

    @property
    def uptime_seconds(self) -> float:
        """Monotonic seconds since :meth:`start` (frozen at stop)."""
        if self._started_at is None:
            return 0.0
        end = self._stopped_at
        return (end if end is not None else perf_counter()) - self._started_at

    @property
    def backpressure_duty(self) -> float:
        """Fraction of server uptime producers spent blocked on full
        queues (0.0 before start)."""
        uptime = self.uptime_seconds
        if uptime <= 0.0:
            return 0.0
        return min(1.0, self.backpressure_wait_seconds / uptime)

    @property
    def metrics_endpoint(self) -> Optional["MetricsEndpoint"]:
        """The live scrape endpoint, or ``None`` when not started."""
        return self._metrics

    def latency_histograms(self) -> dict[str, LogHistogram]:
        """Merged span-latency histograms across all shards.

        Combines the server-level set (producer-side spans plus every
        retired shard's folded state) with the live shards' sets, by
        exact same-layout bucket addition — total counts are preserved
        across fork/merge and :meth:`reshard` by construction.
        """
        merged = self._hists.copy()
        for shard in self._shards:
            if not shard.hists_folded and shard.hists:
                merged.merge(shard.hists.state())
        return merged.hists

    def span_p99_ms(self, span: str = "decide") -> Optional[float]:
        """P99 of one request-path span in milliseconds, or ``None``.

        ``span`` is the bare span name (``submit``, ``route``,
        ``queue_wait``, ``decide``, ``emit``).
        """
        hist = self.latency_histograms().get(f"{SERVE_SPAN_PREFIX}{span}_ms")
        if hist is None or hist.count == 0:
            return None
        return hist.quantile(0.99)

    @property
    def total_results(self) -> int:
        """Join results produced across all shards (join kinds)."""
        return sum(
            s.state.total_results
            for s in self._shards
            if isinstance(s.state, (JoinStepState, MultiJoinStepState))
        )

    def per_query_results(self) -> dict[frozenset, int]:
        """Results attributed per query pair, summed over shards
        (multi-join kind only)."""
        out: dict[frozenset, int] = {}
        for s in self._shards:
            if isinstance(s.state, MultiJoinStepState):
                for query, count in s.state.per_query.items():
                    out[query] = out.get(query, 0) + count
        return out

    @property
    def hits(self) -> int:
        """Cache hits across all shards (cache kind)."""
        return sum(
            s.state.hits
            for s in self._shards
            if isinstance(s.state, CacheStepState)
        )

    @property
    def misses(self) -> int:
        """Cache misses across all shards (cache kind)."""
        return sum(
            s.state.misses
            for s in self._shards
            if isinstance(s.state, CacheStepState)
        )

    def occupancy(self) -> int:
        """Tuples currently cached across all shards."""
        return sum(s.occupancy for s in self._shards)

    def cached_tuples(self) -> list[StreamTuple]:
        """All cached tuples, shard by shard in index order."""
        out: list[StreamTuple] = []
        for s in self._shards:
            out.extend(s.state.cache.tuples())
        return out

    def stats(self) -> dict:
        """Plain-dict operational summary for logs, CLIs, and benches."""
        per_shard = [
            {
                "shard": s.index,
                "events_applied": s.events_applied,
                "occupancy": s.occupancy,
                "max_queue_depth": s.max_queue_depth,
                "backpressure_waits": s.backpressure_waits,
            }
            for s in self._shards
        ]
        stats = {
            "kind": self._spec.kind,
            "n_shards": self.n_shards,
            "ingested_arrivals": self.ingested_arrivals,
            "backpressure_waits": self.backpressure_waits,
            "backpressure_wait_seconds": self.backpressure_wait_seconds,
            "uptime_seconds": self.uptime_seconds,
            "occupancy": self.occupancy(),
            "max_queue_depth": max(
                (s.max_queue_depth for s in self._shards), default=0
            ),
            "shards": per_shard,
        }
        if self._spec.kind in ("join", "multi_join"):
            stats["total_results"] = self.total_results
        else:
            stats["hits"] = self.hits
            stats["misses"] = self.misses
        return stats

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn one worker task per shard; idempotent calls are errors."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._started_at = perf_counter()
        for shard in self._shards:
            self._spawn_worker(shard)
        if self._recorder.enabled:
            self._recorder.count("serve.started")

    def _spawn_worker(self, shard: Shard) -> None:
        """Create the consumer task that applies events to one shard."""
        shard.worker = asyncio.create_task(
            self._worker(shard), name=f"repro-serve-shard-{shard.index}"
        )

    async def _worker(self, shard: Shard) -> None:
        """Consume the shard queue, applying one step per event.

        Per event the worker times the tail of the request path: the
        ``queue_wait`` span (enqueue timestamp → dequeue), the
        ``decide`` span (the pure step-function application), and the
        ``emit`` span (dequeue-side telemetry).  All span work is
        guarded on the shard tracker's ``active`` flag so a disabled
        run reads no clocks at all.
        """
        kind = self._spec.kind
        delay = self._step_delay
        recorder = shard.state.recorder
        spans = shard.spans
        while True:
            event = await shard.queue.get()
            try:
                if event is _STOP:
                    return
                spans_on = spans.active
                if spans_on:
                    t0 = perf_counter()
                    enq_ts = event[-1]
                    if enq_ts:
                        spans.record(
                            "queue_wait", event[0], (t0 - enq_ts) * 1000.0
                        )
                    t0 = perf_counter()
                if kind == "join":
                    t, r_val, s_val = event[0], event[1], event[2]
                    assert isinstance(shard.state, JoinStepState)
                    join_step(shard.state, t, r_val, s_val)
                elif kind == "multi_join":
                    t, arrivals = event[0], event[1]
                    assert isinstance(shard.state, MultiJoinStepState)
                    multi_join_step(shard.state, t, arrivals)
                else:
                    t, value = event[0], event[1]
                    assert isinstance(shard.state, CacheStepState)
                    cache_step(shard.state, t, value)
                shard.events_applied += 1
                if spans_on:
                    t1 = perf_counter()
                    spans.record("decide", t, (t1 - t0) * 1000.0)
                # Dequeue-side depth sample: without it the series only
                # ever sees enqueue-time depths, so drain and quiesce
                # phases (consumer catching up, producers idle) are
                # invisible.
                if recorder.enabled:
                    recorder.series(
                        "serve.queue_depth", t, shard.queue.qsize()
                    )
                if spans_on:
                    spans.record("emit", t, (perf_counter() - t1) * 1000.0)
                if delay:
                    await asyncio.sleep(delay)
            finally:
                shard.queue.task_done()
                if event is not _STOP:
                    shard.pending -= 1

    def _raise_if_worker_failed(self, shard: Shard) -> None:
        """Surface a crashed worker instead of deadlocking producers."""
        worker = shard.worker
        if worker is not None and worker.done() and not worker.cancelled():
            exc = worker.exception()
            if exc is not None:
                raise RuntimeError(
                    f"shard {shard.index} worker failed"
                ) from exc

    def _check_accepting(self) -> None:
        """Reject submissions outside the started-and-not-stopping window."""
        if not self._started:
            raise ServerClosed("server not started; call start() first")
        if self._stopping or self._stopped:
            raise ServerClosed("server is stopping; no new events accepted")

    def _check_tick(self, step: int, values) -> None:
        """Reject a tick the simulator would mishandle, before routing.

        Time must not run backwards (window clipping and the lifetime
        estimators assume it never does), and every non-"−" value must
        be a hashable, non-NaN key: NaN equals nothing, not even itself,
        so it could never join, and an unhashable value cannot index the
        cache or pick a shard.
        """
        last = self._last_step
        if last is not None and step < last:
            raise ValueError(
                f"step {step!r} is below the last accepted step {last!r}; "
                "ticks must arrive in nondecreasing step order"
            )
        for value in values:
            if value is None:
                continue
            try:
                hash(value)
            except TypeError:
                raise TypeError(
                    f"step {step!r}: value {value!r} is unhashable; "
                    "join values must be hashable keys"
                ) from None
            if value != value:
                raise ValueError(
                    f"step {step!r}: value {value!r} is NaN, which equals "
                    "no key and can never join"
                )
        self._last_step = step

    async def _enqueue(self, shard: Shard, event: tuple) -> None:
        """Bounded put with backpressure accounting and depth telemetry.

        The enqueue timestamp is appended to the event (0.0 when spans
        are off), so the shard worker can measure the ``queue_wait``
        span; when the queue is full the blocked time is accumulated
        into the backpressure duty-cycle accounting and emitted as the
        ``serve.backpressure.wait_ms`` series.
        """
        self._raise_if_worker_failed(shard)
        queue = shard.queue
        rec_on = self._recorder.enabled
        spans_on = self._spans.active
        if queue.full():
            shard.backpressure_waits += 1
            self.backpressure_waits += 1
            if rec_on:
                self._recorder.count("serve.backpressure.engaged")
            wait_start = perf_counter()
            await queue.put(event + (wait_start if spans_on else 0.0,))
            waited = perf_counter() - wait_start
            shard.backpressure_wait_seconds += waited
            self.backpressure_wait_seconds += waited
            if rec_on:
                self._recorder.series(
                    "serve.backpressure.wait_ms", event[0], waited * 1000.0
                )
        else:
            await queue.put(
                event + ((perf_counter() if spans_on else 0.0),)
            )
        shard.pending += 1
        depth = queue.qsize()
        if depth > shard.max_queue_depth:
            shard.max_queue_depth = depth
        if rec_on:
            self._recorder.count("serve.ingested")
            self._recorder.series("serve.queue_depth", event[0], depth)

    # ------------------------------------------------------------------
    # Producers
    # ------------------------------------------------------------------
    async def submit(self, step: int, r_value: Value, s_value: Value) -> None:
        """Push one join tick: the step's R and S arrivals (``None`` = "−").

        With one shard the tick is delivered whole — even a double-"−"
        tick — so the shard observes exactly the simulator's input.
        With many shards arrivals route by join value; a tick whose R
        and S land on different shards is split into per-side events
        (the absent side delivered as "−"), and "−" arrivals are not
        delivered at all (they carry no key and join nothing).
        """
        self._check_accepting()
        if self._spec.kind != "join":
            raise ValueError(
                "submit() is for join servers; use submit_reference() "
                "or submit_multi()"
            )
        self._check_tick(step, (r_value, s_value))
        with self._spans.span("submit", step):
            self.ingested_arrivals += (r_value is not None) + (
                s_value is not None
            )
            if self._router.n_shards == 1:
                await self._enqueue(self._shards[0], (step, r_value, s_value))
                return
            events: dict[int, list[Value]] = {}
            with self._spans.span("route", step):
                if r_value is not None:
                    events.setdefault(
                        self._router.shard_for(r_value), [None, None]
                    )[0] = r_value
                if s_value is not None:
                    events.setdefault(
                        self._router.shard_for(s_value), [None, None]
                    )[1] = s_value
            if not events:
                if self._recorder.enabled:
                    self._recorder.count("serve.null_ticks")
                return
            for index in sorted(events):
                r_val, s_val = events[index]
                await self._enqueue(self._shards[index], (step, r_val, s_val))

    async def submit_reference(self, step: int, value: Value) -> None:
        """Push one caching-problem reference (``None`` = skipped "−")."""
        self._check_accepting()
        if self._spec.kind != "cache":
            raise ValueError("submit_reference() is for cache servers; use submit()")
        self._check_tick(step, (value,))
        with self._spans.span("submit", step):
            if value is not None:
                self.ingested_arrivals += 1
            if self._router.n_shards == 1:
                await self._enqueue(self._shards[0], (step, value))
                return
            if value is None:
                if self._recorder.enabled:
                    self._recorder.count("serve.null_ticks")
                return
            with self._spans.span("route", step):
                shard = self._shards[self._router.shard_for(value)]
            await self._enqueue(shard, (step, value))

    async def submit_multi(self, step: int, arrivals: Mapping[str, Value]) -> None:
        """Push one multi-join tick: arrivals keyed by stream name.

        Streams absent from ``arrivals`` are treated as "−" (``None``).
        With one shard the tick is delivered whole, normalized over the
        server's stream set, so the shard observes exactly the scalar
        simulator's input.  With many shards each non-"−" arrival routes
        by its join value — every query edge probes the same attribute,
        so all of a value's matches stay intra-shard — and arrivals
        landing on the same shard share one event; an all-"−" tick is
        not delivered at all (``serve.null_ticks``).
        """
        self._check_accepting()
        if self._spec.kind != "multi_join":
            raise ValueError("submit_multi() is for multi-join servers")
        unknown = set(arrivals) - set(self._names)
        if unknown:
            raise ValueError(f"arrivals for unknown streams {sorted(unknown)}")
        self._check_tick(step, arrivals.values())
        with self._spans.span("submit", step):
            self.ingested_arrivals += sum(
                v is not None for v in arrivals.values()
            )
            if self._router.n_shards == 1:
                tick = {name: arrivals.get(name) for name in self._names}
                await self._enqueue(self._shards[0], (step, tick))
                return
            events: dict[int, dict[str, Value]] = {}
            with self._spans.span("route", step):
                for name in self._names:
                    value = arrivals.get(name)
                    if value is None:
                        continue
                    index = self._router.shard_for(value)
                    events.setdefault(
                        index, {n: None for n in self._names}
                    )[name] = value
            if not events:
                if self._recorder.enabled:
                    self._recorder.count("serve.null_ticks")
                return
            for index in sorted(events):
                await self._enqueue(
                    self._shards[index], (step, events[index])
                )

    # ------------------------------------------------------------------
    # Drain / stop
    # ------------------------------------------------------------------
    async def _await_or_worker_death(
        self, shard: Shard, awaitable: "asyncio.Future"
    ) -> None:
        """Wait for ``awaitable``, bailing out if the shard worker dies."""
        pending_task = asyncio.ensure_future(awaitable)
        worker = shard.worker
        assert worker is not None
        done, _ = await asyncio.wait(
            {pending_task, worker}, return_when=asyncio.FIRST_COMPLETED
        )
        if pending_task not in done:
            pending_task.cancel()
            self._raise_if_worker_failed(shard)
            raise RuntimeError(
                f"shard {shard.index} worker exited while waiting"
            )

    async def drain(self) -> None:
        """Block until every queued event has been applied.

        Only shards with pending events are awaited; an idle shard's
        ``queue.join()`` would return at once, so skipping it changes
        nothing but the cost.  Deadlock-safe: if a shard worker crashed,
        the failure is raised here (idle shard or not) instead of
        waiting forever on its queue.
        """
        if not self._started:
            return
        for shard in self._shards:
            self._raise_if_worker_failed(shard)
            if shard.pending:
                await self._await_or_worker_death(shard, shard.queue.join())

    async def stop(self) -> None:
        """Graceful shutdown: drain queues, stop workers, merge metrics.

        Sentinels go behind any queued work (FIFO), so every accepted
        event is applied before its worker exits.  In sharded mode each
        shard's forked recorder snapshot is merged into the caller's
        recorder (and kept on the shard for per-shard inspection).
        """
        if not self._started or self._stopped:
            self._stopped = True
            self._stopping = True
            await self.stop_metrics()
            return
        self._stopping = True
        failures: list[BaseException] = []
        for shard in self._shards:
            worker = shard.worker
            assert worker is not None
            if not worker.done():
                try:
                    await self._await_or_worker_death(
                        shard, shard.queue.put(_STOP)
                    )
                except RuntimeError:
                    pass  # worker died; collected from the task below
            try:
                await worker
            except asyncio.CancelledError:
                pass
            except BaseException as exc:  # resurfaced after cleanup below
                failures.append(exc)
        self._stopped = True
        if self._stopped_at is None:
            self._stopped_at = perf_counter()
        if self._recorder.enabled:
            self._recorder.series(
                "serve.uptime_ms", 0, self.uptime_seconds * 1000.0
            )
        self._fold_shard_hists()
        self._merge_shard_snapshots()
        if self._recorder.enabled:
            self._recorder.count("serve.stopped")
        await self.stop_metrics()
        if failures:
            raise failures[0]

    async def abort(self) -> None:
        """Hard shutdown: cancel workers without draining queues."""
        self._stopping = True
        for shard in self._shards:
            if shard.worker is not None:
                shard.worker.cancel()
        await asyncio.gather(
            *(s.worker for s in self._shards if s.worker is not None),
            return_exceptions=True,
        )
        self._stopped = True
        if self._stopped_at is None:
            self._stopped_at = perf_counter()
        self._fold_shard_hists()
        self._merge_shard_snapshots()
        await self.stop_metrics()

    def _merge_shard_snapshots(self) -> None:
        """Fold forked per-shard recorders back into the caller's sink."""
        if self.n_shards == 1 or not self._recorder.enabled:
            return
        for shard in self._shards:
            if shard.snapshot is None:
                shard.snapshot = shard.state.recorder.snapshot()
                self._recorder.merge(shard.snapshot)

    def _fold_shard_hists(self, shards: Optional[list[Shard]] = None) -> None:
        """Fold retiring shards' span histograms into the server set.

        Same-layout histogram merges add bucket counts exactly, so no
        observation is lost at stop, abort, or reshard; each shard is
        folded at most once (``hists_folded``).
        """
        for shard in self._shards if shards is None else shards:
            if not shard.hists_folded:
                if shard.hists:
                    self._hists.merge(shard.hists.state())
                shard.hists_folded = True

    # ------------------------------------------------------------------
    # Live metrics endpoint
    # ------------------------------------------------------------------
    def enable_spans(self) -> None:
        """Turn request-path span timing on for the server and shards.

        Called automatically by :meth:`start_metrics` so a live scrape
        has latency histograms to serve even under a
        :class:`~repro.obs.NullRecorder`; harmless to call directly.
        """
        self._spans.active = True
        for shard in self._shards:
            shard.spans.active = True

    async def start_metrics(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "MetricsEndpoint":
        """Start the opt-in HTTP scrape endpoint (``/metrics``, ``/health``).

        Binding ``port=0`` picks a free ephemeral port (see
        :attr:`~repro.serve.metrics.MetricsEndpoint.port`).  Span timing
        is enabled as a side effect so the latency histograms fill.
        """
        if self._metrics is not None:
            raise RuntimeError("metrics endpoint already started")
        from .metrics import MetricsEndpoint

        self.enable_spans()
        endpoint = MetricsEndpoint(self, host=host, port=port)
        await endpoint.start()
        self._metrics = endpoint
        return endpoint

    async def stop_metrics(self) -> None:
        """Close the scrape endpoint if one is running (idempotent)."""
        if self._metrics is not None:
            endpoint, self._metrics = self._metrics, None
            await endpoint.stop()

    # ------------------------------------------------------------------
    # Resharding
    # ------------------------------------------------------------------
    async def reshard(self, new_n_shards: int) -> None:
        """Repartition the cached tuples onto ``new_n_shards`` shards.

        Requires quiescence: queues are drained first, then the old
        workers are retired and fresh shards take over.  The multiset of
        cached tuples is preserved exactly
        (:func:`~repro.serve.shard.reshard`); new uid strides start past
        every uid minted so far, so no collision is possible.  Policies
        are rebuilt per shard and re-admitted their shard's tuples in
        uid order (recency/frequency state is reconstructed from the
        admissions; model-aware history restarts from later arrivals).
        """
        if new_n_shards < 1:
            raise ValueError("new_n_shards must be >= 1")
        if self._stopping or self._stopped:
            raise ServerClosed("cannot reshard a stopping server")
        if self._started:
            await self.drain()
            # Retire the old workers (queues are empty, so the sentinel
            # is consumed immediately).
            for shard in self._shards:
                await self._await_or_worker_death(
                    shard, shard.queue.put(_STOP)
                )
            await asyncio.gather(
                *(s.worker for s in self._shards if s.worker is not None)
            )
        old_shards = self._shards
        self._merge_shard_snapshots()
        # Retiring shards' span histograms fold into the server-level
        # set (exact bucket addition), so latency observed before the
        # reshard keeps counting toward the merged percentiles.
        self._fold_shard_hists(old_shards)
        uid_base = max(s.state.factory.next_uid for s in old_shards)
        new_router = ShardRouter(new_n_shards)
        assignments = reshard_tuples(
            [s.state.cache.tuples() for s in old_shards], new_router
        )
        # Sketch-backed policies (count-min / TinyLFU frequency state,
        # admission doorkeepers + cutoff EMAs) cannot be reconstructed
        # from re-admissions alone, so carry the retiring shards' sketch
        # state over and fold it into every successor.  Each new shard
        # receives the union of all old shards; for its own keys the
        # counts are preserved, for foreign keys the only cost is
        # count-min's one-sided overestimate.
        donor_states = [
            state
            for state in (s.state.policy.sketch_state() for s in old_shards)
            if state
        ]
        self._router = new_router
        self._shards = []
        for index, tuples in enumerate(assignments):
            shard = self._make_shard(
                index, new_n_shards, uid_start=uid_base + index
            )
            for state in donor_states:
                shard.state.policy.merge_sketch_state(state)
            for tup in sorted(tuples, key=lambda x: x.uid):
                shard.state.cache.add(tup)
                shard.state.policy.on_admit(tup, tup.arrival)
            self._shards.append(shard)
        if self._started:
            for shard in self._shards:
                self._spawn_worker(shard)
        if self._recorder.enabled:
            self._recorder.count("serve.reshard")
