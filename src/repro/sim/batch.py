"""Vectorized batch Monte-Carlo engine: B independent trials at once.

The scalar simulators (:class:`~repro.sim.join_sim.JoinSimulator`,
:class:`~repro.sim.cache_sim.CacheSimulator`) drive one sample path at a
time through Python-object caches; the paper's experiments average 50
such runs per configuration, and sweeps repeat that per cache size and
per policy.  This module runs all trials of one policy simultaneously
over ``(B, slots)`` NumPy arrays, turning the per-step work into a
handful of array operations.

The batch engine is an *exact* reimplementation, not an approximation:
for the same input paths and the same per-trial policy seeds it makes
the same decisions as the scalar simulators, tuple for tuple.  The
scalar path therefore remains the reference oracle — the equivalence
suite (``tests/test_batch_equivalence.py``) pins every supported policy
to it — and the batch path is a drop-in accelerator selected with
``engine="batch"`` on the runner entry points.

Layout invariants the engine maintains:

* alive tuples occupy a prefix of each row, in *candidate order* — the
  scalar cache's dict insertion order followed by this step's new R then
  new S arrival — so per-slot positions line up with the scalar
  candidate lists;
* compaction (window expiry, eviction) is a stable partition, applied in
  lockstep to policy auxiliary arrays, so relative order is preserved
  exactly as dict deletion preserves it;
* ``None`` stream values ("−" in the paper) are encoded as
  :data:`~repro.policies.batch.NONE_VALUE` and masked out of every
  comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..obs.recorder import NULL_RECORDER, Recorder
from ..policies.batch import (
    BINARY_NAMES,
    BINARY_PARTNERS,
    NONE_VALUE,
    R_CODE,
    S_CODE,
    BatchPolicy,
)
from ..streams.base import StreamModel, Value
from .cache_sim import CacheRunResult
from .join_sim import JoinRunResult
from .step import multi_partner_names

__all__ = [
    "BatchState",
    "BatchJoinRunResult",
    "BatchCacheRunResult",
    "BatchMultiJoinRunResult",
    "BatchJoinSimulator",
    "BatchCacheSimulator",
    "BatchMultiJoinSimulator",
    "values_to_array",
    "paths_to_arrays",
    "streams_to_arrays",
    "generate_paths_arrays",
    "generate_reference_array",
]


@dataclass
class BatchState:
    """Slot arrays for ``B`` trials × ``slots`` cache positions.

    ``alive`` marks occupied slots; dead slots hold stale garbage and
    must be masked in every read.  ``last_r`` / ``last_s`` carry the most
    recent non-``None`` observation of each stream per trial (the
    ``x_{t0}`` anchors of Theorem 5), :data:`NONE_VALUE` before the
    first one.
    """

    val: np.ndarray
    side: np.ndarray
    arr: np.ndarray
    uid: np.ndarray
    alive: np.ndarray
    last_r: np.ndarray
    last_s: np.ndarray

    @classmethod
    def empty(cls, n_trials: int, n_slots: int) -> "BatchState":
        """All-empty state for ``n_trials`` caches of ``n_slots`` slots."""
        return cls(
            val=np.zeros((n_trials, n_slots), dtype=np.int64),
            side=np.full((n_trials, n_slots), -1, dtype=np.int8),
            arr=np.zeros((n_trials, n_slots), dtype=np.int64),
            uid=np.zeros((n_trials, n_slots), dtype=np.int64),
            alive=np.zeros((n_trials, n_slots), dtype=bool),
            last_r=np.full(n_trials, NONE_VALUE, dtype=np.int64),
            last_s=np.full(n_trials, NONE_VALUE, dtype=np.int64),
        )

    def compact(self, keep: np.ndarray, aux: tuple[np.ndarray, ...]) -> None:
        """Stable-partition kept slots to the row front, in place.

        ``keep`` must be a subset of ``alive``.  Policy auxiliary arrays
        are permuted identically so per-slot bookkeeping follows its
        tuple.
        """
        perm = np.argsort(~keep, axis=1, kind="stable")
        for a in (self.val, self.side, self.arr, self.uid, *aux):
            a[:] = np.take_along_axis(a, perm, axis=1)
        self.alive[:] = np.take_along_axis(keep, perm, axis=1)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class BatchJoinRunResult:
    """Per-trial outcomes of one batched joining run (arrays over B)."""

    total_results: np.ndarray
    results_after_warmup: np.ndarray
    steps: int
    warmup: int
    cache_size: int
    #: ``(B, steps)`` cached-R counts after each step's evictions.
    r_occupancy: np.ndarray
    #: ``(B, steps)`` total occupancy after each step's evictions.
    occupancy: np.ndarray

    def unbatch(self) -> list[JoinRunResult]:
        """Split into scalar-compatible per-trial results."""
        return [
            JoinRunResult(
                total_results=int(self.total_results[b]),
                results_after_warmup=int(self.results_after_warmup[b]),
                steps=self.steps,
                warmup=self.warmup,
                cache_size=self.cache_size,
                r_occupancy=self.r_occupancy[b].copy(),
                occupancy=self.occupancy[b].copy(),
            )
            for b in range(self.total_results.size)
        ]


@dataclass
class BatchCacheRunResult:
    """Per-trial outcomes of one batched caching run (arrays over B).

    ``steps`` holds per-trial *observed* reference counts (missing
    ``None`` entries excluded), matching the scalar simulator's
    ``steps == hits + misses`` invariant; ``skipped`` holds the per-trial
    missing-entry counts.
    """

    hits: np.ndarray
    misses: np.ndarray
    hits_after_warmup: np.ndarray
    misses_after_warmup: np.ndarray
    steps: np.ndarray
    warmup: int
    cache_size: int
    skipped: np.ndarray

    def unbatch(self) -> list[CacheRunResult]:
        """Split into scalar-compatible per-trial results."""
        return [
            CacheRunResult(
                hits=int(self.hits[b]),
                misses=int(self.misses[b]),
                hits_after_warmup=int(self.hits_after_warmup[b]),
                misses_after_warmup=int(self.misses_after_warmup[b]),
                steps=int(self.steps[b]),
                warmup=self.warmup,
                cache_size=self.cache_size,
                skipped=int(self.skipped[b]),
            )
            for b in range(self.hits.size)
        ]


@dataclass
class BatchMultiJoinRunResult:
    """Per-trial outcomes of one batched multi-join run (arrays over B)."""

    total_results: np.ndarray
    results_after_warmup: np.ndarray
    steps: int
    warmup: int
    cache_size: int
    #: The query pairs, in spec order (columns of :attr:`per_query`).
    queries: list[tuple[str, str]]
    #: ``(B, n_queries)`` results attributed to each query.
    per_query: np.ndarray
    #: stream name -> ``(B, steps)`` cached-tuple counts after each step.
    occupancy_by_stream: dict[str, np.ndarray]
    #: Slot arrays after the last step (final-cache parity checks).
    final_state: BatchState

    def unbatch(self) -> list:
        """Split into scalar-compatible per-trial results."""
        from .multi_join import MultiJoinRunResult

        return [
            MultiJoinRunResult(
                total_results=int(self.total_results[b]),
                results_after_warmup=int(self.results_after_warmup[b]),
                steps=self.steps,
                warmup=self.warmup,
                cache_size=self.cache_size,
                per_query={
                    frozenset(q): int(self.per_query[b, i])
                    for i, q in enumerate(self.queries)
                },
                occupancy_by_stream={
                    name: occ[b].copy()
                    for name, occ in self.occupancy_by_stream.items()
                },
            )
            for b in range(self.total_results.size)
        ]


# ----------------------------------------------------------------------
# Input conversion
# ----------------------------------------------------------------------
def values_to_array(paths: Sequence[Sequence[Value]]) -> np.ndarray:
    """Stack value sequences into a ``(B, n)`` int64 array.

    ``None`` ("−") becomes :data:`NONE_VALUE`; rows are truncated to the
    shortest sequence, matching the scalar simulator's
    ``min(len(r), len(s))`` convention.
    """
    if not paths:
        return np.zeros((0, 0), dtype=np.int64)
    n = min(len(p) for p in paths)
    out = np.empty((len(paths), n), dtype=np.int64)
    for b, path in enumerate(paths):
        out[b] = [NONE_VALUE if v is None else int(v) for v in path[:n]]
    return out


def paths_to_arrays(
    paths: Sequence[tuple[Sequence[Value], Sequence[Value]]],
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``(r, s)`` path pairs into two ``(B, n)`` arrays."""
    r = values_to_array([p[0] for p in paths])
    s = values_to_array([p[1] for p in paths])
    n = min(r.shape[1], s.shape[1]) if paths else 0
    return r[:, :n], s[:, :n]


def streams_to_arrays(
    data: Sequence[Mapping[str, Sequence[Value]]],
) -> dict[str, np.ndarray]:
    """Stack per-trial stream mappings into ``{name: (B, n)}`` arrays.

    Every trial must list the same streams in the same order — the
    arrival (and hence uid-minting) order the scalar simulator derives
    from each mapping, which lock-step execution needs to be shared.
    Sequences are truncated to the shortest one across all trials and
    streams, matching :func:`values_to_array`'s convention.
    """
    if not data:
        return {}
    names = list(data[0])
    for item in data[1:]:
        if list(item) != names:
            raise ValueError(
                "all multi-join trials must list the same streams "
                "in the same order"
            )
    n = min(len(seq) for item in data for seq in item.values())
    out = {}
    for name in names:
        arr = np.empty((len(data), n), dtype=np.int64)
        for b, item in enumerate(data):
            arr[b] = [
                NONE_VALUE if v is None else int(v)
                for v in item[name][:n]
            ]
        out[name] = arr
    return out


def generate_paths_arrays(
    r_model: StreamModel,
    s_model: StreamModel,
    length: int,
    n_runs: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`repro.sim.runner.generate_paths`.

    Consumes the per-run generators identically (same ``seed + run``
    seeding, R drawn before S from the same generator), so trial ``b``
    sees exactly the path scalar run ``b`` sees.
    """
    from .runner import generate_paths

    return paths_to_arrays(generate_paths(r_model, s_model, length, n_runs, seed))


def generate_reference_array(
    model: StreamModel,
    length: int,
    n_runs: int,
    seed: int,
) -> np.ndarray:
    """Array form of :func:`repro.sim.runner.generate_reference_paths`."""
    from .runner import generate_reference_paths

    return values_to_array(generate_reference_paths(model, length, n_runs, seed))


# ----------------------------------------------------------------------
# Victim selection shared by both engines
# ----------------------------------------------------------------------
def _select_victims(
    policy: BatchPolicy,
    state: BatchState,
    n_evict: np.ndarray,
    t: int,
    cutoff_log: list[list[tuple[int, float]]] | None = None,
) -> np.ndarray:
    if not policy.scored:
        victims = policy.select(state, n_evict, t)
        return victims & state.alive
    scores = policy.scores(state, t)
    # Dead slots sort last (+inf beats every finite score); ties among
    # candidates break by uid ascending, exactly like ScoredPolicy's
    # sorted(key=(score, uid)).
    masked = np.where(state.alive, scores, np.inf)
    order = np.lexsort((state.uid, masked), axis=1)
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.arange(order.shape[1], dtype=order.dtype)[None, :], axis=1
    )
    if cutoff_log is not None:
        # ScoredPolicy's "scores.cutoff": the best score still evicted —
        # the slot at rank n_evict-1 (alive whenever n_evict <= count).
        for b in np.flatnonzero(n_evict > 0).tolist():
            col = order[b, n_evict[b] - 1]
            cutoff_log[b].append((t, float(scores[b, col])))
    return (ranks < n_evict[:, None]) & state.alive


def _cutoff_log_for(
    policy: BatchPolicy, rec_on: bool, n_trials: int
) -> list[list[tuple[int, float]]] | None:
    """Per-trial ``scores.cutoff`` sinks, only where the scalar tier emits.

    Scalar ``scores.cutoff`` comes from
    :class:`~repro.policies.base.ScoredPolicy`; every scored adapter
    returns the scalar policy's score floats bit for bit, so each one
    mirrors it.  Non-scored adapters that emit their own series (Trie)
    route them through
    :meth:`~repro.policies.batch.BatchPolicy.series_logs` instead.
    """
    if rec_on and policy.scored:
        return [[] for _ in range(n_trials)]
    return None


def _emit_policy_series(
    rec: Recorder,
    policy: BatchPolicy,
    cutoff_log: list[list[tuple[int, float]]] | None,
) -> None:
    """Drain policy-side series and counters after a recorded run.

    Series points are replayed trial-major with per-trial times
    ascending — the order a scalar recorder sees over the same trials —
    so order-dependent series aggregates match bit for bit.  Counters
    with zero totals are skipped, mirroring the scalar key sets.
    """
    series: dict[str, list[list[tuple[int, float]]]] = {}
    if cutoff_log is not None:
        series["scores.cutoff"] = cutoff_log
    series.update(policy.series_logs())
    for name, logs in series.items():
        for trial_points in logs:
            for t, value in trial_points:
                rec.series(name, t, value)
    for name, count in policy.counter_totals().items():
        if count:
            rec.count(name, count)


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
class BatchJoinSimulator:
    """Vectorized counterpart of :class:`~repro.sim.join_sim.JoinSimulator`.

    Takes a :class:`~repro.policies.batch.BatchPolicy` (built by
    :func:`~repro.policies.batch.make_batch_policy`) and ``(B, n)`` value
    arrays; every step performs the scalar simulator's phases — window
    expiry, probing, arrival, eviction — as whole-array operations.

    An enabled ``recorder`` receives counters aggregated over the whole
    batch (``sim.steps``, ``arrivals.*``, ``join.results``,
    ``evict.<policy_name>``, ``evict.window_expired``) that equal the
    sum a scalar recorder would collect over the same trials.  Per-step
    trace events are not emitted — trace with the scalar engine for
    per-tuple visibility.
    """

    def __init__(
        self,
        cache_size: int,
        policy: BatchPolicy,
        warmup: int = 0,
        window: int | None = None,
        band: int = 0,
        recorder: Recorder = NULL_RECORDER,
        policy_name: str = "policy",
    ):
        """Validate and bind the join parameters shared by every trial."""
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be nonnegative")
        if window is not None and window < 0:
            raise ValueError("window must be nonnegative")
        if band < 0:
            raise ValueError("band must be nonnegative")
        self._cache_size = cache_size
        self._policy = policy
        self._warmup = warmup
        self._window = window
        self._band = band
        self._recorder = recorder
        self._policy_name = policy_name

    def run(self, r_paths: np.ndarray, s_paths: np.ndarray) -> BatchJoinRunResult:
        """Simulate every trial in lock-step over ``(B, n)`` value paths."""
        r_paths = np.asarray(r_paths, dtype=np.int64)
        s_paths = np.asarray(s_paths, dtype=np.int64)
        if r_paths.shape != s_paths.shape or r_paths.ndim != 2:
            raise ValueError("r_paths and s_paths must be matching (B, n) arrays")
        n_trials, n = r_paths.shape
        k = self._cache_size
        # ≤ k survivors from the previous step plus one arrival per side.
        state = BatchState.empty(n_trials, k + 2)
        self._policy.bind(BINARY_NAMES, BINARY_PARTNERS)
        self._policy.reset(n_trials, k + 2)
        aux = self._policy.aux_arrays()

        counts = np.zeros(n_trials, dtype=np.int64)
        uid_next = np.zeros(n_trials, dtype=np.int64)
        total = np.zeros(n_trials, dtype=np.int64)
        after_warmup = np.zeros(n_trials, dtype=np.int64)
        r_occupancy = np.zeros((n_trials, n), dtype=np.int64)
        occupancy = np.zeros((n_trials, n), dtype=np.int64)

        rec = self._recorder
        rec_on = rec.enabled
        expired_total = 0
        evicted_total = 0
        # Per-step results, kept only to replay the scalar series exactly.
        results_log = np.zeros((n_trials, n), dtype=np.int64) if rec_on else None
        cutoff_log = _cutoff_log_for(self._policy, rec_on, n_trials)

        for t in range(n):
            r_vals = r_paths[:, t]
            s_vals = s_paths[:, t]
            has_r = r_vals != NONE_VALUE
            has_s = s_vals != NONE_VALUE
            state.last_r[has_r] = r_vals[has_r]
            state.last_s[has_s] = s_vals[has_s]
            self._policy.begin_step(state, t, (r_vals, s_vals))

            # Sliding-window expiry: free removal of dead tuples.
            if self._window is not None:
                expired = state.alive & (state.arr < t - self._window)
                if expired.any():
                    if rec_on:
                        expired_total += int(expired.sum())
                    state.compact(state.alive & ~expired, aux)
                    counts = state.alive.sum(axis=1)

            # New arrivals join cached partner tuples (same-step arrivals
            # never join each other — they are appended only afterwards).
            r_safe = np.where(has_r, r_vals, 0)
            s_safe = np.where(has_s, s_vals, 0)
            if self._band == 0:
                near_r = state.val == r_safe[:, None]
                near_s = state.val == s_safe[:, None]
            else:
                near_r = np.abs(state.val - r_safe[:, None]) <= self._band
                near_s = np.abs(state.val - s_safe[:, None]) <= self._band
            m_r = state.alive & (state.side == S_CODE) & has_r[:, None] & near_r
            m_s = state.alive & (state.side == R_CODE) & has_s[:, None] & near_s
            step_results = m_r.sum(axis=1) + m_s.sum(axis=1)
            total += step_results
            if results_log is not None:
                results_log[:, t] = step_results
            if t >= self._warmup:
                after_warmup += step_results
            referenced = m_r | m_s
            if referenced.any():
                self._policy.on_reference(state, referenced, t)

            # Append arrivals in candidate order: new R, then new S.
            for side_code, has, vals in (
                (R_CODE, has_r, r_vals),
                (S_CODE, has_s, s_vals),
            ):
                rows = np.flatnonzero(has)
                if rows.size == 0:
                    continue
                cols = counts[rows]
                state.val[rows, cols] = vals[rows]
                state.side[rows, cols] = side_code
                state.arr[rows, cols] = t
                state.uid[rows, cols] = uid_next[rows]
                state.alive[rows, cols] = True
                uid_next[rows] += 1
                counts[rows] += 1
                self._policy.on_admit(state, rows, cols, side_code, vals[rows], t)

            n_evict = np.maximum(counts - k, 0)
            if n_evict.any():
                victims = _select_victims(
                    self._policy, state, n_evict, t, cutoff_log
                )
                if victims.any():
                    if rec_on:
                        evicted_total += int(victims.sum())
                    state.compact(state.alive & ~victims, aux)
                    counts = state.alive.sum(axis=1)

            r_occupancy[:, t] = (state.alive & (state.side == R_CODE)).sum(axis=1)
            occupancy[:, t] = counts

        if rec_on:
            self._record_counters(
                r_paths, s_paths, total, expired_total, evicted_total
            )
            self._emit_series(occupancy, results_log)
            _emit_policy_series(rec, self._policy, cutoff_log)
        return BatchJoinRunResult(
            total_results=total,
            results_after_warmup=after_warmup,
            steps=n,
            warmup=self._warmup,
            cache_size=k,
            r_occupancy=r_occupancy,
            occupancy=occupancy,
        )

    def _record_counters(
        self,
        r_paths: np.ndarray,
        s_paths: np.ndarray,
        total: np.ndarray,
        expired_total: int,
        evicted_total: int,
    ) -> None:
        """Flush batch-aggregated counters, mirroring the scalar keys.

        Counters with a zero total are skipped so the resulting
        dictionary has exactly the keys a scalar recorder would have
        created over the same trials.
        """
        rec = self._recorder
        n_steps = int(r_paths.size)
        arrivals_r = int((r_paths != NONE_VALUE).sum())
        arrivals_s = int((s_paths != NONE_VALUE).sum())
        arrivals_null = 2 * n_steps - arrivals_r - arrivals_s
        results = int(total.sum())
        for name, count in (
            ("sim.steps", n_steps),
            ("arrivals.R", arrivals_r),
            ("arrivals.S", arrivals_s),
            ("arrivals.null", arrivals_null),
            ("evict.window_expired", expired_total),
            (f"evict.{self._policy_name}", evicted_total),
            ("join.results", results),
        ):
            if count:
                rec.count(name, count)

    def _emit_series(
        self, occupancy: np.ndarray, results_log: np.ndarray | None
    ) -> None:
        """Replay the scalar per-step series from the batch arrays.

        Points are fed trial-major (all of trial 0's steps, then trial
        1's, …) — the exact order the scalar engine produces over the
        same trials — so the recorder's series aggregates, including the
        order-dependent downsampling buffers, come out bit-identical to
        a scalar run (the quantile histograms would match in any order).
        """
        assert results_log is not None
        rec = self._recorder
        occ_rows = occupancy.tolist()
        cum_rows = np.cumsum(results_log, axis=1).tolist()
        for occ_row, cum_row in zip(occ_rows, cum_rows):
            for t, (occ, cum) in enumerate(zip(occ_row, cum_row)):
                rec.series("cache.occupancy", t, occ)
                rec.series("join.results.cum", t, cum)


class BatchCacheSimulator:
    """Vectorized counterpart of :class:`~repro.sim.cache_sim.CacheSimulator`.

    All slots hold side-"S" database tuples; a reference is a hit when a
    slot carries its value (referential integrity guarantees at most one
    does), otherwise the tuple is fetched, given the next per-trial uid,
    and offered as an eviction candidate — exactly the scalar flow.

    An enabled ``recorder`` receives counters aggregated over the whole
    batch (``sim.steps``, ``arrivals.*``, ``cache.hits``,
    ``cache.misses``, ``evict.<policy_name>``) that equal the sum a
    scalar recorder would collect over the same trials.
    """

    def __init__(
        self,
        cache_size: int,
        policy: BatchPolicy,
        warmup: int = 0,
        recorder: Recorder = NULL_RECORDER,
        policy_name: str = "policy",
    ):
        """Validate and bind the caching parameters shared by every trial."""
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be nonnegative")
        self._cache_size = cache_size
        self._policy = policy
        self._warmup = warmup
        self._recorder = recorder
        self._policy_name = policy_name

    def run(self, references: np.ndarray) -> BatchCacheRunResult:
        """Simulate every trial in lock-step over ``(B, n)`` references."""
        references = np.asarray(references, dtype=np.int64)
        if references.ndim != 2:
            raise ValueError("references must be a (B, n) array")
        n_trials, n = references.shape
        k = self._cache_size
        state = BatchState.empty(n_trials, k + 1)
        self._policy.bind(BINARY_NAMES, BINARY_PARTNERS)
        self._policy.reset(n_trials, k + 1)
        aux = self._policy.aux_arrays()

        counts = np.zeros(n_trials, dtype=np.int64)
        uid_next = np.zeros(n_trials, dtype=np.int64)
        hits = np.zeros(n_trials, dtype=np.int64)
        misses = np.zeros(n_trials, dtype=np.int64)
        hits_w = np.zeros(n_trials, dtype=np.int64)
        misses_w = np.zeros(n_trials, dtype=np.int64)

        rec = self._recorder
        rec_on = rec.enabled
        evicted_total = 0
        # Per-step hit/occupancy logs, kept only to replay scalar series.
        if rec_on:
            hit_log = np.zeros((n_trials, n), dtype=np.int64)
            occ_log = np.zeros((n_trials, n), dtype=np.int64)
        else:
            hit_log = occ_log = None
        cutoff_log = _cutoff_log_for(self._policy, rec_on, n_trials)
        # The two-stream topology with no S arrivals.
        no_s = np.full(n_trials, NONE_VALUE, dtype=np.int64)

        for t in range(n):
            vals = references[:, t]
            has = vals != NONE_VALUE
            state.last_r[has] = vals[has]
            self._policy.begin_step(state, t, (vals, no_s))
            if not has.any():
                if occ_log is not None:
                    occ_log[:, t] = counts
                continue

            safe = np.where(has, vals, 0)
            hit_mask = state.alive & has[:, None] & (state.val == safe[:, None])
            hit_rows = hit_mask.any(axis=1)
            hits += hit_rows
            miss_rows = has & ~hit_rows
            misses += miss_rows
            if hit_log is not None:
                hit_log[:, t] = hit_rows
            if t >= self._warmup:
                hits_w += hit_rows
                misses_w += miss_rows
            if hit_rows.any():
                self._policy.on_reference(state, hit_mask, t)

            rows = np.flatnonzero(miss_rows)
            if rows.size == 0:
                if occ_log is not None:
                    occ_log[:, t] = counts
                continue
            cols = counts[rows]
            state.val[rows, cols] = vals[rows]
            state.side[rows, cols] = S_CODE
            state.arr[rows, cols] = t
            state.uid[rows, cols] = uid_next[rows]
            state.alive[rows, cols] = True
            uid_next[rows] += 1
            counts[rows] += 1
            self._policy.on_admit(state, rows, cols, S_CODE, vals[rows], t)

            n_evict = np.maximum(counts - k, 0)
            if n_evict.any():
                victims = _select_victims(
                    self._policy, state, n_evict, t, cutoff_log
                )
                if victims.any():
                    if rec_on:
                        evicted_total += int(victims.sum())
                    state.compact(state.alive & ~victims, aux)
                    counts = state.alive.sum(axis=1)
            if occ_log is not None:
                occ_log[:, t] = counts

        observed = (references != NONE_VALUE).sum(axis=1)
        if rec_on:
            n_steps = int(references.size)
            n_observed = int(observed.sum())
            for name, count in (
                ("sim.steps", n_steps),
                ("arrivals.R", n_observed),
                ("arrivals.null", n_steps - n_observed),
                ("cache.hits", int(hits.sum())),
                ("cache.misses", int(misses.sum())),
                (f"evict.{self._policy_name}", evicted_total),
            ):
                if count:
                    rec.count(name, count)
            self._emit_series(references, occ_log, hit_log)
            _emit_policy_series(rec, self._policy, cutoff_log)
        return BatchCacheRunResult(
            hits=hits,
            misses=misses,
            hits_after_warmup=hits_w,
            misses_after_warmup=misses_w,
            steps=observed,
            warmup=self._warmup,
            cache_size=k,
            skipped=n - observed,
        )

    def _emit_series(
        self,
        references: np.ndarray,
        occ_log: np.ndarray | None,
        hit_log: np.ndarray | None,
    ) -> None:
        """Replay the scalar per-step series from the batch arrays.

        Trial-major like :meth:`BatchJoinSimulator._emit_series`; points
        exist only at observed (non-``None``) reference steps, matching
        the scalar simulator, and the cumulative hit rate is computed
        with the same integer division operands.
        """
        assert occ_log is not None and hit_log is not None
        rec = self._recorder
        observed_rows = (references != NONE_VALUE).tolist()
        occ_rows = occ_log.tolist()
        hit_cum = np.cumsum(hit_log, axis=1)
        miss_cum = np.cumsum(
            (references != NONE_VALUE) & (hit_log == 0), axis=1
        )
        hit_rows_cum = hit_cum.tolist()
        miss_rows_cum = miss_cum.tolist()
        for obs_row, occ_row, h_row, m_row in zip(
            observed_rows, occ_rows, hit_rows_cum, miss_rows_cum
        ):
            for t, seen in enumerate(obs_row):
                if not seen:
                    continue
                h = h_row[t]
                rec.series("cache.occupancy", t, occ_row[t])
                rec.series("cache.hits.cum", t, h)
                rec.series("cache.hit_rate", t, h / (h + m_row[t]))


class BatchMultiJoinSimulator:
    """Vectorized counterpart of :class:`~repro.sim.multi_join.MultiJoinSimulator`.

    Takes a :class:`~repro.policies.batch.BatchPolicy` (built by
    :func:`~repro.policies.batch.make_batch_policy` with
    ``kind="multi_join"``) and per-stream ``(B, n)`` value arrays; every
    step performs the scalar step function's phases — per-partner
    probing, arrival minting in stream order, eviction — as whole-array
    operations, with ``side`` carrying the stream's index in arrival
    order instead of the binary R/S codes.

    An enabled ``recorder`` receives counters aggregated over the whole
    batch (``sim.steps``, ``arrivals.<stream>``, ``arrivals.null``,
    ``join.results``, ``evict.<policy_name>``) and the scalar per-step
    series (``cache.occupancy``, ``join.results.cum``,
    ``cache.hit_rate``) replayed trial-major, matching what a scalar
    recorder collects over the same trials.  Per-step trace events are
    not emitted — trace with the scalar engine for per-tuple visibility.
    """

    def __init__(
        self,
        cache_size: int,
        policy: BatchPolicy,
        queries: Sequence[tuple[str, str]],
        warmup: int = 0,
        recorder: Recorder = NULL_RECORDER,
        policy_name: str = "policy",
    ):
        """Validate the query set and bind the shared-cache parameters."""
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if warmup < 0:
            raise ValueError("warmup must be nonnegative")
        self._partner_names = multi_partner_names(queries)
        self._queries = [tuple(q) for q in queries]
        self._cache_size = cache_size
        self._policy = policy
        self._warmup = warmup
        self._recorder = recorder
        self._policy_name = policy_name

    def run(self, streams: Mapping[str, np.ndarray]) -> BatchMultiJoinRunResult:
        """Simulate every trial in lock-step over per-stream value arrays."""
        names = list(streams)
        missing = set(self._partner_names) - set(names)
        if missing:
            raise ValueError(f"queries reference unknown streams {missing}")
        arrs = [np.asarray(streams[name], dtype=np.int64) for name in names]
        if any(a.ndim != 2 or a.shape != arrs[0].shape for a in arrs):
            raise ValueError("all streams must be matching (B, n) arrays")
        n_trials, n = arrs[0].shape
        k = self._cache_size
        code_of = {name: i for i, name in enumerate(names)}
        # Streams outside every query are observed but never cached.
        query_codes = [
            code_of[name] for name in names if name in self._partner_names
        ]
        # Probe edges in scalar order: arrival stream in names order, its
        # partners in query order; each edge knows its query column.
        query_col = {frozenset(q): i for i, q in enumerate(self._queries)}
        edges = [
            (code_of[name], code_of[p], query_col[frozenset((name, p))])
            for name in names
            if name in self._partner_names
            for p in self._partner_names[name]
        ]

        # ≤ k survivors plus one arrival per cacheable stream.
        state = BatchState.empty(n_trials, k + len(query_codes))
        self._policy.bind(names, self._partner_names)
        self._policy.reset(n_trials, k + len(query_codes))
        aux = self._policy.aux_arrays()

        counts = np.zeros(n_trials, dtype=np.int64)
        uid_next = np.zeros(n_trials, dtype=np.int64)
        total = np.zeros(n_trials, dtype=np.int64)
        after_warmup = np.zeros(n_trials, dtype=np.int64)
        per_query = np.zeros((n_trials, len(self._queries)), dtype=np.int64)
        probe_hits = np.zeros(n_trials, dtype=np.int64)
        probe_misses = np.zeros(n_trials, dtype=np.int64)
        occupancy_by_stream = {
            name: np.zeros((n_trials, n), dtype=np.int64) for name in names
        }

        rec = self._recorder
        rec_on = rec.enabled
        evicted_total = 0
        # Per-step logs, kept only to replay the scalar series exactly.
        if rec_on:
            occ_log = np.zeros((n_trials, n), dtype=np.int64)
            results_log = np.zeros((n_trials, n), dtype=np.int64)
            hits_log = np.zeros((n_trials, n), dtype=np.int64)
            probes_log = np.zeros((n_trials, n), dtype=np.int64)
        else:
            occ_log = results_log = hits_log = probes_log = None
        cutoff_log = _cutoff_log_for(self._policy, rec_on, n_trials)

        for t in range(n):
            vals = [a[:, t] for a in arrs]
            self._policy.begin_step(state, t, vals)

            # New arrivals join cached partner tuples (same-step arrivals
            # never join each other — they are appended only afterwards).
            step_results = np.zeros(n_trials, dtype=np.int64)
            referenced = np.zeros(state.alive.shape, dtype=bool)
            matched = {code: np.zeros(n_trials, dtype=bool) for code in query_codes}
            for a_code, p_code, q_col in edges:
                v = vals[a_code]
                has = v != NONE_VALUE
                if not has.any():
                    continue
                safe = np.where(has, v, 0)
                m = (
                    state.alive
                    & (state.side == p_code)
                    & has[:, None]
                    & (state.val == safe[:, None])
                )
                cnt = m.sum(axis=1)
                per_query[:, q_col] += cnt
                step_results += cnt
                referenced |= m
                matched[a_code] |= cnt > 0
            for code in query_codes:
                has = vals[code] != NONE_VALUE
                probe_hits += has & matched[code]
                probe_misses += has & ~matched[code]
            total += step_results
            if t >= self._warmup:
                after_warmup += step_results
            if results_log is not None:
                results_log[:, t] = step_results
                hits_log[:, t] = probe_hits
                probes_log[:, t] = probe_hits + probe_misses
            if referenced.any():
                self._policy.on_reference(state, referenced, t)

            # Append arrivals in candidate order: stream arrival order.
            for code in query_codes:
                v = vals[code]
                rows = np.flatnonzero(v != NONE_VALUE)
                if rows.size == 0:
                    continue
                cols = counts[rows]
                state.val[rows, cols] = v[rows]
                state.side[rows, cols] = code
                state.arr[rows, cols] = t
                state.uid[rows, cols] = uid_next[rows]
                state.alive[rows, cols] = True
                uid_next[rows] += 1
                counts[rows] += 1
                self._policy.on_admit(state, rows, cols, code, v[rows], t)

            n_evict = np.maximum(counts - k, 0)
            if n_evict.any():
                victims = _select_victims(
                    self._policy, state, n_evict, t, cutoff_log
                )
                if victims.any():
                    if rec_on:
                        evicted_total += int(victims.sum())
                    state.compact(state.alive & ~victims, aux)
                    counts = state.alive.sum(axis=1)

            for name in names:
                occupancy_by_stream[name][:, t] = (
                    state.alive & (state.side == code_of[name])
                ).sum(axis=1)
            if occ_log is not None:
                occ_log[:, t] = counts

        if rec_on:
            self._record_counters(names, arrs, total, evicted_total)
            self._emit_series(occ_log, results_log, hits_log, probes_log)
            _emit_policy_series(rec, self._policy, cutoff_log)
        return BatchMultiJoinRunResult(
            total_results=total,
            results_after_warmup=after_warmup,
            steps=n,
            warmup=self._warmup,
            cache_size=k,
            queries=self._queries,
            per_query=per_query,
            occupancy_by_stream=occupancy_by_stream,
            final_state=state,
        )

    def _record_counters(
        self,
        names: Sequence[str],
        arrs: Sequence[np.ndarray],
        total: np.ndarray,
        evicted_total: int,
    ) -> None:
        """Flush batch-aggregated counters, mirroring the scalar keys.

        Counters with a zero total are skipped so the resulting
        dictionary has exactly the keys a scalar recorder would have
        created over the same trials.
        """
        rec = self._recorder
        n_steps = int(arrs[0].size)
        pairs: list[tuple[str, int]] = [("sim.steps", n_steps)]
        observed = 0
        for name, arr in zip(names, arrs):
            seen = int((arr != NONE_VALUE).sum())
            observed += seen
            pairs.append((f"arrivals.{name}", seen))
        pairs.append(("arrivals.null", n_steps * len(names) - observed))
        pairs.append((f"evict.{self._policy_name}", evicted_total))
        pairs.append(("join.results", int(total.sum())))
        for name, count in pairs:
            if count:
                rec.count(name, count)

    def _emit_series(
        self,
        occ_log: np.ndarray | None,
        results_log: np.ndarray | None,
        hits_log: np.ndarray | None,
        probes_log: np.ndarray | None,
    ) -> None:
        """Replay the scalar per-step series from the batch arrays.

        Trial-major like :meth:`BatchJoinSimulator._emit_series`, so the
        recorder's order-dependent aggregates come out bit-identical to
        a scalar run; ``cache.hit_rate`` points exist only once a trial
        has probed at least once, with the same integer operands.
        """
        assert occ_log is not None
        rec = self._recorder
        occ_rows = occ_log.tolist()
        cum_rows = np.cumsum(results_log, axis=1).tolist()
        hit_rows = hits_log.tolist()
        probe_rows = probes_log.tolist()
        for occ_row, cum_row, hit_row, probe_row in zip(
            occ_rows, cum_rows, hit_rows, probe_rows
        ):
            for t, (occ, cum) in enumerate(zip(occ_row, cum_row)):
                rec.series("cache.occupancy", t, occ)
                rec.series("join.results.cum", t, cum)
                probes = probe_row[t]
                if probes:
                    rec.series("cache.hit_rate", t, hit_row[t] / probes)
