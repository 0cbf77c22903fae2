"""Replacement-policy interface shared by the join and cache simulators.

A policy is asked, at each time step, to pick victims among the candidate
tuples (cached tuples plus new arrivals), exactly as in the paper's
Section 3.3 formalization: the algorithm sees the cache ``K``, the new
arrivals ``N``, the observed history ``H``, and (optionally) the stream
models ``p``, and outputs the tuples *not* kept.

Policies may also receive notification hooks (admissions, evictions, and
references, i.e. join matches or cache hits) so that recency/frequency
bookkeeping such as LRU's does not require scanning histories.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Protocol, Sequence

from ..core.tuples import StreamTuple
from ..obs.recorder import NULL_RECORDER, Recorder
from ..streams.base import History, StreamModel, Value

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..sketch import AdmissionFilter

__all__ = [
    "PolicyContext",
    "WindowOracle",
    "ReplacementPolicy",
    "ScoredPolicy",
    "validate_victims",
]


def validate_victims(
    policy_name: str,
    candidates: Sequence[StreamTuple],
    victims: Sequence[StreamTuple],
    n_evict: int,
) -> list[StreamTuple]:
    """Check a policy's victim selection against the eviction contract.

    Victims must be distinct, drawn from the candidate set, and number at
    least ``n_evict`` (returning more is allowed — evicting worthless
    tuples is never harmful).  Returns the victims as a list; raises
    :class:`ValueError` naming the offending policy otherwise.  Shared by
    every engine so all simulators reject malformed selections with the
    same diagnostics.
    """
    victims = list(victims)
    uids = {v.uid for v in victims}
    if len(uids) != len(victims):
        raise ValueError(f"{policy_name}: duplicate victims")
    if not uids <= {c.uid for c in candidates}:
        raise ValueError(f"{policy_name}: victim not a candidate")
    if len(victims) < n_evict:
        raise ValueError(
            f"{policy_name}: returned {len(victims)} victims, "
            f"needed {n_evict}"
        )
    return victims


class WindowOracle(Protocol):
    """Joinability window knowledge handed to window-aware heuristics.

    Section 6.2: "LIFE requires a sliding window to determine tuples'
    lifetimes ... we use the bound on the noise distribution as the
    sliding window.  We make RAND and PROB aware of this sliding window,
    too, so they always discard tuples outside the window first."
    """

    def is_dead(self, tup: StreamTuple, t: int) -> bool:
        """True when the tuple can no longer join any future arrival."""
        ...

    def remaining_life(self, tup: StreamTuple, t: int) -> int:
        """Number of future steps during which the tuple can still join."""
        ...


@dataclass
class PolicyContext:
    """Everything a policy may consult when choosing victims.

    The context is *partner-aware*: a binary R/S join is the 1-partner
    degenerate case of the general n-way topology.  When
    :attr:`partner_names` is ``None`` the context is binary and the
    classic ``r_*``/``s_*`` fields apply; when it is set (kind
    ``"multi_join"``), streams are addressed by name through
    :attr:`histories`/:attr:`models` and :meth:`partners_of` returns the
    partners each stream joins against.  Policies written against
    :meth:`partners_of`/:meth:`model_for`/:meth:`latest_history` work
    unchanged on both shapes.

    Attributes
    ----------
    kind:
        ``"join"`` (two-stream equijoin), ``"cache"`` (reference stream
        against a database relation), or ``"multi_join"`` (n-way).
    time:
        The current step ``t0``; the new arrivals of this step are already
        appended to the histories.
    cache_size:
        Capacity ``k`` in tuples.
    r_history / s_history:
        Observed values so far (indices are time steps).  For the caching
        problem, ``r_history`` is the reference stream and ``s_history``
        is empty.  Unused when :attr:`partner_names` is set.
    r_model / s_model:
        The stochastic models, when the policy is model-aware (HEEB,
        FlowExpect).  For caching, ``r_model`` is the reference model.
    window:
        Sliding-window length under Section-7 semantics, else ``None``.
    window_oracle:
        Value-window knowledge for the window-aware baselines.
    partner_names:
        For n-way topologies: stream name → names of the streams it
        joins against (one entry per query edge).  ``None`` marks a
        binary context.
    histories:
        For n-way topologies: stream name → observed values so far.
    models:
        For n-way topologies: stream name → stochastic model, when the
        policy is model-aware.
    recorder:
        Observability sink (:mod:`repro.obs`).  Defaults to the shared
        no-op recorder; policies emitting counters or trace events must
        guard on ``recorder.enabled`` / ``recorder.trace`` so disabled
        runs stay free.
    """

    kind: str
    time: int
    cache_size: int
    r_history: list[Value] = field(default_factory=list)
    s_history: list[Value] = field(default_factory=list)
    r_model: Optional[StreamModel] = None
    s_model: Optional[StreamModel] = None
    window: Optional[int] = None
    window_oracle: Optional[WindowOracle] = None
    #: ``(t, value)`` of each side's most recent non-"−" observation,
    #: maintained by :meth:`record_arrival`.  Markov-model anchoring
    #: (FlowExpect) reads these in O(1) instead of rescanning the
    #: history on every eviction.
    r_last_obs: Optional[tuple[int, int]] = None
    s_last_obs: Optional[tuple[int, int]] = None
    recorder: Recorder = NULL_RECORDER
    partner_names: Optional[Mapping[str, tuple[str, ...]]] = None
    histories: Optional[dict[str, list[Value]]] = None
    models: Optional[Mapping[str, StreamModel]] = None
    #: Per-stream ``(t, value)`` anchors for n-way contexts (the
    #: name-keyed analogue of ``r_last_obs``/``s_last_obs``).
    last_obs: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def is_multi(self) -> bool:
        """True for n-way (name-addressed) contexts."""
        return self.partner_names is not None

    def record_arrival(self, side: str, value: Value) -> None:
        """Append this step's arrival and update the last-observed anchor.

        Simulators must call this (with :attr:`time` already set to the
        current step) instead of appending to the history lists directly;
        it is what keeps :meth:`latest_history` incremental.  ``None``
        (the paper's "−") is recorded in the history but never becomes an
        anchor — a "−" tuple is an observation that carries no value to
        condition on.
        """
        if self.histories is not None:
            self.histories.setdefault(side, []).append(value)
            if value is not None:
                self.last_obs[side] = (self.time, value)
            return
        if side == "R":
            self.r_history.append(value)
            if value is not None:
                self.r_last_obs = (self.time, value)
        else:
            self.s_history.append(value)
            if value is not None:
                self.s_last_obs = (self.time, value)

    def latest_history(self, side: str) -> Optional[History]:
        """Anchor for ``side``'s Markov model: its latest non-"−" value.

        O(1) via the counters :meth:`record_arrival` maintains.  Falls
        back to one backward scan for hand-built contexts whose histories
        were populated directly (the scan can only run while no arrival
        has ever been recorded, so it cannot reintroduce the per-eviction
        rescans this replaces).
        """
        if self.histories is not None:
            obs = self.last_obs.get(side)
        else:
            obs = self.r_last_obs if side == "R" else self.s_last_obs
        if obs is None:
            values = self.history_for(side)
            for t in range(min(self.time, len(values) - 1), -1, -1):
                if values[t] is not None:
                    obs = (t, values[t])
                    break
            if obs is None:
                return None
        return History(now=obs[0], last_value=obs[1])

    def history_for(self, side: str) -> list[Value]:
        if self.histories is not None:
            return self.histories.setdefault(side, [])
        return self.r_history if side == "R" else self.s_history

    def partner_history(self, side: str) -> list[Value]:
        """History of the stream that tuples from ``side`` join against."""
        if self.histories is not None:
            partners = self.partners_of(side)
            return self.history_for(partners[0]) if partners else []
        return self.s_history if side == "R" else self.r_history

    def partner_model(self, side: str) -> Optional[StreamModel]:
        if self.histories is not None:
            partners = self.partners_of(side)
            return self.model_for(partners[0]) if partners else None
        return self.s_model if side == "R" else self.r_model

    def partners_of(self, side: str) -> tuple[str, ...]:
        """Names of the streams that ``side`` tuples join against.

        The binary join degenerates to a single partner: ``R`` joins
        ``S`` and vice versa.
        """
        if self.partner_names is not None:
            return tuple(self.partner_names.get(side, ()))
        return ("S",) if side == "R" else ("R",)

    def model_for(self, name: str) -> Optional[StreamModel]:
        """Model of stream ``name`` (binary names are ``"R"``/``"S"``)."""
        if self.partner_names is not None:
            return None if self.models is None else self.models.get(name)
        return self.r_model if name == "R" else self.s_model


class ReplacementPolicy(abc.ABC):
    """Base class for all cache replacement policies."""

    #: Human-readable name used in experiment reports.
    name: str = "policy"

    def reset(self, ctx: PolicyContext) -> None:
        """Called once before a run starts; clear any per-run state."""

    @abc.abstractmethod
    def select_victims(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        """Choose at least ``n_evict`` candidates to discard.

        Returning more than ``n_evict`` victims is allowed (evicting
        tuples known to be worthless is never harmful); returning fewer
        is an error the simulator rejects.
        """

    # -- sketch-state hooks (default no-ops) ---------------------------
    def sketch_state(self) -> Optional[dict[str, Any]]:
        """Bounded-memory sketch state to carry across a reshard.

        ``None`` means the policy has no sketch state (the exact
        policies); otherwise the returned mapping is fed to every
        successor policy's :meth:`merge_sketch_state` so frequency and
        admission history survive shard rebuilds.
        """
        return None

    def merge_sketch_state(self, state: Optional[dict[str, Any]]) -> None:
        """Fold a retiring policy's :meth:`sketch_state` into this one."""

    # -- notification hooks (default no-ops) ---------------------------
    def on_admit(self, tup: StreamTuple, t: int) -> None:
        """A tuple entered the cache at step ``t``."""

    def on_evict(self, tup: StreamTuple, t: int) -> None:
        """A tuple left the cache at step ``t``."""

    def on_reference(self, tup: StreamTuple, t: int) -> None:
        """A cached tuple joined a new arrival / produced a hit at ``t``."""


class ScoredPolicy(ReplacementPolicy):
    """A policy that evicts the ``n`` lowest-scoring candidates.

    Subclasses implement :meth:`score`; higher scores mean more worth
    keeping.  Ties break deterministically by tuple uid (oldest first) so
    runs are reproducible.

    An optional :class:`~repro.sketch.AdmissionFilter` can be attached
    with :meth:`with_admission`; new arrivals whose score cannot clear
    the filter's running eviction-cutoff EMA are then returned as extra
    victims (the ``validate_victims`` contract allows over-eviction), so
    every scored policy gains admission control without per-policy code.
    """

    #: Opt-in admission front-end; ``None`` keeps the exact seed-for-seed
    #: eviction path byte-identical to previous releases.
    admission: "AdmissionFilter | None" = None

    def with_admission(self, admission: "AdmissionFilter") -> "ScoredPolicy":
        """Attach an admission front-end; returns ``self`` for chaining."""
        self.admission = admission
        return self

    def sketch_state(self) -> Optional[dict[str, Any]]:
        """Expose the admission filter for merge-on-reshard."""
        if self.admission is None:
            return None
        return {"admission": self.admission}

    def merge_sketch_state(self, state: Optional[dict[str, Any]]) -> None:
        """Merge a retiring shard's admission filter into ours."""
        if not state:
            return
        donor = state.get("admission")
        if (
            donor is not None
            and self.admission is not None
            and donor is not self.admission
        ):
            self.admission.merge(donor)

    @abc.abstractmethod
    def score(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        """Desirability of keeping ``tup`` (higher is better)."""

    def score_many(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        """:meth:`score` of every candidate, in candidate order.

        Subclasses whose scores share per-step work (one history lookup,
        one vectorized table or spline evaluation) override this; the
        result must equal ``[self.score(t, ctx) for t in candidates]``
        bit for bit.
        """
        return [self.score(tup, ctx) for tup in candidates]

    @staticmethod
    def _rank(
        candidates: Sequence[StreamTuple], scores: Sequence[float], n: int
    ) -> tuple[list[StreamTuple], float]:
        """The ``n`` lowest candidates by ``(score, uid)``, and the cutoff.

        The cutoff is the best score that still got evicted.
        """
        ranked = sorted(zip(scores, [tup.uid for tup in candidates], candidates))
        return [tup for _, _, tup in ranked[:n]], ranked[n - 1][0]

    def select_victims(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        if self.admission is not None:
            return self._select_with_admission(candidates, n_evict, ctx)
        if n_evict <= 0:
            return []
        scores = self.score_many(candidates, ctx)
        rec = ctx.recorder
        if rec.enabled and rec.trace:
            # Snapshot every candidate's score (the per-candidate
            # ECB/HEEB values for the model-aware policies) before
            # ranking, so a trace can answer "why was X evicted at t?".
            rec.event(
                "scores",
                ctx.time,
                policy=self.name,
                candidates=[
                    {
                        "uid": tup.uid,
                        "side": tup.side,
                        "value": tup.value,
                        "score": score,
                    }
                    for tup, score in zip(candidates, scores)
                ],
            )
        victims, cutoff = self._rank(candidates, scores, n_evict)
        if rec.enabled:
            # Eviction threshold over time.  The batch engine mirrors
            # this series for every scored adapter (trace events stay
            # scalar-only).
            rec.series("scores.cutoff", ctx.time, cutoff)
        return victims

    def _select_with_admission(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        """Eviction with the admission front-end in the loop.

        New arrivals (``tup.arrival == ctx.time``) are screened first:
        a rejected arrival becomes an extra victim, shrinking (or
        eliminating) the ranked eviction pass.  The ranked pass feeds
        its marginal-survivor score back into the filter's cutoff EMA,
        so admission thresholds track whatever the policy currently
        considers worth keeping.
        """
        admission = self.admission
        assert admission is not None
        t = ctx.time
        rec = ctx.recorder
        new = [tup for tup in candidates if tup.arrival == t]
        kept: list[StreamTuple] = []
        kept_scores: list[float] = []
        victims: list[StreamTuple] = []
        for tup, score in zip(new, self.score_many(new, ctx)):
            if admission.admit(tup.value, score):
                kept.append(tup)
                kept_scores.append(score)
            else:
                victims.append(tup)
        n_more = n_evict - len(victims)
        if n_more > 0:
            old = [tup for tup in candidates if tup.arrival != t]
            ranked, cutoff = self._rank(
                kept + old, kept_scores + self.score_many(old, ctx), n_more
            )
            admission.update_cutoff(cutoff)
            if rec.enabled:
                rec.series("scores.cutoff", t, cutoff)
            victims.extend(ranked)
        if rec.enabled:
            rec.series("admission.rejects.cum", t, admission.rejects)
            rec.series("sketch.fp_rate", t, admission.fp_rate())
        return victims
