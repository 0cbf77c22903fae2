"""HEEB as a replacement policy, with per-scenario evaluation strategies.

Section 5 shows that *how* ``H_x`` is computed efficiently depends on the
input model: direct summation for arbitrary models, a translation-
invariant table for linear trends (value-incremental computation,
Corollary 5), precomputed ``h1`` curves for random walks and ``h2``
surfaces for AR(1) (Theorem 5).  :class:`HeebPolicy` delegates to a
:class:`HeebStrategy` implementing the appropriate computation; all
strategies share one ``L`` for every candidate, which trivially satisfies
property 4 of Section 4.3.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Sequence

import numpy as np

from ..core.heeb import heeb_cache, heeb_join, stationary_heeb_table
from ..core.lifetime import LExp, LifetimeEstimator, WindowedLExp
from ..core.precompute import H1Table, H2Surface, random_walk_h1_join
from ..core.tuples import StreamTuple
from ..streams.ar1 import AR1Stream
from ..streams.base import History, StreamModel, Value
from ..streams.linear_trend import LinearTrendStream
from ..streams.random_walk import RandomWalkStream
from ..streams.stationary import StationaryStream
from .base import PolicyContext, ScoredPolicy

__all__ = [
    "HeebStrategy",
    "GenericJoinHeeb",
    "GenericCacheHeeb",
    "TrendJoinHeeb",
    "WalkJoinHeeb",
    "WalkCacheHeeb",
    "AR1CacheHeeb",
    "AR1JoinHeeb",
    "BandJoinHeeb",
    "HeebPolicy",
]


def _latest_history(values: Sequence[Value], now: int) -> History | None:
    for t in range(min(now, len(values) - 1), -1, -1):
        if values[t] is not None:
            return History(now=t, last_value=values[t])
    return None


class HeebStrategy(abc.ABC):
    """Computes ``H_x`` for candidate tuples in a given scenario."""

    def reset(self, ctx: PolicyContext) -> None:
        """Clear per-run state / lazily built tables."""

    @abc.abstractmethod
    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        """``H`` for one candidate at the current time ``ctx.time``."""

    def h_values(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        """``H`` for every candidate of one eviction, in candidate order.

        Strategies that can share work across the candidate set (one
        history lookup, one vectorized surface evaluation) override this;
        the result must equal the per-tuple :meth:`h_value` bit for bit.
        """
        return [self.h_value(tup, ctx) for tup in candidates]


class GenericJoinHeeb(HeebStrategy):
    """Direct summation of the joining ``H`` for any stream model.

    Exact but slow (one ``prob`` call per look-ahead step); intended for
    small runs and as the reference the specialized strategies are tested
    against.  Supports sliding-window semantics by switching to the
    window-clipped ``L_exp`` of Section 7.

    Without a window, ``H`` against an i.i.d. partner is time-invariant
    (Corollaries 3–4), so each :class:`StationaryStream` partner gets one
    :func:`~repro.core.heeb.stationary_heeb_table` per run, memoized on
    the model object and cleared by :meth:`reset`.  Its entries are the
    floats ``heeb_join`` returns, so scores do not change.
    """

    def __init__(self, estimator: LifetimeEstimator, horizon: int | None = None):
        self.estimator = estimator
        self.horizon = horizon
        self._tables: dict[StreamModel, tuple[int, list[float]]] = {}

    def reset(self, ctx: PolicyContext) -> None:
        self._tables = {}

    def _stationary_h(self, partner: StationaryStream, value: Value) -> float:
        """Memoized ``heeb_join`` against an i.i.d. partner (no window)."""
        if value is None:
            return 0.0
        entry = self._tables.get(partner)
        if entry is None:
            lo, values = stationary_heeb_table(
                partner, self.estimator, self.horizon
            )
            entry = self._tables[partner] = (lo, values.tolist())
        lo, table = entry
        # ``pmf`` reads ``int(value)``; off-table values never match.
        i = int(value) - lo
        return table[i] if 0 <= i < len(table) else 0.0

    def _estimator_for(self, tup: StreamTuple, ctx: PolicyContext) -> LifetimeEstimator:
        if ctx.window is None:
            return self.estimator
        if not isinstance(self.estimator, LExp):
            raise ValueError("windowed HEEB requires an LExp base estimator")
        remaining = max(0, tup.arrival + ctx.window - ctx.time)
        return WindowedLExp(self.estimator.alpha, remaining)

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        if ctx.is_multi:
            return self._h_value_multi(tup, ctx)
        partner = ctx.partner_model(tup.side)
        if partner is None:
            raise ValueError("GenericJoinHeeb needs stream models in context")
        if ctx.window is None and isinstance(partner, StationaryStream):
            return self._stationary_h(partner, tup.value)
        history = None
        if not partner.is_independent:
            history = _latest_history(ctx.partner_history(tup.side), ctx.time)
        return heeb_join(
            partner,
            ctx.time,
            tup.value,
            self._estimator_for(tup, ctx),
            self.horizon,
            history,
        )

    def _h_value_multi(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        """Appendix C rule: ``H`` sums the binary benefit over every
        partner stream the tuple can join — the binary join is the
        1-partner degenerate case and yields the identical float."""
        if ctx.models is None:
            raise ValueError("GenericJoinHeeb needs stream models in context")
        estimator = self._estimator_for(tup, ctx)
        total = 0.0
        for name in ctx.partners_of(tup.side):
            partner = ctx.model_for(name)
            if partner is None:
                raise ValueError(
                    f"GenericJoinHeeb: no model for stream {name!r}"
                )
            if ctx.window is None and isinstance(partner, StationaryStream):
                total += self._stationary_h(partner, tup.value)
                continue
            history = None
            if not partner.is_independent:
                history = ctx.latest_history(name)
            total += heeb_join(
                partner, ctx.time, tup.value, estimator, self.horizon, history
            )
        return total


class GenericCacheHeeb(HeebStrategy):
    """Direct summation of the caching ``H`` for any reference model."""

    def __init__(self, estimator: LifetimeEstimator, horizon: int | None = None):
        self.estimator = estimator
        self.horizon = horizon

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        reference = ctx.r_model
        if reference is None:
            raise ValueError("GenericCacheHeeb needs the reference model")
        history = None
        if not reference.is_independent:
            history = _latest_history(ctx.r_history, ctx.time)
        return heeb_cache(
            reference,
            ctx.time,
            tup.value,
            self.estimator,
            self.horizon,
            history,
        )


class TrendJoinHeeb(HeebStrategy):
    """Value-incremental ``H`` for linear-trend streams (Corollary 5).

    For a unit-speed trend, ``H`` depends only on the offset
    ``d = v_x − f_partner(t0)`` -- the tuple sees the same future from its
    frame of reference at every time -- so one table per partner stream,
    built lazily, answers every query in O(1):

        ``H(d) = Σ_{Δt≥1} pmf_noise(d − Δt) · e^{−Δt/α}``.

    Non-unit speeds fall back to a vectorized direct sum over the Δt range
    where the partner window covers the value.
    """

    def __init__(self, estimator: LExp, tol: float = 1e-12):
        if not isinstance(estimator, LExp):
            raise ValueError("TrendJoinHeeb requires LExp")
        self.estimator = estimator
        self.tol = tol
        self._tables: dict[str, dict[int, float]] = {}

    def reset(self, ctx: PolicyContext) -> None:
        self._tables = {}

    def _table_for(self, partner: LinearTrendStream, key: str) -> dict[int, float]:
        table = self._tables.get(key)
        if table is not None:
            return table
        noise = partner.noise
        alpha = self.estimator.alpha
        extra = int(math.ceil(alpha * math.log(1.0 / self.tol)))
        table = {}
        for d in range(noise.min_value + 1, noise.max_value + extra + 1):
            lo = max(1, d - noise.max_value)
            hi = d - noise.min_value
            dts = np.arange(lo, hi + 1)
            if dts.size:
                pmfs = noise.pmf_many(d - dts)
                table[d] = float(np.dot(pmfs, np.exp(-dts / alpha)))
            else:
                table[d] = 0.0
        self._tables[key] = table
        return table

    def _direct_sum(
        self,
        partner: LinearTrendStream,
        value: int,
        t0: int,
        max_dt: int,
    ) -> float:
        """Vectorized Σ pmf(v − f(t0+Δt))·e^(−Δt/α) over Δt ≤ max_dt."""
        if max_dt < 1:
            return 0.0
        noise = partner.noise
        alpha = self.estimator.alpha
        dts = np.arange(1, max_dt + 1)
        trend_vals = np.array([partner.trend(t0 + int(dt)) for dt in dts])
        pmfs = noise.pmf_many(value - trend_vals)
        return float(np.dot(pmfs, np.exp(-dts / alpha)))

    def direct_sum(
        self,
        partner: LinearTrendStream,
        value: int,
        t0: int,
        max_dt: int,
    ) -> float:
        """Public access to the windowed/general-speed direct sum.

        The batch engine's windowed adapter calls this per distinct
        ``(offset, clipped horizon)`` key — the same NumPy expression the
        scalar path evaluates, so memoized batch scores stay
        bit-identical to per-tuple scalar scores.
        """
        return self._direct_sum(partner, value, t0, max_dt)

    def table_array(
        self, partner: LinearTrendStream, key: str
    ) -> tuple[int, np.ndarray]:
        """The lazily built offset table as ``(lowest_offset, values)``.

        Offsets are contiguous, so the dict maps losslessly onto a dense
        array; the batch engine scores whole candidate blocks by indexing
        it (entries outside the array are 0, matching ``table.get(d,
        0.0)``).  Returns the exact same floats the scalar path uses.
        """
        table = self._table_for(partner, key)
        lo = partner.noise.min_value + 1
        return lo, np.array([table[d] for d in range(lo, lo + len(table))])

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        partner = ctx.partner_model(tup.side)
        if not isinstance(partner, LinearTrendStream):
            raise ValueError("TrendJoinHeeb expects LinearTrendStream partners")
        v = int(tup.value)
        if ctx.window is not None:
            # Section 7: the tuple's own window expiry clips L; the clip
            # point is per-tuple, so the shared table does not apply.
            remaining = max(0, tup.arrival + ctx.window - ctx.time)
            horizon = min(remaining, self.estimator.suggested_horizon(self.tol))
            return self._direct_sum(partner, v, ctx.time, horizon)
        if partner.speed == 1.0:
            table = self._table_for(partner, f"partner-of-{tup.side}")
            return table.get(v - partner.trend(ctx.time), 0.0)
        # General speed: direct vectorized sum over the covering Δt range.
        return self._direct_sum(
            partner, v, ctx.time, self.estimator.suggested_horizon(self.tol)
        )


class WalkJoinHeeb(HeebStrategy):
    """Precomputed ``h1`` per stream for random-walk joins (Theorem 5(2)).

    ``H = h1_partner(v_x − x^partner_{t0})`` where ``x^partner_{t0}`` is
    the partner stream's most recent observation.
    """

    def __init__(self, estimator: LExp, horizon: int | None = None):
        if not isinstance(estimator, LExp):
            raise ValueError("WalkJoinHeeb requires LExp")
        self.estimator = estimator
        self.horizon = horizon
        self._tables: dict[str, H1Table] = {}

    def reset(self, ctx: PolicyContext) -> None:
        self._tables = {}

    def _table_for(self, partner: RandomWalkStream, key: str) -> H1Table:
        table = self._tables.get(key)
        if table is None:
            table = random_walk_h1_join(partner, self.estimator, self.horizon)
            self._tables[key] = table
        return table

    def table_for(self, partner: RandomWalkStream, key: str) -> H1Table:
        """Public access to the per-partner ``h1`` table (built lazily).

        The batch engine reuses the exact same table via
        :meth:`H1Table.lookup`, which keeps batch and scalar scores
        bit-identical.
        """
        return self._table_for(partner, key)

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        partner = ctx.partner_model(tup.side)
        if not isinstance(partner, RandomWalkStream):
            raise ValueError("WalkJoinHeeb expects RandomWalkStream partners")
        history = _latest_history(ctx.partner_history(tup.side), ctx.time)
        if history is None:
            return 0.0
        table = self._table_for(partner, f"partner-of-{tup.side}")
        return table(int(tup.value) - int(history.last_value))


class WalkCacheHeeb(HeebStrategy):
    """Precomputed ``h1`` for random-walk *caching* (Theorem 5(2)).

    ``H = h1(v_x − x_{t0})`` with ``h1`` the L-weighted first-reference
    curve of Figure 6 (see
    :func:`repro.core.precompute.random_walk_h1_cache`).  The table is
    built offline and passed in, mirroring the AR(1) surface workflow.
    """

    def __init__(self, table: H1Table):
        self.table = table

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        history = _latest_history(ctx.r_history, ctx.time)
        if history is None:
            return 0.0
        return self.table(int(tup.value) - int(history.last_value))


def _surface_scores(
    model: AR1Stream,
    surface: H2Surface,
    candidates: Sequence[StreamTuple],
    history_for: Callable[[str], Sequence[Value]],
    now: int,
) -> list[float]:
    """``h2(v_x, x_t0)`` for every candidate in one spline call.

    ``x_t0`` is the latent value of the latest observation in
    ``history_for(side)``, looked up once per side; a candidate whose
    history has none scores 0.  This is the
    :meth:`~repro.core.precompute.H2Surface.evaluate_many` call the batch
    adapter makes, so both tiers get the same floats.
    """
    if not candidates:
        return []
    latent: dict[str, float | None] = {}
    for tup in candidates:
        if tup.side not in latent:
            history = _latest_history(history_for(tup.side), now)
            latent[tup.side] = (
                None
                if history is None
                else model.to_latent(int(history.last_value))
            )
    anchors = [latent[tup.side] for tup in candidates]
    scores = surface.evaluate_many(
        np.array([float(tup.value) for tup in candidates]),
        np.array([0.0 if a is None else a for a in anchors]),
    )
    return np.where([a is not None for a in anchors], scores, 0.0).tolist()


class AR1CacheHeeb(HeebStrategy):
    """Spline-interpolated ``h2`` surface for AR(1) caching (Theorem 5(1)).

    Exactly the paper's REAL setup: ``h2`` precomputed at a small control
    grid (25 points by default) and interpolated bicubically at runtime;
    ``H = h2(v_x, x_{t0})``.
    """

    def __init__(self, model: AR1Stream, surface: H2Surface):
        self.model = model
        self.surface = surface

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        return self.h_values([tup], ctx)[0]

    def h_values(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        return _surface_scores(
            self.model, self.surface, candidates,
            lambda side: ctx.r_history, ctx.time,
        )


class AR1JoinHeeb(HeebStrategy):
    """Precomputed ``h2`` surface for AR(1) *joining* (Theorem 5(1)).

    ``H = h2(v_x, x^partner_{t0})``: the surface weights the partner's
    conditional match probabilities (no taboo term), precomputed over a
    control grid and interpolated bicubically, exactly like the caching
    variant used for REAL.
    """

    def __init__(self, model: AR1Stream, surface: H2Surface):
        self.model = model
        self.surface = surface

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        return self.h_values([tup], ctx)[0]

    def h_values(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        return _surface_scores(
            self.model, self.surface, candidates,
            ctx.partner_history, ctx.time,
        )


class BandJoinHeeb(HeebStrategy):
    """Direct band-join ``H`` for any stream model (future-work variant).

    Uses the non-equality predicate ``|X^partner_t − v_x| ≤ band``; see
    :func:`repro.core.heeb.heeb_join_band`.
    """

    def __init__(
        self,
        band: int,
        estimator: LifetimeEstimator,
        horizon: int | None = None,
    ):
        if band < 0:
            raise ValueError("band must be nonnegative")
        self.band = int(band)
        self.estimator = estimator
        self.horizon = horizon

    def h_value(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        from ..core.heeb import heeb_join_band

        partner = ctx.partner_model(tup.side)
        if partner is None:
            raise ValueError("BandJoinHeeb needs stream models in context")
        history = None
        if not partner.is_independent:
            history = _latest_history(ctx.partner_history(tup.side), ctx.time)
        return heeb_join_band(
            partner,
            ctx.time,
            tup.value,
            self.band,
            self.estimator,
            self.horizon,
            history,
        )


class HeebPolicy(ScoredPolicy):
    """Evict the candidates with the lowest estimated expected benefit."""

    name = "HEEB"

    def __init__(self, strategy: HeebStrategy):
        self.strategy = strategy

    def reset(self, ctx: PolicyContext) -> None:
        self.strategy.reset(ctx)

    def score(self, tup: StreamTuple, ctx: PolicyContext) -> float:
        return self.strategy.h_value(tup, ctx)

    def score_many(
        self, candidates: Sequence[StreamTuple], ctx: PolicyContext
    ) -> list[float]:
        return self.strategy.h_values(candidates, ctx)
