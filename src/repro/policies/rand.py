"""RAND: discard tuples uniformly at random.

The oblivious baseline of Section 6.2.  When a window oracle is supplied
(TOWER / ROOF / FLOOR experiments), dead tuples -- those whose value the
partner's moving window has already passed -- are always discarded first,
exactly as the paper configures RAND.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.tuples import StreamTuple
from .base import PolicyContext, ReplacementPolicy

__all__ = ["RandPolicy"]


class RandPolicy(ReplacementPolicy):
    name = "RAND"

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def seed(self) -> int:
        """The per-run reset seed (the batch adapter replays it per trial)."""
        return self._seed

    def reset(self, ctx: PolicyContext) -> None:
        self._rng = np.random.default_rng(self._seed)

    def select_victims(
        self,
        candidates: Sequence[StreamTuple],
        n_evict: int,
        ctx: PolicyContext,
    ) -> list[StreamTuple]:
        if n_evict <= 0:
            return []
        oracle = ctx.window_oracle
        dead: list[StreamTuple] = []
        alive: list[StreamTuple] = []
        if oracle is not None:
            for c in candidates:
                (dead if oracle.is_dead(c, ctx.time) else alive).append(c)
        else:
            alive = list(candidates)
        victims = dead[:n_evict]
        remaining = n_evict - len(victims)
        if remaining > 0:
            picks = self._rng.choice(len(alive), size=remaining, replace=False)
            victims.extend(alive[i] for i in picks)
        return victims
