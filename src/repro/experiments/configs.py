"""Experiment configurations of Section 6.1.

Five configurations: TOWER, ROOF, FLOOR (linear trend, bounded noise),
WALK (random walks), and REAL (Melbourne-like temperatures, caching).

The synthetic trend configurations share: both streams drift at speed 1
with R lagging one step behind S; noise bounds are ``[-10, 10]`` for R
and ``[-15, 15]`` for S.  TOWER uses bounded normal noise with standard
deviations 1 (R) and 2 (S); ROOF uses 3.3 and 5; FLOOR uses uniform
noise.  WALK uses two drift-free random walks with discretized N(0, 1)
steps.

HEEB's ``α`` follows the paper's calibration rules:

* FLOOR (Section 5.3): average lifetime ≈ ``(w_R + w_S) / 2``;
* TOWER / ROOF (Section 5.4): average lifetime ≈ time for the trend to
  advance twice the noise standard deviation (we use the mean of the two
  streams' standard deviations);
* WALK and REAL (Sections 5.5, 6.5): ``α`` = cache size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.lifetime import LExp, alpha_for_mean_lifetime
from ..policies.base import ReplacementPolicy, WindowOracle
from ..policies.heeb_policy import (
    GenericJoinHeeb,
    HeebPolicy,
    HeebStrategy,
    TrendJoinHeeb,
    WalkJoinHeeb,
)
from ..policies.window_oracle import TrendWindowOracle
from ..streams.base import StreamModel
from ..streams.linear_trend import LinearTrendStream
from ..streams.noise import (
    bounded_normal,
    bounded_uniform,
    discretized_normal,
    from_mapping,
)
from ..streams.random_walk import RandomWalkStream
from ..streams.stationary import StationaryStream

__all__ = [
    "JoinConfig",
    "MultiJoinConfig",
    "tower_config",
    "roof_config",
    "floor_config",
    "walk_config",
    "chain3_config",
    "star5_config",
    "CONFIG_REGISTRY",
    "MULTI_CONFIG_REGISTRY",
    "make_config",
    "make_multi_config",
    "available_configs",
    "available_multi_configs",
    "SYNTHETIC_CONFIGS",
    "MULTI_CONFIGS",
    "PAPER_LENGTH",
    "PAPER_RUNS",
    "PAPER_CACHE_SIZE",
]

#: Paper-scale parameters (Section 6.2): 50 runs × 5000-tuple streams,
#: cache of 10 in the headline comparison.
PAPER_LENGTH = 5000
PAPER_RUNS = 50
PAPER_CACHE_SIZE = 10

#: Noise bounds shared by the trend configurations.
R_BOUND = 10
S_BOUND = 15


@dataclass
class JoinConfig:
    """One synthetic joining experiment configuration."""

    name: str
    r_model: StreamModel
    s_model: StreamModel
    heeb_alpha_for: Callable[[int], float]
    #: Builds the scenario-appropriate HEEB strategy for a cache size.
    heeb_strategy_for: Callable[[int], HeebStrategy]
    #: Window oracle handed to RAND / PROB / LIFE; None when no window
    #: exists (WALK).
    window_oracle: Optional[WindowOracle] = None
    #: Whether LIFE applies (it needs a window; excluded for WALK).
    has_life: bool = field(default=True)

    def make_heeb(self, cache_size: int) -> ReplacementPolicy:
        return HeebPolicy(self.heeb_strategy_for(cache_size))


def _trend_config(
    name: str,
    r_noise,
    s_noise,
    mean_lifetime: float,
    lag: int = 1,
) -> JoinConfig:
    r_model = LinearTrendStream(r_noise, speed=1.0, lag=lag)
    s_model = LinearTrendStream(s_noise, speed=1.0, lag=0)
    alpha = alpha_for_mean_lifetime(mean_lifetime)

    def heeb_alpha_for(cache_size: int) -> float:
        return alpha

    def heeb_strategy_for(cache_size: int) -> HeebStrategy:
        return TrendJoinHeeb(LExp(alpha))

    return JoinConfig(
        name=name,
        r_model=r_model,
        s_model=s_model,
        heeb_alpha_for=heeb_alpha_for,
        heeb_strategy_for=heeb_strategy_for,
        window_oracle=TrendWindowOracle(r_model, s_model),
        has_life=True,
    )


def tower_config(
    sigma_r: float = 1.0, sigma_s: float = 2.0, lag: int = 1
) -> JoinConfig:
    """TOWER: narrow bounded-normal noise (Section 5.4 scenario)."""
    return _trend_config(
        "TOWER",
        bounded_normal(R_BOUND, sigma_r),
        bounded_normal(S_BOUND, sigma_s),
        mean_lifetime=max(1.5, sigma_r + sigma_s),
        lag=lag,
    )


def roof_config(sigma_r: float = 3.3, sigma_s: float = 5.0) -> JoinConfig:
    """ROOF: wide bounded-normal noise."""
    return _trend_config(
        "ROOF",
        bounded_normal(R_BOUND, sigma_r),
        bounded_normal(S_BOUND, sigma_s),
        mean_lifetime=sigma_r + sigma_s,
    )


def floor_config() -> JoinConfig:
    """FLOOR: bounded uniform noise (Section 5.3 scenario)."""
    return _trend_config(
        "FLOOR",
        bounded_uniform(R_BOUND),
        bounded_uniform(S_BOUND),
        mean_lifetime=(R_BOUND + S_BOUND) / 2,
    )


def walk_config(step_sigma: float = 1.0, drift: int = 0) -> JoinConfig:
    """WALK: two independent random walks (Section 5.5 scenario)."""
    step = discretized_normal(step_sigma)
    r_model = RandomWalkStream(step, drift=drift, start=0)
    s_model = RandomWalkStream(step, drift=drift, start=0)

    def heeb_alpha_for(cache_size: int) -> float:
        return float(max(2, cache_size))

    def heeb_strategy_for(cache_size: int) -> HeebStrategy:
        # α = cache size per Section 5.5; a modest tolerance keeps the
        # precomputed h1 horizon (≈ α·ln(1/tol)) small.
        estimator = LExp(heeb_alpha_for(cache_size))
        horizon = estimator.suggested_horizon(1e-6)
        return WalkJoinHeeb(estimator, horizon=horizon)

    return JoinConfig(
        name="WALK",
        r_model=r_model,
        s_model=s_model,
        heeb_alpha_for=heeb_alpha_for,
        heeb_strategy_for=heeb_strategy_for,
        window_oracle=None,
        has_life=False,
    )


@dataclass
class MultiJoinConfig:
    """One Appendix-C n-way joining experiment configuration.

    All models are stationary so every tier can run the topology: the
    scalar reference, the exact batch adapters
    (the n-way :class:`~repro.policies.batch.BatchStationaryJoinHeeb`
    requires stationary query streams), and the serving tier.
    """

    name: str
    #: Stream name -> model, in arrival order.
    models: dict[str, StreamModel]
    #: Binary equijoin query edges as stream-name pairs.
    queries: list[tuple[str, str]]
    heeb_alpha_for: Callable[[int], float]

    def make_heeb(self, cache_size: int) -> ReplacementPolicy:
        """The Appendix-C HEEB (partner-summed generic strategy)."""
        return HeebPolicy(
            GenericJoinHeeb(LExp(self.heeb_alpha_for(cache_size)))
        )


def _skewed_dist(n_values: int, skew: float):
    """Geometric-weight distribution over ``1..n_values`` (skew < 1)."""
    weights = {v: skew ** (v - 1) for v in range(1, n_values + 1)}
    total = sum(weights.values())
    return from_mapping({v: w / total for v, w in weights.items()})


def chain3_config(n_values: int = 12, skew: float = 0.8) -> MultiJoinConfig:
    """CHAIN3: three stationary streams joined in a chain A–B–C.

    The middle stream ``B`` participates in both queries, so its tuples
    carry twice the benefit — the topology that separates partner-aware
    policies from binary ones.
    """
    dist = _skewed_dist(n_values, skew)
    return MultiJoinConfig(
        name="CHAIN3",
        models={
            "A": StationaryStream(dist),
            "B": StationaryStream(dist),
            "C": StationaryStream(dist),
        },
        queries=[("A", "B"), ("B", "C")],
        heeb_alpha_for=lambda cache_size: float(max(2, cache_size)),
    )


def star5_config(n_values: int = 16, skew: float = 0.85) -> MultiJoinConfig:
    """STAR5: a hub stream joined against four stationary leaves."""
    dist = _skewed_dist(n_values, skew)
    models: dict[str, StreamModel] = {"HUB": StationaryStream(dist)}
    queries = []
    for i in range(1, 5):
        leaf = f"L{i}"
        models[leaf] = StationaryStream(dist)
        queries.append(("HUB", leaf))
    return MultiJoinConfig(
        name="STAR5",
        models=models,
        queries=queries,
        heeb_alpha_for=lambda cache_size: float(max(2, cache_size)),
    )


#: String-keyed configuration registry: experiment harnesses and the CLI
#: build scenarios by name instead of importing factory functions.
CONFIG_REGISTRY: dict[str, Callable[..., JoinConfig]] = {
    "TOWER": tower_config,
    "ROOF": roof_config,
    "FLOOR": floor_config,
    "WALK": walk_config,
}

#: Multi-join (n-way) topologies, kept in their own registry so the
#: binary harnesses that iterate :func:`SYNTHETIC_CONFIGS` are
#: unaffected.
MULTI_CONFIG_REGISTRY: dict[str, Callable[..., MultiJoinConfig]] = {
    "CHAIN3": chain3_config,
    "STAR5": star5_config,
}


def make_config(name: str, **kwargs):
    """Build a configuration by registry name.

    Binary names resolve first; unmatched names fall through to the
    multi-join registry, so ``make_config("chain3")`` works wherever a
    config name is accepted.
    """
    factory = CONFIG_REGISTRY.get(name.upper())
    if factory is None:
        factory = MULTI_CONFIG_REGISTRY.get(name.upper())
    if factory is None:
        raise ValueError(
            f"unknown config {name!r}; available: "
            f"{available_configs() + available_multi_configs()}"
        )
    return factory(**kwargs)


def make_multi_config(name: str, **kwargs) -> MultiJoinConfig:
    """Build a multi-join topology by registry name."""
    try:
        factory = MULTI_CONFIG_REGISTRY[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown multi-join config {name!r}; available: "
            f"{available_multi_configs()}"
        ) from None
    return factory(**kwargs)


def available_configs() -> tuple[str, ...]:
    """Registered configuration names, in paper order."""
    return tuple(CONFIG_REGISTRY)


def available_multi_configs() -> tuple[str, ...]:
    """Registered multi-join topology names."""
    return tuple(MULTI_CONFIG_REGISTRY)


def SYNTHETIC_CONFIGS() -> dict[str, JoinConfig]:
    """Fresh instances of all four synthetic configurations."""
    return {name: make_config(name) for name in CONFIG_REGISTRY}


def MULTI_CONFIGS() -> dict[str, MultiJoinConfig]:
    """Fresh instances of the multi-join topologies."""
    return {name: make_multi_config(name) for name in MULTI_CONFIG_REGISTRY}
