"""Core theory: ECBs, dominance, HEEB, and their efficient computation.

This subpackage is the paper's primary contribution (Sections 4 and part
of 5): expected cumulative benefit functions, the dominance tests that
identify provably optimal replacement decisions, the HEEB heuristic with
its lifetime estimators, and the incremental / precomputed evaluation
strategies of Section 4.4.
"""

from .closed_forms import (
    cache_ecb_linear_uniform,
    join_category,
    join_ecb_linear_uniform,
)
from .dominance import (
    comparable,
    dominance_matrix,
    dominates,
    find_dominated_subset,
    strongly_dominates,
)
from .ecb import ECB, ecb_cache, ecb_join, ecb_join_band, windowed_ecb
from .first_reference import (
    ar1_transition_matrix,
    first_reference_ar1,
    first_reference_independent,
    first_reference_monte_carlo,
    first_reference_probs,
    first_reference_random_walk,
)
from .heeb import (
    default_horizon,
    heeb_cache,
    heeb_from_ecb,
    heeb_join,
    heeb_join_band,
)
from .incremental import (
    IncrementalHeebTracker,
    cache_step,
    join_step,
    value_shifted_time,
)
from .lifetime import (
    LExp,
    LFixed,
    LInf,
    LInv,
    LifetimeEstimator,
    WindowedLExp,
    alpha_for_mean_lifetime,
    check_lifetime_properties,
    mean_lifetime_for_alpha,
)
from .precompute import (
    H1Table,
    H2Surface,
    ar1_cache_heeb_values,
    ar1_h2_cache,
    ar1_h2_join,
    ar1_stationary_bucket_prob,
    load_tables,
    random_walk_h1_cache,
    random_walk_h1_join,
    save_tables,
)
from .tuples import CacheState, StreamTuple, TupleFactory, canonical_key

__all__ = [
    "CacheState",
    "ECB",
    "H1Table",
    "H2Surface",
    "IncrementalHeebTracker",
    "LExp",
    "LFixed",
    "LInf",
    "LInv",
    "LifetimeEstimator",
    "StreamTuple",
    "TupleFactory",
    "WindowedLExp",
    "alpha_for_mean_lifetime",
    "ar1_cache_heeb_values",
    "ar1_h2_cache",
    "ar1_h2_join",
    "ar1_stationary_bucket_prob",
    "ar1_transition_matrix",
    "cache_ecb_linear_uniform",
    "cache_step",
    "canonical_key",
    "check_lifetime_properties",
    "comparable",
    "default_horizon",
    "dominance_matrix",
    "dominates",
    "ecb_cache",
    "ecb_join",
    "ecb_join_band",
    "find_dominated_subset",
    "first_reference_ar1",
    "first_reference_independent",
    "first_reference_monte_carlo",
    "first_reference_probs",
    "first_reference_random_walk",
    "heeb_cache",
    "heeb_from_ecb",
    "heeb_join",
    "heeb_join_band",
    "load_tables",
    "join_category",
    "join_ecb_linear_uniform",
    "join_step",
    "mean_lifetime_for_alpha",
    "random_walk_h1_cache",
    "random_walk_h1_join",
    "save_tables",
    "strongly_dominates",
    "value_shifted_time",
    "windowed_ecb",
]
