"""Fair signaling schemes for third-degree price discrimination.

Exact-rational construction of an efficient, monotone signaling scheme
whose sorted surplus prefix sums are within a factor 8 of every other
scheme's, alongside baselines (no signal, full revelation, buyer-optimal by
peeling) and LP oracles that certify each guarantee on concrete instances.
"""

from .market import (
    InvalidDistribution,
    InvariantViolation,
    MarketError,
    PlausibilityError,
    Signal,
    SignalingScheme,
    SurplusProfile,
    ValueDistribution,
    as_fraction,
    buyer_optimal_scheme,
    canonicalize,
    full_revelation,
    is_efficient,
    is_monotone,
    myerson,
    no_signal,
    scheme_revenue,
    scheme_surplus,
)
from .steps import (
    StepFunction,
    certification_grid,
    evaluate_welfare,
    integration_prefix,
    profile_step_function,
    sorted_breakpoints,
    sorted_prefix,
)
from .splitmatch import (
    BinarySignalEntry,
    DecomposedScheme,
    SingletonEntry,
    split_and_match,
    truncated_upper_bound,
)
from .ironing import (
    FairSchemeResult,
    IronedFunction,
    IroningInterval,
    RectanglePair,
    finalize,
    iron,
    monotone_fair_scheme,
    pair_rectangles,
    smooth,
)
from .lp import LinearProgram, LPResult, solve_lp
from .oracles import (
    BuyerOptimalLowerBound,
    MaxMinSurplusResult,
    UniversalLowerBound,
    adversary_grid,
    adversary_sorted_prefix,
    buyer_optimal_lb_instance,
    max_min_surplus_lp,
    universal_lb_instance,
)

__version__ = "0.1.0"
