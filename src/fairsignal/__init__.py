"""Fair signaling schemes for third-degree price discrimination.

Exact-rational construction of an efficient, monotone signaling scheme
whose sorted surplus prefix sums are within a factor 8 of every other
scheme's, alongside baselines (no signal, full revelation, buyer-optimal by
peeling), the exact LP adversary that certifies that factor on concrete
instances, and the two lower-bound instance families.
"""

from .market import (
    InvalidDistribution,
    InvariantViolation,
    MarketError,
    PlausibilityError,
    Signal,
    SignalingScheme,
    ValueDistribution,
    as_fraction,
    buyer_optimal_scheme,
    full_revelation,
    is_efficient,
    myerson,
    no_signal,
    scheme_revenue,
)
from .steps import (
    StepFunction,
    SurplusProfile,
    certification_grid,
    evaluate_welfare,
    integration_prefix,
    is_monotone,
    profile_step_function,
    scheme_surplus,
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
    UniversalLowerBound,
    adversary_grid,
    adversary_sorted_prefix,
    buyer_optimal_lb_instance,
    universal_lb_instance,
)

__version__ = "0.1.0"
