"""Exact LP adversary over canonical schemes, and hard instance families.

Any scheme can be rewritten, surplus for surplus, into at most n signals
with pairwise-distinct lowest supports, each posting its lowest support.
Optimizing over that canonical polytope therefore optimizes over all
schemes.  The LP carries no column for the mass of value i in the signal
priced at v_i: the prior fixes it as f_i less the mass of value i priced
lower.  Every row is then a ``<=`` row with a non-negative right-hand
side and every variable is non-negative, the standard form of `lp`: the
origin is full revelation, a feasible vertex where every row holds, which
is where its one-phase simplex starts.  The LP keeps no row another row
implies: below the top class, a class's revenue row implies its diagonal
row (`_canonical_rows`), and the lowest class, which earns nothing, is
folded into the adversary's multiplier (`adversary_sorted_prefix`).  The
adversary maximizes the sorted prefix sum over a grid of masses, one
warm-started LP per mass, which certifies approximate majorization; the
buyer-optimal baseline needs no LP (see `market.buyer_optimal_scheme`).
The two three-value instance families pin down the lower bounds; the
universal family's max-min surplus is read off the same adversary
(`cli.cmd_lowerbound`).
Both refuse a parameter longer than `MAX_PARAMETER_EXPONENT` allows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .lp import LinearProgram, solve_lp
from .market import (
    InvariantViolation,
    MarketError,
    Record,
    Signal,
    SignalingScheme,
    ValueDistribution,
    as_fraction,
    buyer_optimal_scheme,
)
from .steps import StepFunction, certification_grid

DEFAULT_MAX_N = 8
# A lower-bound parameter's numerator and denominator may not exceed
# 10**MAX_PARAMETER_EXPONENT.  The reports print integers about 4x as long
# as the parameter's, and the universal family's adversary LPs slow down
# with epsilon's length: on a 2-vCPU VM, `lowerbound universal` takes about
# 0.23 s at 10**-1000, and its sweep about 1.4 s at 10**-3000.
MAX_PARAMETER_EXPONENT = 1000


def _canonical_columns(n: int) -> list[tuple[int, int]]:
    """Column order for x[k][i]: mass of value i priced at a lower value k < i.

    The diagonal x[i][i] has no column: it is whatever of f_i the other
    signals leave, ``f_i - sum_{k<i} x[k][i]``.  The origin is therefore
    full revelation, a feasible vertex, and every constraint row is a
    ``<=`` row with a non-negative right-hand side.
    """
    return [(k, i) for k in range(n) for i in range(k + 1, n)]


def _canonical_rows(
    dist: ValueDistribution, col: dict[tuple[int, int], int]
) -> list[tuple[tuple[tuple[int, Fraction], ...], Fraction]]:
    """The canonical polytope's rows, as `lp.LinearProgram` takes them.

    Every coefficient is nonzero (values strictly increase and are
    positive), and each row lists its columns in increasing order: the
    blocks of lower prices, then its own price's block.

    Of the rows keeping each diagonal x[k][k] non-negative, only the top
    class's is given.  Below the top, class k's revenue row against
    v_{k+1} reads v_k * sum_{l<k} x[l][k] + (v_{k+1} - v_k) *
    sum_{i>k} x[k][i] <= v_k * f_k; divided by v_k, it bounds
    sum_{l<k} x[l][k] by f_k less a non-negative sum, so it implies the
    diagonal row."""
    n = dist.n
    values = dist.values
    # the top diagonal x[n-1][n-1] stays non-negative
    top = n - 1
    rows = [(tuple((col[(k, top)], 1) for k in range(top)), dist.masses[top])] if top else []
    for k in range(n):
        # revenue of signal k at v_j is at most its revenue at v_k; x[k][k]
        # enters through f_k
        lower = tuple((col[(below, k)], values[k]) for below in range(k))
        rhs, cut = values[k] * dist.masses[k], -values[k]
        for j in range(k + 1, n):
            gap = values[j] - values[k]
            own = tuple((col[(k, i)], gap if i >= j else cut) for i in range(k + 1, n))
            rows.append((lower + own, rhs))
    return rows


def check_adversary_support(dist: ValueDistribution, max_support: int) -> None:
    """Refuse an instance too large for the O(n^2)-column adversary LP."""
    if dist.n > max_support:
        raise MarketError(
            f"adversary oracle limited to {max_support} values; got {dist.n} "
            "(override with --max-support or max_support=)"
        )


def adversary_sorted_prefix(
    dist: ValueDistribution,
    masses: Sequence[Fraction],
    max_support: int = DEFAULT_MAX_N,
) -> list[Fraction]:
    """Largest sorted m-prefix sum any scheme can achieve, at each mass m
    of ``masses``.

    The inner minimum over mass-m selections is dualized (multiplier
    lambda for the total-mass constraint, one non-negative multiplier nu_i
    per capacity), so a single LP maximizes m * lambda - sum_i f_i nu_i
    subject to lambda - nu_i <= s_i over canonical schemes and selections
    jointly, where s_i is the surplus of value class i.

    lambda is the multiplier of an equality and so free in the dual, but
    the LP keeps it non-negative, which loses nothing: every s_i is >= 0,
    so for any scheme x the point lambda = 0, nu = 0 is feasible with value
    0, while any point with lambda < 0 has value m * lambda - sum_i f_i nu_i
    < 0 (m > 0, nu >= 0).  Every optimum therefore already has lambda >= 0.

    The lowest class earns nothing under any scheme, since every posted
    price is at least v_1, so its row reads lambda <= nu_1; with lambda >= 0
    and nu_1's cost f_1, nu_1 = lambda at every optimum.  The LP therefore
    has no nu_1 and no row for it, and lambda's objective coefficient is
    m - f_1: at n=7 it has 28 rows and 28 columns instead of 34 and 29, and
    at m <= f_1 its origin is optimal.

    Only lambda's objective coefficient depends on m, so the rows are built
    once and each mass is solved from the previous mass's optimal basis
    (`solve_lp`'s ``start``); on an ascending grid consecutive optima lie
    few pivots apart, about 2.8 per mass on the certify-small benchmark.
    Only the values are returned: every optimal point is proved feasible
    by `solve_lp`'s certificate, so the canonical scheme it describes is
    Bayes plausible by construction.
    """
    for m in masses:
        if not 0 < m <= 1:
            raise MarketError(f"prefix mass {m} outside (0, 1]")
    check_adversary_support(dist, max_support)
    n = dist.n
    cols = _canonical_columns(n)
    col = {kc: idx for idx, kc in enumerate(cols)}
    # class i >= 1's nu is column nu + i, and lambda follows them
    nu = len(cols) - 1
    lam = nu + n
    rows = _canonical_rows(dist, col)
    for i in range(1, n):
        capacity = [(col[(k, i)], dist.values[k] - dist.values[i]) for k in range(i)]
        rows.append(((*capacity, (nu + i, -dist.masses[i]), (lam, dist.masses[i])), 0))
    rows = tuple(rows)
    costs = (0,) * len(cols) + tuple(-f for f in dist.masses[1:])
    lowest = dist.masses[0]
    out = []
    result = None
    for m in masses:
        result = solve_lp(LinearProgram(costs + (m - lowest,), rows), start=result)
        out.append(result.value)
    return out


def adversary_grid(step: StepFunction) -> tuple[Fraction, ...]:
    """Masses at which a scheme's majorization factor is certified.

    The segment edges and sorted breakpoints of its `scheme_surplus` step:
    both prefix sums of the scheme are linear on each cell.  The
    adversary's optimum is convex in m (a maximum of functions linear in
    m), so adversary <= alpha * PF at both ends of a cell holds on the
    whole cell.
    """
    return certification_grid(step)


class BuyerOptimalLowerBound(Record):
    """Three-value family where buyer optimality forbids fair splits.

    The unique buyer-optimal scheme (`buyer_optimal_scheme`) starves the
    middle value class; an alternative pays it N times more, so ``ratio``,
    the alternative's least positive surplus over the buyer-optimal one, is
    N and no buyer-optimal scheme is alpha-majorized for alpha < N.  The
    instance checks both schemes against their closed-form surpluses.
    """

    dist: ValueDistribution
    buyer_optimal: SignalingScheme
    alternative: SignalingScheme
    ratio: Fraction


def check_parameter_length(parameter: Fraction) -> None:
    """Refuse a lower-bound parameter too long to build an instance from."""
    if max(abs(parameter.numerator), parameter.denominator) > (
        10**MAX_PARAMETER_EXPONENT
    ):
        raise MarketError(
            "parameter too long: its numerator and denominator may not exceed "
            f"10**MAX_PARAMETER_EXPONENT = 10**{MAX_PARAMETER_EXPONENT}"
        )


def buyer_optimal_lb_instance(parameter) -> BuyerOptimalLowerBound:
    N = as_fraction(parameter)
    if N <= 1:
        raise MarketError(f"parameter must exceed 1, got {N}")
    check_parameter_length(N)
    total = N**3 + 2 * N**2 + N
    dist = ValueDistribution(
        (Fraction(1), N, N + 1),
        ((N**2 - 1) / total, (N**2 + 1) / total, (N**3 + N) / total),
    )
    buyer_optimal = buyer_optimal_scheme(dist)
    # N = p/q; each share below is in lowest terms, as p/q is
    # a1: (N^2 - 1)/(N^2 + N) = (p - q)/p and (N + 1)/(N^2 + N) = q/p
    # a2: 1/(N + 1) = q/(p + q) and N/(N + 1) = p/(p + q)
    p, q = N.numerator, N.denominator
    a1 = Signal(dist, ((0, (p - q, p)), (1, (q, p))))
    a2 = Signal(dist, ((1, (q, p + q)), (2, (p, p + q))))
    a3 = Signal.singleton(dist, 2)
    weights = (1 / (N + 1), (N - 1) / (N + 1), 1 / (N + 1))
    alternative = SignalingScheme(
        dist,
        tuple((a, w.as_integer_ratio()) for a, w in zip((a1, a2, a3), weights)),
    )
    # closed-form (mid, high) surpluses; the low class earns nothing
    denom = N**2 + 1
    optimal_cs = buyer_optimal.surpluses
    if optimal_cs[1:] != ((N - 1) / denom, (N + N**2) / denom):
        raise InvariantViolation("buyer-optimal surplus mismatch")
    alternative_cs = alternative.surpluses
    if alternative_cs[1:] != ((N**2 - 1) / denom, (N**2 - N) / denom):
        raise InvariantViolation("alternative surplus mismatch")
    ratio = min(c for c in alternative_cs if c > 0) / min(c for c in optimal_cs if c > 0)
    return BuyerOptimalLowerBound(dist, buyer_optimal, alternative, ratio)


class UniversalLowerBound(Record):
    """Three-value family forcing the majorization factor toward 3/2.

    ``best_min_surplus`` is the closed-form best minimum of the two upper
    classes' per-buyer surpluses over all schemes; epsilon is v_2 - 1.
    """

    dist: ValueDistribution
    best_min_surplus: Fraction


def universal_lb_instance(epsilon) -> UniversalLowerBound:
    eps = as_fraction(epsilon)
    if not 0 < eps <= Fraction(1, 100):
        raise MarketError(f"epsilon must lie in (0, 1/100], got {eps}")
    check_parameter_length(eps)
    values = (Fraction(1), 1 + eps, 2 + eps)
    f1 = eps**2 + 2 * eps
    f2 = 1 + (1 + eps) ** 2
    f3 = (1 + eps) + (1 + eps) ** 3
    total = f1 + f2 + f3
    dist = ValueDistribution(values, (f1 / total, f2 / total, f3 / total))
    y = (4 + 3 * eps + eps**2) / (2 + eps)
    return UniversalLowerBound(dist, y * eps / f2)
