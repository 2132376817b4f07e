"""Exact LP oracles over canonical schemes, and hard instance families.

Any scheme can be rewritten, surplus for surplus, into at most n signals
with pairwise-distinct lowest supports, each posting its lowest support.
Optimizing over that canonical polytope therefore optimizes over all
schemes.  The LPs carry no column for the mass of value i in the signal
priced at v_i: the prior fixes it as f_i less the mass of value i priced
lower.  The origin is then full revelation, a feasible vertex, and the
simplex starts there without phase 1.  The adversary here maximizes the
sorted prefix sum at a given mass, which certifies approximate
majorization; the buyer-optimal baseline needs no LP (see
`market.buyer_optimal_scheme`).  The max-min surplus LP and the two
three-value instance families pin down the lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lp import GE, LE, LinearProgram, solve_lp
from .market import (
    InvariantViolation,
    MarketError,
    Signal,
    SignalingScheme,
    SurplusProfile,
    ValueDistribution,
    as_fraction,
)
from .steps import certification_grid, profile_step_function

DEFAULT_MAX_N = 8


def _canonical_columns(n: int) -> list[tuple[int, int]]:
    """Column order for x[k][i]: mass of value i priced at a lower value k < i.

    The diagonal x[i][i] has no column: it is whatever of f_i the other
    signals leave, ``f_i - sum_{k<i} x[k][i]``.  The origin is therefore
    full revelation, a feasible vertex, and every constraint row is a
    ``<=`` row with a non-negative right-hand side once normalized.
    """
    return [(k, i) for k in range(n) for i in range(k + 1, n)]


def _add_canonical_constraints(
    lp: LinearProgram, dist: ValueDistribution, col: dict[tuple[int, int], int]
) -> None:
    n = dist.n
    width = lp.n_vars
    values = dist.values
    for i in range(1, n):  # the diagonal x[i][i] stays non-negative
        coeffs = [Fraction(0)] * width
        for k in range(i):
            coeffs[col[(k, i)]] = Fraction(1)
        lp.add(coeffs, LE, dist.masses[i])
    for k in range(n):
        # revenue of signal k at v_k beats v_j; x[k][k] enters through f_k
        for j in range(k + 1, n):
            coeffs = [Fraction(0)] * width
            for i in range(k + 1, n):
                coeffs[col[(k, i)]] = values[k] - (values[j] if i >= j else 0)
            for lower in range(k):
                coeffs[col[(lower, k)]] = -values[k]
            lp.add(coeffs, GE, -values[k] * dist.masses[k])


def _scheme_from_point(
    dist: ValueDistribution,
    point: Sequence[Fraction],
    col: dict[tuple[int, int], int],
) -> SignalingScheme:
    entries = []
    for k in range(dist.n):
        diagonal = dist.masses[k] - sum(
            (point[col[(lower, k)]] for lower in range(k)), Fraction(0)
        )
        masses = {k: diagonal} if diagonal > 0 else {}
        for i in range(k + 1, dist.n):
            if point[col[(k, i)]] > 0:
                masses[i] = point[col[(k, i)]]
        weight = sum(masses.values(), Fraction(0))
        if weight == 0:
            continue
        signal = Signal(
            dist, tuple((i, m / weight) for i, m in sorted(masses.items()))
        )
        entries.append((signal, weight))
    return SignalingScheme(dist, tuple(entries))


def check_adversary_support(dist: ValueDistribution, max_support: int) -> None:
    """Refuse an instance too large for the O(n^2)-column adversary LP."""
    if dist.n > max_support:
        raise MarketError(
            f"adversary oracle limited to {max_support} values; got {dist.n} "
            "(override with --max-support or max_support=)"
        )


def adversary_sorted_prefix(
    dist: ValueDistribution,
    m: Fraction,
    max_support: int = DEFAULT_MAX_N,
) -> tuple[Fraction, SignalingScheme]:
    """Largest sorted m-prefix sum any scheme can achieve, with a witness.

    The inner minimum over mass-m selections is dualized (multiplier for
    the total-mass constraint, one non-negative multiplier per capacity),
    so a single LP maximizes over canonical schemes and selections jointly.
    """
    if not 0 < m <= 1:
        raise MarketError(f"prefix mass {m} outside (0, 1]")
    check_adversary_support(dist, max_support)
    n = dist.n
    cols = _canonical_columns(n)
    col = {kc: idx for idx, kc in enumerate(cols)}
    nu0 = len(cols)
    lam = nu0 + n
    width = lam + 1
    objective = [Fraction(0)] * width
    for i in range(n):
        objective[nu0 + i] = -dist.masses[i]
    objective[lam] = m
    lp = LinearProgram(objective=tuple(objective), free=frozenset({lam}))
    _add_canonical_constraints(lp, dist, col)
    for i in range(n):
        coeffs = [Fraction(0)] * width
        coeffs[lam] = dist.masses[i]
        coeffs[nu0 + i] = -dist.masses[i]
        for k in range(i):
            coeffs[col[(k, i)]] = -(dist.values[i] - dist.values[k])
        lp.add(coeffs, LE, Fraction(0))
    result = solve_lp(lp)
    if result.status != "optimal":
        raise InvariantViolation(f"adversary LP returned {result.status}")
    return result.value, _scheme_from_point(dist, result.point, col)


def adversary_grid(profile: SurplusProfile) -> tuple[Fraction, ...]:
    """Masses at which a scheme's majorization factor is certified.

    The profile's segment edges and sorted breakpoints: both prefix sums of
    the scheme are linear on each cell.  The adversary's optimum is convex
    in m (a maximum of functions linear in m), so adversary <= alpha * PF
    at both ends of a cell holds on the whole cell.
    """
    return certification_grid(profile_step_function(profile))


@dataclass(frozen=True)
class MaxMinSurplusResult:
    value: Fraction
    point: dict[str, Fraction]


def max_min_surplus_lp(
    values: Sequence[Fraction], masses: Sequence[Fraction]
) -> MaxMinSurplusResult:
    """Best possible minimum surplus over three-value canonical schemes.

    ``masses`` need not be normalized; surpluses are per buyer, so scaling
    the population leaves the optimum unchanged.  Signal masses are
    (x, y, z) priced at v1, (0, y', z') priced at v2 and (0, 0, z'') priced
    at v3.
    """
    if len(values) != 3 or len(masses) != 3:
        raise MarketError("exactly three values required")
    v1, v2, v3 = (as_fraction(v) for v in values)
    f1, f2, f3 = (as_fraction(f) for f in masses)
    if not v1 < v2 < v3 or v1 <= 0:
        raise MarketError("values must be positive and strictly increasing")
    if f1 < 0 or f2 <= 0 or f3 <= 0:
        # surpluses divide by f2 and f3; the low-value mass may vanish
        raise MarketError("masses must be positive (low value may be zero)")
    names = ("x", "y", "z", "yp", "zp", "zpp", "smin")
    X, Y, Z, YP, ZP, ZPP, SMIN = range(7)
    zeros = [Fraction(0)] * 7

    def row(**entries: Fraction) -> tuple[Fraction, ...]:
        out = list(zeros)
        for name, val in entries.items():
            out[names.index(name)] = val
        return tuple(out)

    objective = row(smin=Fraction(1))
    lp = LinearProgram(objective=objective)
    lp.add(row(y=v2 - v1, smin=-f2), GE, Fraction(0))
    lp.add(row(z=v3 - v1, zp=v3 - v2, smin=-f3), GE, Fraction(0))
    lp.add(row(x=v1, y=v1 - v2, z=v1 - v2), GE, Fraction(0))
    lp.add(row(x=v1, y=v1, z=v1 - v3), GE, Fraction(0))
    lp.add(row(yp=v2, zp=v2 - v3), GE, Fraction(0))
    lp.add(row(x=Fraction(1)), LE, f1)
    lp.add(row(y=Fraction(1), yp=Fraction(1)), LE, f2)
    lp.add(row(z=Fraction(1), zp=Fraction(1), zpp=Fraction(1)), LE, f3)
    result = solve_lp(lp)
    if result.status != "optimal":
        raise InvariantViolation(f"max-min LP returned {result.status}")
    point = {name: result.point[i] for i, name in enumerate(names)}
    return MaxMinSurplusResult(result.value, point)


@dataclass(frozen=True)
class BuyerOptimalLowerBound:
    """Three-value family where buyer optimality forbids fair splits.

    The unique buyer-optimal canonical scheme starves the middle value
    class, while an alternative scheme pays it N times more, so no
    buyer-optimal scheme is alpha-majorized for alpha < N.
    """

    parameter: Fraction
    dist: ValueDistribution
    buyer_optimal: SignalingScheme
    alternative: SignalingScheme
    cs_mid_optimal: Fraction
    cs_high_optimal: Fraction
    cs_mid_alternative: Fraction
    cs_high_alternative: Fraction
    ratio: Fraction


def buyer_optimal_lb_instance(parameter) -> BuyerOptimalLowerBound:
    N = as_fraction(parameter)
    if N <= 1:
        raise MarketError(f"parameter must exceed 1, got {N}")
    total = N**3 + 2 * N**2 + N
    dist = ValueDistribution(
        values=(Fraction(1), N, N + 1),
        masses=((N**2 - 1) / total, (N**2 + 1) / total, (N**3 + N) / total),
    )
    s1 = Signal(
        dist,
        (
            (0, (N**2 - 1) / (N**2 + N)),
            (1, Fraction(1) / (N**2 + N)),
            (2, N / (N**2 + N)),
        ),
    )
    s2 = Signal(dist, ((1, Fraction(1) / (N + 1)), (2, N / (N + 1))))
    buyer_optimal = SignalingScheme(
        dist, ((s1, Fraction(1) / (N + 1)), (s2, N / (N + 1)))
    )
    a1 = Signal(
        dist, ((0, (N**2 - 1) / (N**2 + N)), (1, (N + 1) / (N**2 + N)))
    )
    a2 = Signal(dist, ((1, Fraction(1) / (N + 1)), (2, N / (N + 1))))
    a3 = Signal.singleton(dist, 2)
    alternative = SignalingScheme(
        dist,
        (
            (a1, Fraction(1) / (N + 1)),
            (a2, (N - 1) / (N + 1)),
            (a3, Fraction(1) / (N + 1)),
        ),
    )
    denom = N**2 + 1
    return BuyerOptimalLowerBound(
        parameter=N,
        dist=dist,
        buyer_optimal=buyer_optimal,
        alternative=alternative,
        cs_mid_optimal=(N - 1) / denom,
        cs_high_optimal=(N + N**2) / denom,
        cs_mid_alternative=(N**2 - 1) / denom,
        cs_high_alternative=(N**2 - N) / denom,
        ratio=N,
    )


@dataclass(frozen=True)
class UniversalLowerBound:
    """Three-value family forcing the majorization factor toward 3/2."""

    epsilon: Fraction
    values: tuple[Fraction, Fraction, Fraction]
    raw_masses: tuple[Fraction, Fraction, Fraction]
    dist: ValueDistribution
    best_min_surplus: Fraction
    optimal_point: dict[str, Fraction]


def universal_lb_instance(epsilon) -> UniversalLowerBound:
    eps = as_fraction(epsilon)
    if not 0 < eps < 1:
        raise MarketError(f"epsilon must lie in (0, 1), got {eps}")
    values = (Fraction(1), 1 + eps, 2 + eps)
    f1 = eps**2 + 2 * eps
    f2 = 1 + (1 + eps) ** 2
    f3 = (1 + eps) + (1 + eps) ** 3
    total = f1 + f2 + f3
    dist = ValueDistribution(values, (f1 / total, f2 / total, f3 / total))
    y = (4 + 3 * eps + eps**2) / (2 + eps)
    yp = f2 - y
    point = {
        "x": f1,
        "y": y,
        "z": eps / (2 + eps),
        "yp": yp,
        "zp": yp * (1 + eps),
        "zpp": f3 - eps / (2 + eps) - yp * (1 + eps),
        "smin": y * eps / f2,
    }
    return UniversalLowerBound(
        epsilon=eps,
        values=values,
        raw_masses=(f1, f2, f3),
        dist=dist,
        best_min_surplus=y * eps / f2,
        optimal_point=point,
    )
