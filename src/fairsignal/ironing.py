"""Ironing and smoothing: from the greedy decomposition to a monotone scheme.

The surplus step function of the greedy decomposition is ironed by taking
the lower convex envelope of its cumulative integral; the envelope's
derivative is a weakly increasing step function that agrees with the
original integral at every contact point.  Inside each ironing interval the
surplus excess above the ironed level is matched to the deficit below it by
equal-area rectangles, which drive a mass-reshuffling pass lifting every
poor class to at least half the ironed level.  A final thinning pass then
cuts every class down to exactly half the ironed level, yielding a monotone
efficient scheme.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .market import InvariantViolation, Record, ValueDistribution, pair_product, reduced_fraction
from .splitmatch import (
    BinarySignalEntry,
    DecomposedScheme,
    binary_shares,
    split_and_match,
)
from .steps import StepFunction, scheme_surplus


class IroningInterval(Record):
    """Maximal open interval where the envelope lies strictly below F."""

    left: Fraction
    right: Fraction
    level: Fraction
    classes: tuple[int, ...]


class IronedFunction(Record):
    """Envelope derivative per class, and the intervals where it is flat."""

    ironed_values: tuple[Fraction, ...]
    intervals: tuple[IroningInterval, ...]


def _lower_hull(points: Sequence[tuple[Fraction, Fraction]]) -> list[int]:
    """Indices of the points on the lower convex hull, collinear ones kept.

    ``points`` must have strictly increasing abscissae.  The returned
    indices are exactly the points that lie on the hull.  The cross
    products compare integers: each difference is an unreduced pair with a
    positive denominator, so clearing the denominators keeps the order.
    """
    pts = [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in points]
    hull: list[int] = []
    for k, (xn, xd, yn, yd) in enumerate(pts):
        while len(hull) >= 2:
            (xn0, xd0, yn0, yd0), (xn1, xd1, yn1, yd1) = pts[hull[-2]], pts[hull[-1]]
            # pop the middle point only when it lies strictly above the chord:
            # (y1 - y0) * (x - x1) > (y - y1) * (x1 - x0)
            rise0, run0 = yn1 * yd0 - yn0 * yd1, xn1 * xd0 - xn0 * xd1
            rise1, run1 = yn * yd1 - yn1 * yd, xn * xd1 - xn1 * xd
            if rise0 * run1 * (yd * xd0) > rise1 * run0 * (yd0 * xd):
                hull.pop()
            else:
                break
        hull.append(k)
    return hull


def iron(step: StepFunction) -> IronedFunction:
    """Monotone rewrite of the surplus function via the convex envelope.

    The cumulative integral F is piecewise linear with vertices at the
    class boundaries, so its lower convex envelope is attained on that
    vertex set and a single hull sweep computes it.  The derivative is
    constant on each ironing interval and equals the original surplus
    elsewhere; values at discontinuities are left limits.
    """
    xs = (Fraction(0),) + step.breakpoints
    ys = step.integrals
    contact = _lower_hull(list(zip(xs, ys)))
    intervals = []
    ironed = list(step.values)
    for a, b in zip(contact, contact[1:]):
        if b == a + 1:
            continue
        left, right = xs[a], xs[b]
        level = (ys[b] - ys[a]) / (right - left)
        classes = tuple(range(a, b))
        for i in classes:
            ironed[i] = level
        intervals.append(IroningInterval(left, right, level, classes))
    for lo, hi in zip(ironed, ironed[1:]):
        if lo > hi:
            raise InvariantViolation("ironed surplus must be weakly increasing")
    return IronedFunction(tuple(ironed), tuple(intervals))


class RectanglePair(Record):
    """Equal-area excess/deficit rectangles inside one ironing interval.

    The plus rectangle sits above the ironed level on a single class with
    surplus above it; the minus rectangle sits below the level, further
    right, on a class with surplus beneath it.
    """

    plus_index: int
    minus_index: int
    plus_left: Fraction
    plus_width: Fraction
    plus_height: Fraction
    minus_left: Fraction
    minus_width: Fraction
    minus_height: Fraction


def pair_rectangles(
    step: StepFunction, ironed: IronedFunction, t: int
) -> tuple[RectanglePair, ...]:
    """Sweep interval t left to right, matching excess area to deficit area.

    Each step takes the smaller of the two frontier rectangles' remaining
    areas, so one frontier advances per step and the total excess equals
    the total deficit exactly.
    """
    interval = ironed.intervals[t]
    level = interval.level
    edges = (Fraction(0),) + step.breakpoints
    plus = []
    minus = []
    for i in interval.classes:
        left, right = edges[i], edges[i + 1]
        cs = step.values[i]
        if cs > level:
            plus.append((i, left, right, cs - level))
        elif cs < level:
            minus.append((i, left, right, level - cs))
    pairs = []
    pp = pm = 0
    x_p = plus[0][1] if plus else None
    x_m = minus[0][1] if minus else None
    while pp < len(plus) and pm < len(minus):
        ip, _, right_p, h_p = plus[pp]
        im, _, right_m, h_m = minus[pm]
        area = min((right_p - x_p) * h_p, (right_m - x_m) * h_m)
        w_p = area / h_p
        w_m = area / h_m
        if x_p + w_p > x_m:
            raise InvariantViolation("excess rectangle must lie left of deficit")
        pairs.append(
            RectanglePair(ip, im, x_p, w_p, h_p, x_m, w_m, h_m)
        )
        x_p += w_p
        x_m += w_m
        if x_p == right_p:
            pp += 1
            x_p = plus[pp][1] if pp < len(plus) else None
        if x_m == right_m:
            pm += 1
            x_m = minus[pm][1] if pm < len(minus) else None
    if pp < len(plus) or pm < len(minus):
        raise InvariantViolation("excess and deficit areas must balance exactly")
    return tuple(pairs)


def _reweighted(
    binaries: Sequence[BinarySignalEntry], factors: Sequence[tuple[int, int]]
) -> tuple[BinarySignalEntry, ...]:
    """``binaries`` with weights scaled by their taker's factor, a reduced
    pair, zeros dropped."""
    out = []
    for b in binaries:
        cn, cd = factors[b.taker]
        if cn < 0:
            raise InvariantViolation("binary signal weight went negative")
        if cn > 0:
            w = b.weight
            weight = reduced_fraction(*pair_product(w.numerator, w.denominator, cn, cd))
            out.append(BinarySignalEntry(b.giver, b.taker, weight, b.shares))
    return tuple(out)


def smooth(
    scheme: DecomposedScheme,
    ironed: IronedFunction,
    pairings: Sequence[Sequence[RectanglePair]],
) -> DecomposedScheme:
    """Lift every class below half the ironed level up to at least half.

    For each rectangle pair whose deficit class earns less than half the
    level: scale down the binaries delivering taker mass to the deficit
    value, scale down the binaries feeding the excess value, and rebuild
    equal-revenue binaries from the freed givers onto the deficit value.
    Each cut is a share of a binary's original weight, so the shares are
    summed per taker class and applied once, after the pairs; the pair loop
    reads only the binaries indexed under its excess value, and each
    re-paired binary's shares are computed once, here.  The mass the
    binaries no longer use returns as singletons.  When no pair lifts a
    class there is no cut and no new binary, and ``scheme`` itself is
    handed on, with the sums it already holds.
    """
    dist = scheme.dist
    cut = [Fraction(0)] * dist.n  # share of each taker class's binaries removed
    by_taker: list[list[BinarySignalEntry]] = [[] for _ in range(dist.n)]
    for b in scheme.binaries:
        by_taker[b.taker].append(b)
    new_binaries: list[BinarySignalEntry] = []
    for interval, pairs in zip(ironed.intervals, pairings):
        level = interval.level
        for pair in pairs:
            if 2 * pair.minus_height <= level:
                continue
            vm = pair.minus_index
            vp = pair.plus_index
            cut[vm] += pair.minus_width / dist.masses[vm]
            excess_share = pair.plus_height / (level + pair.plus_height)
            giver_cut = pair.plus_width / dist.masses[vp] * excess_share
            cut[vp] += giver_cut
            for b in by_taker[vp]:
                # the giver mass freed from b, re-paired with the deficit value
                (fn, fd), _ = b.shares
                shares = binary_shares(dist, b.giver, vm)
                (gn, gd), _ = shares
                new_weight = b.weight * giver_cut * Fraction(fn * gd, fd * gn)
                new_binaries.append(BinarySignalEntry(b.giver, vm, new_weight, shares))
    if not any(cut):
        return scheme  # no pair lifted a class, so no binary was made either
    # 1 - n/d is (d - n)/d, in lowest terms when n/d is
    kept = [(c.denominator - c.numerator, c.denominator) for c in cut]
    survivors = _reweighted(scheme.binaries, kept)
    return DecomposedScheme(dist, survivors + tuple(new_binaries))


def finalize(scheme: DecomposedScheme, ironed: IronedFunction) -> DecomposedScheme:
    """Cut every class down to exactly half the ironed surplus.

    Classes above the half level lose the matching fraction of every binary
    signal in which they are the taker; the freed mass on the giver and
    taker values returns as singletons, which carry no surplus.
    """
    factors = []
    for cs, s in zip(scheme.surpluses, ironed.ironed_values):
        cn, cd, sn, sd = cs.numerator, cs.denominator, s.numerator, s.denominator
        if 2 * cn * sd < sn * cd:  # 2 * cs < s
            raise InvariantViolation("smoothed surplus fell below half the level")
        # s / (2 * cs); every binary pays its taker surplus, so none reads a 0
        factors.append(pair_product(sn, sd, *pair_product(cd, cn, 1, 2)) if cn else (0, 1))
    return DecomposedScheme(scheme.dist, _reweighted(scheme.binaries, factors))


class FairSchemeResult(Record):
    """All intermediate artifacts of the monotone-scheme pipeline."""

    base: DecomposedScheme
    ironed: IronedFunction
    pairings: tuple[tuple[RectanglePair, ...], ...]
    smoothed: DecomposedScheme
    final: DecomposedScheme


def monotone_fair_scheme(dist: ValueDistribution) -> FairSchemeResult:
    """Full pipeline: decompose, iron, smooth, and thin to half the level.

    The result is efficient and monotone with per-class surplus exactly
    half the ironed surplus.  Every stage is a `DecomposedScheme` built
    from its binaries alone, so its mixture matches the prior; when
    smoothing lifts no class, ``smoothed`` is ``base`` itself.
    """
    base = split_and_match(dist)
    step = scheme_surplus(base)
    ironed = iron(step)
    pairings = tuple(pair_rectangles(step, ironed, t) for t in range(len(ironed.intervals)))
    smoothed = smooth(base, ironed, pairings)
    final = finalize(smoothed, ironed)
    for cs, s in zip(final.surpluses, ironed.ironed_values):
        if 2 * cs.numerator * s.denominator != s.numerator * cs.denominator:  # 2 * cs != s
            raise InvariantViolation("final surplus must be half the ironed level")
    return FairSchemeResult(base, ironed, pairings, smoothed, final)
