"""Surplus profiles, their step functions on (0, 1], prefix sums,
majorization comparisons and welfare.

A surplus profile induces a step function mapping population quantiles to
expected surplus.  Two prefix sums drive all comparisons here: the plain
integral from 0, and the integral after rearranging segments in ascending
order (the least surplus any sub-population of a given mass can carry).
Both are piecewise linear in the mass argument, so a finite grid of
breakpoints certifies inequalities for every mass.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, groupby
from typing import Optional

from .market import (
    MarketError,
    Record,
    ValueDistribution,
    common_denominator,
    pair_product,
    pair_sum,
    reduced_fraction,
)

WELFARE_KINDS = ("utilitarian", "nash", "maxmin")


class StepFunction(Record):
    """Right-continuous-from-the-left step function on (0, 1].

    ``breakpoints`` are the right edges of the segments, strictly increasing
    and ending at exactly 1; ``values`` holds one non-negative value per
    segment.  ``integrals``, the integral over (0, b] at b = 0 and at every
    breakpoint b, is summed when built.
    """

    _derived = ("integrals",)
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    integrals: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.breakpoints:
            raise MarketError("step function needs at least one segment")
        if len(self.breakpoints) != len(self.values):
            raise MarketError("one value per segment required")
        pn, pd = 0, 1
        for b in self.breakpoints:  # b > prev, cross-multiplied
            if b.numerator * pd <= pn * b.denominator:
                raise MarketError("breakpoints must be strictly increasing")
            pn, pd = b.numerator, b.denominator
        if self.breakpoints[-1] != 1:
            raise MarketError("last breakpoint must be exactly 1")
        if any(v.numerator < 0 for v in self.values):
            raise MarketError("segment values must be non-negative")
        # summed on reduced pairs, each integral made a Fraction once
        integral, total, left = Fraction(0), (0, 1), Fraction(0)
        out = [integral]
        for b, v in zip(self.breakpoints, self.values):
            if v.numerator:  # a zero segment adds nothing
                width = pair_sum(b.numerator, b.denominator, -left.numerator, left.denominator)
                total = pair_sum(*total, *pair_product(v.numerator, v.denominator, *width))
                integral = reduced_fraction(*total)
            out.append(integral)
            left = b
        object.__setattr__(self, "integrals", tuple(out))

    @cached_property
    def lattice(self) -> Optional[tuple[int, tuple[int, ...]]]:
        """(D, keys): D the breakpoints' common denominator and keys[k] the
        integer D * breakpoints[k]; None if D would pass the input limit,
        where `common_denominator` gives it up."""
        den = common_denominator(b.denominator for b in self.breakpoints)
        if den is None:
            return None
        return den, tuple(b.numerator * (den // b.denominator) for b in self.breakpoints)

    @cached_property
    def non_decreasing(self) -> bool:
        """True iff no segment's value is below the one before it: such an
        f is its own ascending rearrangement."""
        values = self.values
        return all(a <= b for a, b in zip(values, values[1:]))

    @cached_property
    def ascending(self) -> "StepFunction":
        """Ascending rearrangement, one segment per distinct value.

        Segment indices are sorted by value (stably), the widths of each
        run of equal values summed, and the right edges accumulated.
        """
        breakpoints, values = self.breakpoints, self.values
        widths = [b - a for a, b in zip((0,) + breakpoints, breakpoints)]
        runs = groupby(sorted(range(len(values)), key=values.__getitem__), key=values.__getitem__)
        distinct, sums = zip(*((v, sum(widths[i] for i in run)) for v, run in runs))
        return StepFunction(tuple(accumulate(sums)), distinct)


class SurplusProfile(Record):
    """Per-value expected consumer surplus under some scheme, and its
    mass-weighted ``total``, the one the scheme summed (`scheme_surplus`)."""

    _compared = ("dist", "surpluses")
    dist: ValueDistribution
    surpluses: tuple[Fraction, ...]
    total: Fraction

    def __post_init__(self):
        if len(self.surpluses) != self.dist.n:
            raise MarketError("one surplus per value required")
        for cs in self.surpluses:
            if cs.numerator < 0:
                raise MarketError(f"surpluses must be non-negative, got {cs}")

    @cached_property
    def step_function(self) -> StepFunction:
        """Segment i spans value i's mass.  Built once, so that the
        profile's grid and its prefix sums share one set of integrals and
        one rearrangement."""
        return StepFunction(self.dist.cdf, self.surpluses)


def scheme_surplus(scheme) -> SurplusProfile:
    """Expected consumer surplus of each value class under a scheme or a
    pipeline stage, with its ``total_surplus``."""
    return SurplusProfile(scheme.dist, scheme.surpluses, scheme.total_surplus)


def is_monotone(profile: SurplusProfile) -> bool:
    """True iff expected surplus is non-decreasing in buyer value."""
    return all(a <= b for a, b in zip(profile.surpluses, profile.surpluses[1:]))


def profile_step_function(profile: SurplusProfile) -> StepFunction:
    """The step function of a surplus profile, its ``step_function``.  The
    package reads the property; this stays for `perfbench/tracing.py`,
    which imports it, and as a public name."""
    return profile.step_function


def integration_prefix(f: StepFunction, m: Fraction) -> Fraction:
    """Integral of f over (0, m].

    m * D is placed among the integer keys of ``f.lattice``: at a
    breakpoint the stored integral is returned, elsewhere the segment's
    value is interpolated from its left edge.  Past the lattice's limit
    the breakpoints themselves are bisected.
    """
    if not 0 < m.numerator <= m.denominator:
        raise MarketError(f"prefix mass {m} outside (0, 1]")
    if f.lattice is None:
        k = bisect_left(f.breakpoints, m)
    else:
        den, keys = f.lattice
        q, r = divmod(m.numerator * den, m.denominator)
        k = bisect_right(keys, q)  # keys below m * D, and q if r is 0
        if not r and k and keys[k - 1] == q:  # m is breakpoint k - 1
            return f.integrals[k]
    left = f.breakpoints[k - 1] if k else Fraction(0)
    return f.integrals[k] + f.values[k] * (m - left)


def sorted_prefix(f: StepFunction, m: Fraction) -> Fraction:
    """Integral over (0, m] after rearranging segments in ascending order.

    Equals the minimum total surplus carried by any measurable selection of
    mass m.  A non-decreasing f is its own rearrangement, so it is read
    as it stands and ``ascending`` is not built.
    """
    return integration_prefix(f if f.non_decreasing else f.ascending, m)


def sorted_breakpoints(f: StepFunction) -> tuple[Fraction, ...]:
    """Masses at which the ascending rearrangement changes value, and 1."""
    return f.ascending.breakpoints


def certification_grid(f: StepFunction) -> tuple[Fraction, ...]:
    """f's segment edges and sorted breakpoints, ascending.

    Both prefix sums of f are linear between consecutive grid points (and
    vanish at 0).  So on the `merged` grid of two step functions a ratio
    of their prefix sums is monotone on each cell, and its extremes over
    (0, 1] occur on the grid.  A non-decreasing f's sorted breakpoints are
    among its own edges, so its grid is its breakpoints and ``ascending``
    is not built.
    """
    if f.non_decreasing:
        return f.breakpoints
    return merged(f.breakpoints, sorted_breakpoints(f))


def merged(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Union of two strictly increasing tuples, strictly increasing:
    `heapq.merge` with equal neighbours collapsed, never a `set`, as
    hashing a Fraction costs a modular inverse."""
    return tuple(x for x, _ in groupby(heapq.merge(a, b)))


def evaluate_welfare(profile: SurplusProfile, kind: str) -> Fraction:
    """Welfare of the per-buyer surplus allocation, mass-weighted, exact.

    utilitarian: the profile's total.  nash and maxmin: 0, what the lowest
    class earns under every scheme, as each posted price is at least v_1.
    A profile whose lowest class earns more is refused with ValueError.
    """
    if kind not in WELFARE_KINDS:
        raise ValueError(f"unknown welfare kind {kind!r}")
    if kind == "utilitarian":
        return profile.total
    if profile.surpluses[0]:
        raise ValueError(f"{kind} welfare needs the lowest class to earn 0")
    return Fraction(0)
