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

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from fractions import Fraction
from typing import Optional, Union

from .market import MarketError, Record, SignalingScheme, ValueDistribution, common_denominator

WELFARE_KINDS = ("utilitarian", "nash", "maxmin")


class StepFunction(Record):
    """Right-continuous-from-the-left step function on (0, 1].

    ``breakpoints`` are the right edges of the segments, strictly increasing
    and ending at exactly 1; ``values`` holds one non-negative value per
    segment.  ``integrals``, the integral over (0, b] at b = 0 and at every
    breakpoint b, is summed when built unless its maker has it already.
    """

    _compared = ("breakpoints", "values")
    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]
    integrals: Optional[tuple[Fraction, ...]] = None

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
        for v in self.values:
            if v.numerator < 0:
                raise MarketError("segment values must be non-negative")
        if self.integrals is None:
            out = [Fraction(0)]
            left = Fraction(0)
            for right, value in zip(self.breakpoints, self.values):
                out.append(out[-1] + value * (right - left))
                left = right
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
    def ascending(self) -> "StepFunction":
        """Ascending rearrangement, one segment per distinct value.

        Segment indices are sorted by value (stably) and equal neighbours
        merged.  While the segments placed so far are exactly the first
        ones of f, their right edge is f's own breakpoint; only past a
        segment placed out of order is an edge summed from widths.  When
        f is already non-decreasing, every edge is f's breakpoint, and the
        rearrangement's integrals are f's stored ones at those edges.
        """
        breakpoints, values = self.breakpoints, self.values
        edges: list[Fraction] = []
        kept: list[int] = []  # the index in f of each edge's last segment
        distinct: list[Fraction] = []
        edge = Fraction(0)
        top = -1  # largest index placed so far
        in_order = True
        for placed, i in enumerate(sorted(range(len(values)), key=values.__getitem__)):
            top = max(top, i)
            in_order = in_order and i == placed
            if top == placed:
                edge = breakpoints[placed]
            else:
                edge += breakpoints[i] - (breakpoints[i - 1] if i else 0)
            if distinct and values[i] == distinct[-1]:
                edges[-1] = edge
                kept[-1] = i
            else:
                edges.append(edge)
                kept.append(i)
                distinct.append(values[i])
        integrals = None
        if in_order:  # each edge is f's breakpoint kept[k], with f's integral there
            integrals = (self.integrals[0],) + tuple(self.integrals[k + 1] for k in kept)
        return StepFunction(tuple(edges), tuple(distinct), integrals)


class SurplusProfile(Record):
    """Per-value expected consumer surplus under some scheme, and its
    mass-weighted ``total`` when the scheme has summed one: a
    `SignalingScheme` has, a pipeline stage has not."""

    _compared = ("dist", "surpluses")
    dist: ValueDistribution
    surpluses: tuple[Fraction, ...]
    total: Optional[Fraction] = None

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
    pipeline stage, with a `SignalingScheme`'s ``total_surplus``."""
    total = scheme.total_surplus if isinstance(scheme, SignalingScheme) else None
    return SurplusProfile(scheme.dist, scheme.surpluses, total)


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
    mass m.
    """
    return integration_prefix(f.ascending, m)


def sorted_breakpoints(f: StepFunction) -> tuple[Fraction, ...]:
    """Masses at which the ascending rearrangement changes value."""
    return f.ascending.breakpoints


def certification_grid(*fs: StepFunction) -> tuple[Fraction, ...]:
    """Segment edges and sorted breakpoints of every f, ascending.

    Every prefix sum of every f is linear between consecutive grid points
    (and vanishes at 0), so a ratio of two of them is monotone on each cell
    and its extremes over (0, 1] occur on this grid.  The strictly
    increasing tuples are merged by comparison, as hashing a Fraction costs
    a modular inverse.
    """
    grid: tuple[Fraction, ...] = ()
    for f in fs:
        for edges in (f.breakpoints, sorted_breakpoints(f)):
            grid = _merged(grid, edges)
    return grid


def _merged(a: tuple[Fraction, ...], b: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Union of two strictly increasing tuples, strictly increasing."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            i += 1
        else:
            out.append(y)
            j += 1
    out += a[i:]
    out += b[j:]
    return tuple(out)


def evaluate_welfare(profile: SurplusProfile, kind: str) -> Union[Fraction, float]:
    """Welfare of the per-buyer surplus allocation, mass-weighted.

    utilitarian: the profile's total (exact); maxmin: minimum over value classes
    (exact); nash: weighted geometric mean, in floating point via logs; 0 if
    some class earns nothing, inf if the mean passes the float range.
    """
    if kind not in WELFARE_KINDS:
        raise ValueError(f"unknown welfare kind {kind!r}")
    if kind == "utilitarian":
        if profile.total is None:
            raise ValueError("utilitarian welfare needs the profile's total")
        return profile.total
    masses = profile.dist.masses
    surpluses = profile.surpluses
    if kind == "maxmin":
        return min(surpluses)
    if any(not cs.numerator for cs in surpluses):
        return 0.0
    # logs of numerator and denominator: math.log takes ints of any size
    logs = (math.log(cs.numerator) - math.log(cs.denominator) for cs in surpluses)
    try:
        return math.exp(sum(float(f) * x for f, x in zip(masses, logs)))
    except OverflowError:  # the mean itself lies past the float range
        return math.inf
