"""Prefix sums, majorization ratios, welfare functions."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsignal import market
from fairsignal.cli import certify
from fairsignal.ironing import monotone_fair_scheme
from fairsignal.market import ValueDistribution
from fairsignal.splitmatch import split_and_match
from fairsignal.steps import (
    StepFunction,
    SurplusProfile,
    certification_grid,
    evaluate_welfare,
    integration_prefix,
    profile_step_function,
    scheme_surplus,
    sorted_breakpoints,
    sorted_prefix,
)

from conftest import perfbench_module, structured_priors

F = Fraction


def alpha_against(f1: StepFunction, f2: StepFunction):
    """Smallest alpha with alpha * PF(f1, m) >= PF(f2, m) for every mass m."""
    grid = certification_grid(f1, f2)
    _, alpha = certify(f1, grid, [sorted_prefix(f2, m) for m in grid])
    return alpha


def quartile_step(values) -> StepFunction:
    n = len(values)
    return StepFunction(
        tuple(F(i + 1, n) for i in range(n)), tuple(F(v) for v in values)
    )


@pytest.fixture
def nonmonotone_step(running_example, nonmonotone_scheme):
    return profile_step_function(scheme_surplus(nonmonotone_scheme))


@pytest.fixture
def monotone_step(running_example, monotone_scheme):
    return profile_step_function(scheme_surplus(monotone_scheme))


class TestIntegrationPrefix:
    def test_three_quarters_of_reference(self, nonmonotone_step):
        # first three segments are also the three smallest values
        assert integration_prefix(nonmonotone_step, F(3, 4)) == F(1, 4)

    def test_full_mass_is_total(self, nonmonotone_step):
        total = sum(F(1, 4) * v for v in (F(0), F(3, 5), F(2, 5), F(3)))
        assert integration_prefix(nonmonotone_step, F(1)) == total

    def test_greedy_decomposition_prefixes(self):
        step = quartile_step([0, F(1, 2), 1, F(1, 2)])
        assert integration_prefix(step, F(1, 2)) == F(1, 8)
        assert integration_prefix(step, F(3, 4)) == F(3, 8)
        assert integration_prefix(step, F(1)) == F(1, 2)

    def test_rejects_out_of_range(self, nonmonotone_step):
        for m in (F(0), F(-1, 2), F(3, 2)):
            with pytest.raises(Exception):
                integration_prefix(nonmonotone_step, m)


class TestSortedPrefix:
    def test_reference_half_masses(self, nonmonotone_step, monotone_step):
        assert sorted_prefix(monotone_step, F(1, 2)) == F(1, 28)
        assert sorted_prefix(nonmonotone_step, F(1, 2)) == F(1, 10)

    def test_reference_three_quarters(self, nonmonotone_step, monotone_step):
        assert sorted_prefix(nonmonotone_step, F(3, 4)) == F(1, 4)
        assert sorted_prefix(monotone_step, F(3, 4)) == F(11, 28)

    def test_constant_function(self):
        step = StepFunction((F(1),), (F(7, 3),))
        for m in (F(1, 5), F(1, 2), F(1)):
            assert sorted_prefix(step, m) == F(7, 3) * m


class TestAlphaBetween:
    def test_identical_functions(self, nonmonotone_step):
        assert alpha_against(nonmonotone_step, nonmonotone_step) == F(1)

    def test_neither_reference_majorizes_the_other(
        self, nonmonotone_step, monotone_step
    ):
        assert alpha_against(nonmonotone_step, monotone_step) > 1
        assert alpha_against(monotone_step, nonmonotone_step) > 1

    def test_pointwise_doubling(self):
        f2 = quartile_step([1, 2, 3, 4])
        f1 = quartile_step([2, 4, 6, 8])
        assert alpha_against(f1, f2) == F(1, 2)
        assert alpha_against(f2, f1) == F(2)

    def test_infinite_when_uncovered(self):
        zero = quartile_step([0, 0, 0, 0])
        pos = quartile_step([1, 1, 1, 1])
        assert alpha_against(zero, pos) == math.inf
        assert alpha_against(pos, zero) == F(0)


class TestWelfare:
    def test_single_winner_profile(self, running_example):
        profile = SurplusProfile(running_example, (F(0), F(0), F(0), F(1)), F(1, 4))
        assert evaluate_welfare(profile, "utilitarian") == F(1, 4)
        assert evaluate_welfare(profile, "maxmin") == F(0)
        assert evaluate_welfare(profile, "nash") == 0.0

    def test_reference_totals(self, nonmonotone_scheme, monotone_scheme):
        for scheme in (nonmonotone_scheme, monotone_scheme):
            profile = scheme_surplus(scheme)
            assert evaluate_welfare(profile, "utilitarian") == F(1)

    def test_nash_weighted_geometric_mean(self, running_example):
        profile = SurplusProfile(running_example, (F(1), F(2), F(3), F(4)))
        expected = (1 * 2 * 3 * 4) ** 0.25
        assert evaluate_welfare(profile, "nash") == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize(
        "surpluses, expected",
        [
            # each surplus lies past the float range, which float() would
            # round to 0 or refuse; their weighted logs still fit
            ((F(1, 10**400), F(10**400)), 1.0),
            ((F(1, 10**400), F(1, 10**400)), 0.0),
            ((F(10**400), F(10**400)), math.inf),
            # the lower surplus fits a float, the higher and their mean do not
            ((F(10**300), F(10**320)), math.inf),
        ],
    )
    def test_nash_past_the_float_range(self, surpluses, expected):
        dist = ValueDistribution.from_pairs([1, 2], ["1/2", "1/2"])
        assert evaluate_welfare(SurplusProfile(dist, surpluses), "nash") == expected

    def test_unknown_kind_rejected(self, running_example):
        profile = SurplusProfile(running_example, (F(1),) * 4)
        with pytest.raises(ValueError):
            evaluate_welfare(profile, "rawlsian")

    def test_utilitarian_needs_a_total(self, running_example):
        # a pipeline stage's profile carries no total; its scheme's does
        stage = split_and_match(running_example)
        with pytest.raises(ValueError, match="needs the profile's total"):
            evaluate_welfare(scheme_surplus(stage), "utilitarian")
        scheme = stage.to_signaling_scheme()
        assert evaluate_welfare(scheme_surplus(scheme), "utilitarian") == scheme.total_surplus


# hypothesis strategies for small exact step functions

segment_values = st.fractions(min_value=0, max_value=10, max_denominator=6)


# a small pool makes repeated and zero values common
pooled_values = st.one_of(
    st.sampled_from([F(0), F(1, 3), F(1), F(5, 2)]), segment_values
)


@st.composite
def step_functions(draw, max_segments=6, value_strategy=segment_values):
    k = draw(st.integers(min_value=1, max_value=max_segments))
    widths = [draw(st.integers(min_value=1, max_value=5)) for _ in range(k)]
    total = sum(widths)
    values = [draw(value_strategy) for _ in range(k)]
    breaks = []
    acc = 0
    for w in widths:
        acc += w
        breaks.append(F(acc, total))
    return StepFunction(tuple(breaks), tuple(values))


@st.composite
def masses(draw):
    return draw(
        st.fractions(min_value=F(1, 64), max_value=1, max_denominator=64)
    )


class TestStepFunctionProperties:
    @given(step_functions(), masses())
    @settings(max_examples=200, deadline=None)
    def test_sorting_only_lowers_prefixes(self, f, m):
        assert sorted_prefix(f, m) <= integration_prefix(f, m)

    @given(step_functions())
    @settings(max_examples=100, deadline=None)
    def test_sorted_prefix_convex_nondecreasing(self, f):
        # ascending rearrangement integrates to a convex function of mass
        grid = sorted(set(sorted_breakpoints(f)) | {F(1, 97), F(1, 3)})
        vals = [sorted_prefix(f, m) for m in grid]
        for a, b in zip(vals, vals[1:]):
            assert a <= b
        slopes = [
            (v1 - v0) / (m1 - m0)
            for (m0, v0), (m1, v1) in zip(zip(grid, vals), zip(grid[1:], vals[1:]))
        ]
        for s0, s1 in zip(slopes, slopes[1:]):
            assert s0 <= s1

    @given(step_functions(), masses())
    @settings(max_examples=150, deadline=None)
    def test_monotone_functions_are_already_sorted(self, f, m):
        ordered = StepFunction(f.breakpoints, tuple(sorted(f.values)))
        assert sorted_prefix(ordered, m) == integration_prefix(ordered, m)

    @given(step_functions(), step_functions())
    @settings(max_examples=100, deadline=None)
    def test_alpha_certifies_domination_on_fine_grid(self, f1, f2):
        alpha = alpha_against(f1, f2)
        if alpha == math.inf:
            return
        for k in range(1, 20):
            m = F(k, 19)
            assert alpha * sorted_prefix(f1, m) >= sorted_prefix(f2, m)


# Reference oracle: the left-to-right walks over the segments, as the prefix
# sums were computed before they read StepFunction.integrals and .ascending.


def walk_integration_prefix(f: StepFunction, m: Fraction) -> Fraction:
    total = F(0)
    left = F(0)
    for right, value in zip(f.breakpoints, f.values):
        if m <= left:
            break
        total += value * (min(m, right) - left)
        left = right
    return total


def reference_ascending(f: StepFunction) -> StepFunction:
    """The ascending rearrangement as StepFunction.ascending built it before
    it sorted segment indices: each distinct value's widths summed in a
    dict keyed by the value, then the values sorted."""
    widths: dict[Fraction, Fraction] = {}
    left = F(0)
    for right, value in zip(f.breakpoints, f.values):
        widths[value] = widths.get(value, F(0)) + (right - left)
        left = right
    values = sorted(widths)
    edges = []
    acc = F(0)
    for v in values:
        acc += widths[v]
        edges.append(acc)
    return StepFunction(tuple(edges), tuple(values))


def segments(f: StepFunction) -> list[tuple[Fraction, Fraction]]:
    """(width, value) of each segment of f, left to right."""
    lefts = (F(0),) + f.breakpoints[:-1]
    return [(right - left, v) for left, right, v in zip(lefts, f.breakpoints, f.values)]


def walk_ascending_segments(f: StepFunction) -> list[tuple[Fraction, Fraction]]:
    """(width, value) pairs sorted by value ascending, equal values merged."""
    return segments(reference_ascending(f))


def walk_sorted_prefix(f: StepFunction, m: Fraction) -> Fraction:
    total = F(0)
    remaining = m
    for width, value in walk_ascending_segments(f):
        take = min(width, remaining)
        total += take * value
        remaining -= take
        if remaining == 0:
            break
    return total


def walk_sorted_breakpoints(f: StepFunction) -> tuple[Fraction, ...]:
    out = []
    acc = F(0)
    for width, _ in walk_ascending_segments(f):
        acc += width
        out.append(acc)
    return tuple(out)


def walk_prefixes(segs, masses):
    """Integral over (0, m] of the (width, value) segments laid end to end
    from 0, at each of the ascending masses: one walk for all of them."""
    out = []
    done = left = F(0)  # the integral over the segments passed, their right edge
    k = 0
    for m in masses:
        while left + segs[k][0] < m:
            done += segs[k][0] * segs[k][1]
            left += segs[k][0]
            k += 1
        out.append(done + (m - left) * segs[k][1])
    return out


def probe_masses(f: StepFunction) -> list[Fraction]:
    """Every breakpoint and sorted breakpoint, the midpoints between them,
    and masses just off each one, inside (0, 1]."""
    edges = sorted({F(0)} | set(f.breakpoints) | set(walk_sorted_breakpoints(f)))
    eps = F(1, 10**9)
    out = set(edges[1:])
    out |= {(a + b) / 2 for a, b in zip(edges, edges[1:])}
    out |= {b - eps for b in edges[1:]} | {b + eps for b in edges}
    return sorted(m for m in out if 0 < m <= 1)


class TestCertificationGrid:
    @given(st.lists(step_functions(value_strategy=pooled_values), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_sorted_union(self, fs):
        edges = set()
        for f in fs:
            edges |= set(f.breakpoints) | set(walk_sorted_breakpoints(f))
        assert certification_grid(*fs) == tuple(sorted(edges))

    def test_one_step_function_per_profile(self, nonmonotone_scheme):
        # a profile's grid and its prefix sums share one set of integrals
        profile = scheme_surplus(nonmonotone_scheme)
        assert profile_step_function(profile) is profile_step_function(profile)


class TestPrefixOracle:
    @given(step_functions(max_segments=40, value_strategy=pooled_values))
    @settings(max_examples=60, deadline=None)
    def test_prefixes_equal_segment_walks(self, f):
        assert sorted_breakpoints(f) == walk_sorted_breakpoints(f)
        for m in probe_masses(f):
            assert integration_prefix(f, m) == walk_integration_prefix(f, m)
            assert sorted_prefix(f, m) == walk_sorted_prefix(f, m)

    # off the breakpoints' lattice: masses a third of a lattice step away
    # from every grid mass, on either side

    @staticmethod
    def masses_around(grid):
        den = math.lcm(*(m.denominator for m in grid))
        off = {m + step for m in grid for step in (F(-1, 3 * den), F(1, 3 * den))}
        return sorted(set(grid) | {m for m in off if 0 < m <= 1})

    def check_grid(self, f: StepFunction):
        """Both prefixes at every grid mass and next to it, against one
        segment walk over the masses in ascending order."""
        masses = self.masses_around(certification_grid(f))
        assert [integration_prefix(f, m) for m in masses] == walk_prefixes(segments(f), masses)
        assert [sorted_prefix(f, m) for m in masses] == walk_prefixes(
            walk_ascending_segments(f), masses
        )

    def check_profiles(self, dist: ValueDistribution):
        result = monotone_fair_scheme(dist)
        for stage in (result.base, result.final):  # the splitmatch and final profiles
            self.check_grid(profile_step_function(scheme_surplus(stage)))

    def test_corpus(self, corpus):
        for dist in corpus:
            self.check_profiles(dist)

    @given(structured_priors(max_n=24))
    @settings(max_examples=25, deadline=None)
    def test_structured_priors(self, case):
        self.check_profiles(case[1])

    @pytest.mark.parametrize("family", perfbench_module("instances").FAMILIES)
    def test_benchmark_scale(self, family):
        # the instances of test_accounting.py's test_benchmark_scale
        rng = random.Random(5)
        payload = perfbench_module("instances").make_instance(family, rng.randint(128, 256), rng)
        self.check_profiles(ValueDistribution.from_pairs(payload["values"], payload["masses"]))

    def test_denominator_past_the_limit_is_never_built(self, monkeypatch):
        # three pairwise coprime denominators of about 200,000 bits: their
        # common denominator passes the input limit at the second, and the
        # third is never folded in
        big = 2**200_000
        f = StepFunction((F(1, big + 3), F(1, big + 1), F(1, big - 1), F(1)), (F(0),) * 4)
        built = []
        lcm = math.lcm

        def recorded(*args):
            out = lcm(*args)
            built.append(out.bit_length())
            return out

        monkeypatch.setattr(math, "lcm", recorded)
        assert f.lattice is None
        assert max(built) <= 2 * 200_001

    @given(step_functions(max_segments=12, value_strategy=pooled_values))
    @settings(max_examples=60, deadline=None)
    def test_bisection_past_the_limit_equals_segment_walks(self, f):
        # with the limit at 0 bits no common denominator but 1 fits, so
        # every mass is placed by bisecting the breakpoints themselves
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(market, "_MAX_RATIONAL_BITS", 0)
            assert (f.lattice is None) == (len(f.breakpoints) > 1)
            for m in probe_masses(f):
                assert integration_prefix(f, m) == walk_integration_prefix(f, m)
                assert sorted_prefix(f, m) == walk_sorted_prefix(f, m)


class TestAscending:
    @staticmethod
    def check_integrals(dist: ValueDistribution):
        """The rearrangement's integrals equal those summed afresh; for the
        final (non-decreasing) profile they are f's own objects, handed on
        rather than summed again."""
        result = monotone_fair_scheme(dist)
        for stage in (result.base, result.final):
            f = profile_step_function(scheme_surplus(stage))
            a = f.ascending
            assert a.integrals == StepFunction(a.breakpoints, a.values).integrals
        own = {id(x) for x in f.integrals}  # f is the final stage's
        assert all(id(x) in own for x in a.integrals)

    def test_integrals_corpus(self, corpus):
        for dist in corpus:
            self.check_integrals(dist)

    @given(structured_priors())
    @settings(max_examples=25, deadline=None)
    def test_integrals_structured_priors(self, case):
        self.check_integrals(case[1])

    @given(
        step_functions(max_segments=12, value_strategy=pooled_values),
        st.sampled_from(["as drawn", "non-decreasing", "non-increasing"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_dict_keyed_reference(self, f, order):
        # pooled values make ties common, so equal neighbours must merge
        if order != "as drawn":
            values = sorted(f.values, reverse=order == "non-increasing")
            f = StepFunction(f.breakpoints, tuple(values))
        assert f.ascending == reference_ascending(f)
