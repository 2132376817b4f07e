"""Prefix sums, majorization ratios, welfare functions."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsignal import market
from fairsignal.cli import SCHEME_KINDS, build_named_scheme
from fairsignal.ironing import monotone_fair_scheme
from fairsignal.market import MarketError, SignalingScheme, ValueDistribution
from fairsignal.splitmatch import split_and_match
from fairsignal.steps import (
    StepFunction,
    SurplusProfile,
    certification_grid,
    evaluate_welfare,
    integration_prefix,
    merged,
    profile_step_function,
    scheme_surplus,
    sorted_breakpoints,
    sorted_prefix,
)

from conftest import alpha_against, hand_profile, perfbench_module, structured_priors

F = Fraction


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


def assert_exact_zero(welfare) -> None:
    assert type(welfare) is Fraction and welfare == 0


class TestWelfare:
    def test_single_winner_profile(self, running_example):
        profile = SurplusProfile(running_example, (F(0), F(0), F(0), F(1)), F(1, 4))
        assert evaluate_welfare(profile, "utilitarian") == F(1, 4)
        assert_exact_zero(evaluate_welfare(profile, "maxmin"))
        assert_exact_zero(evaluate_welfare(profile, "nash"))

    def test_reference_totals(self, nonmonotone_scheme, monotone_scheme):
        for scheme in (nonmonotone_scheme, monotone_scheme):
            profile = scheme_surplus(scheme)
            assert evaluate_welfare(profile, "utilitarian") == F(1)

    @pytest.mark.parametrize(
        "surpluses",
        [
            (F(1), F(2)),
            (F(1, 3), F(1, 3)),
            # surpluses past the float range
            (F(1, 10**400), F(10**400)),
            (F(1, 10**400), F(1, 10**400)),
            (F(10**400), F(10**400)),
            (F(10**300), F(10**320)),
            # a zero class above the lowest one does not count
            (F(1), F(0)),
        ],
    )
    def test_nash_needs_a_zero_class(self, surpluses):
        # no scheme leaves the lowest class above 0, so nash and maxmin
        # refuse a profile that does
        profile = hand_profile(ValueDistribution.from_pairs([1, 2], ["1/2", "1/2"]), surpluses)
        for kind in ("nash", "maxmin"):
            refusal = f"^{kind} welfare needs the lowest class to earn 0$"
            with pytest.raises(ValueError, match=refusal):
                evaluate_welfare(profile, kind)
        assert evaluate_welfare(profile, "utilitarian") == profile.total

    @staticmethod
    def check_schemes(dist: ValueDistribution) -> None:
        # every posted price is at least v_1, so class 1 earns 0 under every
        # scheme, and nash and maxmin are an exact 0
        for kind in SCHEME_KINDS:
            profile = scheme_surplus(build_named_scheme(dist, kind))
            assert profile.surpluses[0] == 0, kind
            assert_exact_zero(evaluate_welfare(profile, "nash"))
            assert_exact_zero(evaluate_welfare(profile, "maxmin"))

    def test_every_scheme_on_the_corpus_leaves_class_one_at_zero(self, corpus):
        for dist in corpus:
            self.check_schemes(dist)

    @given(structured_priors())
    @settings(max_examples=25, deadline=None)
    def test_every_scheme_on_structured_priors_leaves_class_one_at_zero(self, case):
        self.check_schemes(case[1])

    def test_unknown_kind_rejected(self, running_example):
        profile = hand_profile(running_example, (F(1),) * 4)
        with pytest.raises(ValueError):
            evaluate_welfare(profile, "rawlsian")

    def test_utilitarian_reads_the_stage_total(self, running_example):
        # the stage's total is the one its scheme's entries sum to when the
        # checked constructor re-derives it
        stage = split_and_match(running_example)
        entries = stage.to_signaling_scheme().entries
        total = SignalingScheme(running_example, entries).total_surplus
        assert evaluate_welfare(scheme_surplus(stage), "utilitarian") == stage.total_surplus == total


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


class TestRefusals:
    @pytest.mark.parametrize(
        "breakpoints, values, message",
        [
            ((), (), "step function needs at least one segment"),
            ((F(1, 2), F(1)), (F(1),), "one value per segment required"),
            ((F(1, 2), F(1, 2), F(1)), (F(1),) * 3, "breakpoints must be strictly increasing"),
            ((F(0), F(1)), (F(1),) * 2, "breakpoints must be strictly increasing"),
            ((F(1, 4), F(1, 2)), (F(1),) * 2, "last breakpoint must be exactly 1"),
            ((F(1, 2), F(1)), (F(1), F(-1)), "segment values must be non-negative"),
        ],
        ids=["empty", "unequal-lengths", "repeated-breakpoint", "zero-breakpoint",
             "short-of-1", "negative-value"],
    )
    def test_step_function_refusals(self, breakpoints, values, message):
        with pytest.raises(MarketError) as refused:
            StepFunction(breakpoints, values)
        assert str(refused.value) == message

    def test_step_function_takes_no_integrals(self):
        f = quartile_step([0, 1, 2, 3])
        with pytest.raises(TypeError, match="takes 2 arguments, 3 given"):
            StepFunction(f.breakpoints, f.values, f.integrals)
        with pytest.raises(TypeError, match="unexpected keyword argument 'integrals'"):
            StepFunction(f.breakpoints, f.values, integrals=f.integrals)

    @pytest.mark.parametrize(
        "surpluses, message",
        [
            ((F(0), F(0), F(1)), "one surplus per value required"),
            ((F(0), F(0), F(-1, 2), F(1)), "surpluses must be non-negative, got -1/2"),
        ],
        ids=["too-few", "negative"],
    )
    def test_surplus_profile_refusals(self, running_example, surpluses, message):
        with pytest.raises(MarketError) as refused:
            SurplusProfile(running_example, surpluses, F(0))
        assert str(refused.value) == message


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
        edges, grid = set(), ()
        for f in fs:
            edges |= set(f.breakpoints) | set(walk_sorted_breakpoints(f))
            grid = merged(grid, certification_grid(f))
        assert grid == tuple(sorted(edges))

    def test_certification_hashes_no_fraction(self, nonmonotone_step, monkeypatch):
        # `merged` compares masses and never puts them in a set or dict, as
        # hashing a Fraction costs a modular inverse
        def refuse(self):
            raise AssertionError("a Fraction was hashed")

        monkeypatch.setattr(Fraction, "__hash__", refuse)
        f = StepFunction((F(1, 3), F(1, 2), F(1)), (F(2), F(1), F(3)))
        grid = certification_grid(f)  # sorted breakpoints 1/6, 1/2 and 1
        assert grid == (F(1, 6), F(1, 3), F(1, 2), F(1))
        assert merged(grid, (F(1, 4), F(1, 2), F(1))) == (F(1, 6), F(1, 4), F(1, 3), F(1, 2), F(1))
        assert not nonmonotone_step.non_decreasing
        own = certification_grid(nonmonotone_step)
        assert merged(own, nonmonotone_step.breakpoints) == own
        assert merged(own, own) == own

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
        """The rearrangement's integrals equal those summed afresh from its
        segments' widths."""
        result = monotone_fair_scheme(dist)
        for stage in (result.base, result.final):
            a = profile_step_function(scheme_surplus(stage)).ascending
            lefts = (F(0),) + a.breakpoints[:-1]
            widths = [right - left for left, right in zip(lefts, a.breakpoints)]
            summed = accumulate((v * w for v, w in zip(a.values, widths)), initial=F(0))
            assert a.integrals == tuple(summed)

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


class TestSortedProfile:
    @given(step_functions(max_segments=12, value_strategy=pooled_values))
    @settings(max_examples=150, deadline=None)
    def test_non_decreasing_is_its_own_rearrangement(self, f):
        # pooled values make ties common: f's edges between equal values
        # are no sorted breakpoints
        f = StepFunction(f.breakpoints, tuple(sorted(f.values)))
        assert f.non_decreasing
        assert certification_grid(f) == f.breakpoints
        prefixes = [sorted_prefix(f, m) for m in probe_masses(f)]
        assert "ascending" not in f.__dict__
        b, v = f.breakpoints, f.values
        rises = tuple(x for x, lo, hi in zip(b, v, v[1:]) if lo != hi) + b[-1:]
        assert sorted_breakpoints(f) == rises
        assert prefixes == [integration_prefix(f.ascending, m) for m in probe_masses(f)]


@given(step_functions(max_segments=12, value_strategy=pooled_values))
@settings(max_examples=150, deadline=None)
def test_integrals_equal_a_fraction_sum(f):
    # summed on reduced pairs, zero segments skipped, each made a Fraction once
    lefts = (F(0),) + f.breakpoints[:-1]
    widths = [right - left for left, right in zip(lefts, f.breakpoints)]
    summed = tuple(accumulate((v * w for v, w in zip(f.values, widths)), initial=F(0)))
    assert f.integrals == summed
    for x in f.integrals:
        assert type(x) is F and math.gcd(x.numerator, x.denominator) == 1
