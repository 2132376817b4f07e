"""Convex-envelope ironing, rectangle pairing, smoothing, final thinning."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from fairsignal.ironing import (
    _reweighted,
    finalize,
    iron,
    monotone_fair_scheme,
    pair_rectangles,
    smooth,
)
from fairsignal.market import InvariantViolation, SignalingScheme, ValueDistribution, is_efficient
from fairsignal.splitmatch import (
    DecomposedScheme,
    SingletonEntry,
    binary_shares,
    split_and_match,
    truncated_upper_bound,
)
from fairsignal.steps import (
    StepFunction,
    integration_prefix,
    is_monotone,
    scheme_surplus,
)

from conftest import (
    binary,
    hand_profile,
    mixture,
    random_distribution,
    structured_priors,
    taker_fraction,
)

F = Fraction


def envelope_oracle(dist: ValueDistribution, surpluses) -> list[Fraction]:
    """Independent ironed values: hull as a minimum over all chords."""
    xs = [F(0)]
    ys = [F(0)]
    for f, cs in zip(dist.masses, surpluses):
        xs.append(xs[-1] + f)
        ys.append(ys[-1] + f * cs)

    def envelope(x: Fraction) -> Fraction:
        best = None
        for i in range(len(xs)):
            for j in range(i, len(xs)):
                if not xs[i] <= x <= xs[j]:
                    continue
                if i == j:
                    cand = ys[i]
                else:
                    cand = ys[i] + (ys[j] - ys[i]) * (x - xs[i]) / (xs[j] - xs[i])
                if best is None or cand < best:
                    best = cand
        return best

    return [
        (envelope(xs[i + 1]) - envelope(xs[i])) / dist.masses[i]
        for i in range(dist.n)
    ]


class TestIron:
    def test_monotone_profile_untouched(self, running_example):
        step = hand_profile(running_example, (F(0), F(1), F(2), F(3)))
        ironed = iron(step)
        assert ironed.ironed_values == step.values
        assert ironed.intervals == ()

    def test_greedy_output_running_example(self, running_example):
        step = scheme_surplus(split_and_match(running_example))
        ironed = iron(step)
        assert ironed.ironed_values == (F(0), F(1, 2), F(3, 4), F(3, 4))
        assert len(ironed.intervals) == 1
        interval = ironed.intervals[0]
        assert (interval.left, interval.right) == (F(1, 2), F(1))
        assert interval.level == F(3, 4)
        assert interval.classes == (2, 3)

    def test_two_interval_profile(self, running_example):
        # hand-computed hull with two separate sagging sections
        step = hand_profile(running_example, (F(2), F(0), F(4), F(0)))
        ironed = iron(step)
        assert ironed.ironed_values == (F(1), F(1), F(2), F(2))
        assert [
            (iv.left, iv.right, iv.level, iv.classes) for iv in ironed.intervals
        ] == [
            (F(0), F(1, 2), F(1), (0, 1)),
            (F(1, 2), F(1), F(2), (2, 3)),
        ]

    def test_collinear_contacts(self, running_example):
        # cumulative surplus (0, 1/2, 1/2, 3/4, 1): the last three vertices
        # lie on the chord from the origin, so all of them touch the hull
        step = hand_profile(running_example, (F(2), F(0), F(1), F(1)))
        ironed = iron(step)
        # popping a collinear contact would add an interval over classes (2, 3)
        assert [
            (iv.left, iv.right, iv.level, iv.classes) for iv in ironed.intervals
        ] == [(F(0), F(1, 2), F(1), (0, 1))]
        assert ironed.ironed_values == (F(1), F(1), F(1), F(1))

    def test_prefix_preserved_at_contacts(self):
        rng = random.Random(59)
        for _ in range(100):
            dist = random_distribution(rng)
            step = scheme_surplus(split_and_match(dist))
            ironed = iron(step)
            # the ironed values integrate to the envelope: never above the
            # cumulative surplus (both are piecewise linear, so class edges
            # suffice) and equal to it at both ends of every interval
            flat = StepFunction(dist.cdf, ironed.ironed_values)
            for m in dist.cdf:
                assert integration_prefix(flat, m) <= integration_prefix(step, m)
            for interval in ironed.intervals:
                for x in (interval.left, interval.right):
                    if x > 0:
                        assert integration_prefix(flat, x) == integration_prefix(step, x)

    def test_matches_chord_oracle(self):
        rng = random.Random(61)
        for _ in range(100):
            dist = random_distribution(rng)
            base = split_and_match(dist)
            ironed = iron(scheme_surplus(base))
            assert list(ironed.ironed_values) == envelope_oracle(dist, base.surpluses)

    def test_ironed_values_weakly_increasing(self):
        rng = random.Random(67)
        for _ in range(100):
            step = scheme_surplus(split_and_match(random_distribution(rng)))
            vals = iron(step).ironed_values
            assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestPairRectangles:
    def test_running_example_single_pair(self, running_example):
        step = scheme_surplus(split_and_match(running_example))
        ironed = iron(step)
        pairs = pair_rectangles(step, ironed, 0)
        assert len(pairs) == 1
        p = pairs[0]
        assert (p.plus_index, p.minus_index) == (2, 3)
        assert (p.plus_width, p.plus_height) == (F(1, 4), F(1, 4))
        assert (p.minus_width, p.minus_height) == (F(1, 4), F(1, 4))
        assert p.plus_width * p.plus_height == F(1, 16)

    def test_no_intervals_means_no_pairs(self, running_example):
        step = hand_profile(running_example, (F(0), F(1), F(2), F(3)))
        assert iron(step).intervals == ()

    def test_area_balance_and_ordering(self):
        rng = random.Random(71)
        multi_pair_intervals = 0
        for _ in range(150):
            dist = random_distribution(rng)
            step = scheme_surplus(split_and_match(dist))
            ironed = iron(step)
            for t, interval in enumerate(ironed.intervals):
                pairs = pair_rectangles(step, ironed, t)
                if len(pairs) >= 2:
                    multi_pair_intervals += 1
                plus_area = sum((p.plus_width * p.plus_height for p in pairs), F(0))
                minus_area = sum((p.minus_width * p.minus_height for p in pairs), F(0))
                assert plus_area == minus_area
                excess = sum(
                    (
                        (step.values[i] - interval.level) * dist.masses[i]
                        for i in interval.classes
                        if step.values[i] > interval.level
                    ),
                    F(0),
                )
                assert plus_area == excess
                for p in pairs:
                    assert p.plus_width * p.plus_height == p.minus_width * p.minus_height
                    assert p.plus_left + p.plus_width <= p.minus_left
        assert multi_pair_intervals > 0

    def test_interval_prefixes_run_surplus_rich(self):
        # within an interval, cumulative excess never trails cumulative
        # deficit, which is what lets the sweep pair left to right
        rng = random.Random(77)
        for _ in range(150):
            dist = random_distribution(rng)
            step = scheme_surplus(split_and_match(dist))
            ironed = iron(step)
            for interval in ironed.intervals:
                plus = minus = F(0)
                for i in interval.classes:
                    gap = (step.values[i] - interval.level) * dist.masses[i]
                    if gap > 0:
                        plus += gap
                    else:
                        minus -= gap
                    assert plus >= minus


def reference_smooth(scheme, ironed, pairings) -> tuple:
    """Smoothing as a double scan of every binary for each deep pair, with
    the stage's singletons and surpluses summed in passes of their own;
    returns (binaries, singletons, surpluses)."""
    dist = scheme.dist
    values = dist.values
    weights = [b.weight for b in scheme.binaries]
    added = []
    for interval, pairs in zip(ironed.intervals, pairings):
        for pair in pairs:
            if 2 * pair.minus_height <= interval.level:
                continue
            vm, vp = pair.minus_index, pair.plus_index
            taker_cut = pair.minus_width / dist.masses[vm]
            for j, b in enumerate(scheme.binaries):
                if b.taker == vm:
                    weights[j] -= b.weight * taker_cut
            giver_cut = (
                pair.plus_width / dist.masses[vp]
                * pair.plus_height / (interval.level + pair.plus_height)
            )
            for j, b in enumerate(scheme.binaries):
                if b.taker == vp:
                    removed = b.weight * giver_cut
                    weights[j] -= removed
                    g = b.giver
                    w = removed * (1 - values[g] / values[vp]) / (1 - values[g] / values[vm])
                    added.append(binary(dist, g, vm, w))
    assert all(w >= 0 for w in weights)
    binaries = [
        binary(dist, b.giver, b.taker, w)
        for b, w in zip(scheme.binaries, weights)
        if w > 0
    ] + added
    unused = list(dist.masses)
    for b in binaries:
        unused[b.giver] -= b.weight * (1 - taker_fraction(dist, b))
        unused[b.taker] -= b.weight * taker_fraction(dist, b)
    assert all(w >= 0 for w in unused)
    singletons = tuple(SingletonEntry(i, w) for i, w in enumerate(unused) if w > 0)
    totals = [F(0)] * dist.n
    for b in binaries:
        gain = values[b.taker] - values[b.giver]
        totals[b.taker] += b.weight * taker_fraction(dist, b) * gain
    surpluses = tuple(t / f for t, f in zip(totals, dist.masses))
    return tuple(binaries), singletons, surpluses


def smooth_checked(dist: ValueDistribution) -> DecomposedScheme:
    """`smooth` of the greedy decomposition, checked field by field against
    the reference."""
    base = split_and_match(dist)
    step = scheme_surplus(base)
    ironed = iron(step)
    pairs = tuple(
        pair_rectangles(step, ironed, t) for t in range(len(ironed.intervals))
    )
    got = smooth(base, ironed, pairs)
    binaries, singletons, surpluses = reference_smooth(base, ironed, pairs)
    assert got.binaries == binaries
    assert got.singletons == singletons
    assert got.surpluses == surpluses
    return got


class TestSmooth:
    def test_matches_double_scan_on_corpus(self, corpus):
        lifted = 0
        for dist in corpus:
            got = smooth_checked(dist)
            lifted += got.binaries != split_and_match(dist).binaries
        assert lifted > 100  # 117 instances have a deep pair to lift

    @given(structured_priors())
    @settings(max_examples=30, deadline=None)
    def test_matches_double_scan_on_structured_families(self, case):
        _, dist = case
        smooth_checked(dist)

    def test_running_example_noop(self, running_example):
        # the only deficit is shallower than half the level
        base = split_and_match(running_example)
        step = scheme_surplus(base)
        ironed = iron(step)
        pairs = tuple(
            pair_rectangles(step, ironed, t) for t in range(len(ironed.intervals))
        )
        assert 2 * pairs[0][0].minus_height <= ironed.intervals[0].level
        smoothed = smooth(base, ironed, pairs)
        assert smoothed.surpluses == base.surpluses
        assert smoothed.binaries == base.binaries

    def test_monotone_profile_identity(self):
        d = ValueDistribution.from_pairs([1, 4], [F(1, 2), F(1, 2)])
        base = split_and_match(d)
        ironed = iron(scheme_surplus(base))
        smoothed = smooth(base, ironed, ())
        assert smoothed.binaries == base.binaries
        assert smoothed.singletons == base.singletons

    def test_poor_classes_get_lifted(self):
        rng = random.Random(73)
        checked = 0
        for _ in range(300):
            dist = random_distribution(rng)
            base = split_and_match(dist)
            step = scheme_surplus(base)
            ironed = iron(step)
            pairs = tuple(
                pair_rectangles(step, ironed, t)
                for t in range(len(ironed.intervals))
            )
            smoothed = smooth(base, ironed, pairs)
            after = smoothed.surpluses
            for i in range(dist.n):
                assert 2 * after[i] >= ironed.ironed_values[i]
            if any(
                2 * step.values[i] < ironed.ironed_values[i]
                for i in range(dist.n)
            ):
                checked += 1
            # the checked constructor raises unless the mixture is the prior
            SignalingScheme(dist, smoothed.to_signaling_scheme().entries)
        assert checked > 0  # corpus really exercises the lifting branch


def check_hand_over(dist: ValueDistribution) -> bool:
    """Check that smoothing hands its input on exactly when no pair lifts a
    class, and that the smoothed and final stages equal stages rebuilt
    from binaries with fresh shares; returns whether a pair lifts."""
    res = monotone_fair_scheme(dist)
    lifts = any(
        2 * pair.minus_height > interval.level
        for interval, pairs in zip(res.ironed.intervals, res.pairings)
        for pair in pairs
    )
    assert (res.smoothed is res.base) == (not lifts)
    for stage in (res.smoothed, res.final):
        fresh = DecomposedScheme(
            dist,
            tuple(binary(dist, b.giver, b.taker, b.weight) for b in stage.binaries),
        )
        assert fresh.binaries == stage.binaries
        assert fresh.singletons == stage.singletons
        assert fresh.surpluses == stage.surpluses
        assert [b.shares for b in stage.binaries] == [
            binary_shares(dist, b.giver, b.taker) for b in stage.binaries
        ]
    return lifts


class TestHandOver:
    def test_corpus(self, corpus):
        lifted = sum(check_hand_over(dist) for dist in corpus)
        assert 0 < lifted < len(corpus)  # 117 instances lift a class

    @given(structured_priors())
    @settings(max_examples=30, deadline=None)
    def test_structured_families(self, case):
        _, dist = case
        check_hand_over(dist)

    def test_lifted_instance(self, lifted_instance):
        assert check_hand_over(lifted_instance)


class TestFinalize:
    def test_running_example_weights(self, running_example):
        res = monotone_fair_scheme(running_example)
        assert res.final.surpluses == (F(0), F(1, 4), F(3, 8), F(3, 8))
        weights = {(b.giver, b.taker): b.weight for b in res.final.binaries}
        assert weights == {
            (0, 1): F(1, 8),
            (1, 2): F(5, 64),
            (2, 3): F(9, 80),
        }

    def test_weights_match_fraction_factors(self, corpus):
        # each binary is scaled by s / (2 * cs) of its taker, on reduced pairs
        for dist in corpus[:300]:
            res = monotone_fair_scheme(dist)
            cs, s = res.smoothed.surpluses, res.ironed.ironed_values
            expected = [
                (b.giver, b.taker, b.weight * s[b.taker] / (2 * cs[b.taker]))
                for b in res.smoothed.binaries
            ]
            got = [(b.giver, b.taker, b.weight) for b in res.final.binaries]
            assert got == [e for e in expected if e[2]]

    def test_negative_factor_is_refused(self, running_example):
        base = split_and_match(running_example)
        with pytest.raises(InvariantViolation, match="^binary signal weight went negative$"):
            _reweighted(base.binaries, [(-1, 2)] * running_example.n)
        assert _reweighted(base.binaries, [(0, 1)] * running_example.n) == ()

    def test_identity_when_already_half(self, running_example):
        res = monotone_fair_scheme(running_example)
        again = finalize(res.final, res.ironed)
        assert again.surpluses == res.final.surpluses
        assert again.binaries == res.final.binaries

    def test_five_value_pipeline(self, fig3_instance):
        res = monotone_fair_scheme(fig3_instance)
        target = envelope_oracle(fig3_instance, res.base.surpluses)
        assert [2 * cs for cs in res.final.surpluses] == target
        scheme = res.final.to_signaling_scheme()
        assert is_efficient(scheme)
        assert is_monotone(scheme)

    def test_pipeline_on_random_instances(self):
        rng = random.Random(79)
        for _ in range(150):
            dist = random_distribution(rng)
            res = monotone_fair_scheme(dist)
            final = res.final.surpluses
            assert all(
                2 * cs == s for cs, s in zip(final, res.ironed.ironed_values)
            )
            scheme = res.final.to_signaling_scheme()
            assert is_efficient(scheme)
            assert is_monotone(scheme)

    @given(structured_priors())
    @settings(max_examples=20, deadline=None)
    def test_pipeline_on_structured_families(self, case):
        # equal-revenue, geometric and clustered priors up to n = 64, beyond
        # the random corpus: the stage guarantees the factor 8 rests on
        _, dist = case
        res = monotone_fair_scheme(dist)
        scheme = res.final.to_signaling_scheme()
        assert mixture(scheme) == dist.masses
        assert is_efficient(scheme)
        assert is_monotone(scheme)
        step = scheme_surplus(res.base)
        for k in range(1, dist.n + 1):
            lhs = 4 * integration_prefix(step, dist.cdf[k - 1])
            assert lhs >= truncated_upper_bound(dist, k)
