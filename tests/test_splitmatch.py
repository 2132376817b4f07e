"""Greedy equal-revenue decomposition and its guarantees."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsignal import splitmatch
from fairsignal.market import (
    InvariantViolation,
    MarketError,
    Signal,
    SignalingScheme,
    ValueDistribution,
    is_efficient,
    scheme_revenue,
)
from fairsignal.splitmatch import (
    BinarySignalEntry,
    DecomposedScheme,
    SingletonEntry,
    binary_shares,
    split_and_match,
    truncated_upper_bound,
)
from fairsignal.steps import integration_prefix, profile_step_function, scheme_surplus

from conftest import (
    binary,
    perfbench_module,
    random_distribution,
    structured_priors,
    support,
    taker_fraction,
)

F = Fraction


class TestRunningExample:
    def test_full_decomposition(self, running_example):
        # the binaries, in emission order, are the greedy ledger
        scheme = split_and_match(running_example)
        assert scheme.binaries == (
            binary(running_example, 0, 1, F(1, 4)),
            binary(running_example, 1, 2, F(5, 24)),
            binary(running_example, 2, 3, F(3, 20)),
        )
        assert scheme.singletons == (
            SingletonEntry(0, F(1, 8)),
            SingletonEntry(2, F(17, 120)),
            SingletonEntry(3, F(1, 8)),
        )

    def test_surplus_profile(self, running_example):
        scheme = split_and_match(running_example)
        assert scheme.surpluses == (F(0), F(1, 2), F(1), F(1, 2))

    def test_revenue_weights_lowest_supports(self, running_example):
        scheme = split_and_match(running_example)
        expected = sum(
            b.weight * running_example.values[b.giver] for b in scheme.binaries
        ) + sum(
            s.weight * running_example.values[s.index] for s in scheme.singletons
        )
        assert scheme_revenue(scheme.to_signaling_scheme()) == expected == F(3)


class TestFiveValueInstance:
    def test_first_signal(self, fig3_instance):
        scheme = split_and_match(fig3_instance)
        first = scheme.binaries[0]
        assert (first.giver, first.taker, first.weight) == (0, 1, F(1, 10))
        assert binary_shares(fig3_instance, 0, 1) == ((1, 2), (1, 2))
        signal, weight = scheme.to_signaling_scheme().entries[0]
        assert (signal.shares, weight) == (((0, (1, 2)), (1, (1, 2))), (1, 10))
        assert support(signal) == ((0, F(1, 2)), (1, F(1, 2)))

    def test_full_ledger_trace(self, fig3_instance):
        # frozen from an independent hand run of the greedy ledger
        scheme = split_and_match(fig3_instance)
        assert scheme.binaries == (
            binary(fig3_instance, 0, 1, F(1, 10)),
            binary(fig3_instance, 1, 2, F(9, 40)),
            binary(fig3_instance, 1, 3, F(1, 10)),
            binary(fig3_instance, 1, 4, F(3, 80)),
            binary(fig3_instance, 2, 4, F(7, 40)),
        )
        assert scheme.singletons == (
            SingletonEntry(0, F(1, 20)),
            SingletonEntry(1, F(1, 10)),
            SingletonEntry(2, F(1, 16)),
            SingletonEntry(3, F(1, 20)),
            SingletonEntry(4, F(1, 10)),
        )


@pytest.mark.parametrize(
    "giver, taker, weight, message",
    [
        (1, 1, F(1, 2), "giver index must be below taker index"),
        (2, 1, F(1, 2), "giver index must be below taker index"),
        (0, 1, F(0), "weight must be positive"),
        (0, 1, F(-1, 2), "weight must be positive"),
    ],
    ids=["equal-indices", "giver-above-taker", "zero-weight", "negative-weight"],
)
def test_binary_entry_refusals(running_example, giver, taker, weight, message):
    shares = binary_shares(running_example, 0, 1)
    with pytest.raises(MarketError) as refused:
        BinarySignalEntry(giver, taker, weight, shares)
    assert str(refused.value) == message


@pytest.mark.parametrize("weight", [F(0), F(-1, 4)], ids=["zero", "negative"])
def test_singleton_entry_refuses_a_weight_not_positive(weight):
    with pytest.raises(MarketError) as refused:
        SingletonEntry(0, weight)
    assert str(refused.value) == "weight must be positive"


def test_single_value_distribution():
    d = ValueDistribution.from_pairs([5], [1])
    scheme = split_and_match(d)
    assert scheme.binaries == ()
    assert scheme.singletons == (SingletonEntry(0, F(1)),)


@given(
    st.lists(
        st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6),
        min_size=2, max_size=6, unique=True,
    ),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_binary_posterior_is_equal_revenue(values, data):
    values = sorted(values)
    dist = ValueDistribution.from_pairs(values, [F(1, len(values))] * len(values))
    g = data.draw(st.integers(0, len(values) - 2))
    t = data.draw(st.integers(g + 1, len(values) - 1))
    shares = binary_shares(dist, g, t)
    signal = Signal(dist, tuple(zip((g, t), shares)))
    (giver, giver_share), (taker, taker_share) = support(signal)
    assert (giver, taker) == (g, t)
    # the shares are in lowest terms: the posterior's Fractions, taken apart
    assert shares == tuple((f.numerator, f.denominator) for f in (giver_share, taker_share))
    assert giver_share > 0 and taker_share > 0
    assert giver_share + taker_share == 1
    # posting v_g sells to both, posting v_t to the taker alone: both earn v_g
    assert values[t] * taker_share == values[g]
    assert signal.optimal_price_index == g


class TestFromBinaries:
    @pytest.mark.parametrize(
        "weight, singletons",
        [
            (F(1, 4), ((0, F(1, 8)), (1, F(1, 8)), (2, F(1, 4)), (3, F(1, 4)))),
            # both values fully used by the binary: no zero-weight singletons
            (F(1, 2), ((2, F(1, 4)), (3, F(1, 4)))),
        ],
    )
    def test_singletons_carry_unused_mass(self, running_example, weight, singletons):
        scheme = DecomposedScheme(running_example, (binary(running_example, 0, 1, weight),))
        assert scheme.singletons == tuple(SingletonEntry(i, w) for i, w in singletons)

    def test_oversubscribed_value_raises(self, running_example):
        # the giver half of weight 1 puts mass 1/2 on a value of mass 1/4
        entry = binary(running_example, 0, 1, F(1))
        with pytest.raises(InvariantViolation, match="value index 0 is oversubscribed by 1/4"):
            DecomposedScheme(running_example, (entry,))

    def test_hand_over_refuses_a_binary_priced_off_its_giver(self, running_example, monkeypatch):
        # the stage's sums price each binary at its giver, so a posterior
        # that sells at its taker would hand over wrong surpluses.  The
        # greedy makes each binary's shares, so it is given the bad ones.
        def taker_priced(dist, g, t):
            ratio = (1 + dist.values[g] / dist.values[t]) / 2
            return tuple((f.numerator, f.denominator) for f in (1 - ratio, ratio))

        monkeypatch.setattr(splitmatch, "binary_shares", taker_priced)
        stage = split_and_match(running_example)
        with pytest.raises(InvariantViolation, match="is not priced at its giver value"):
            stage.to_signaling_scheme()

    @pytest.mark.parametrize("derived", ["singletons", "surpluses"])
    def test_derived_fields_cannot_be_passed(self, running_example, derived):
        # a stage is its binaries; what they leave and pay is not an input
        with pytest.raises(TypeError, match=derived):
            DecomposedScheme(running_example, (), **{derived: ()})


class TestGreedyInvariants:
    def test_random_instances(self):
        rng = random.Random(41)
        for _ in range(150):
            dist = random_distribution(rng)
            scheme = split_and_match(dist)
            # half-mass caps hold per value, exactly
            giver_used = [F(0)] * dist.n
            taker_used = [F(0)] * dist.n
            for b in scheme.binaries:
                giver_used[b.giver] += b.weight * (1 - taker_fraction(dist, b))
                taker_used[b.taker] += b.weight * taker_fraction(dist, b)
            for i, f in enumerate(dist.masses):
                assert giver_used[i] <= f / 2
                assert taker_used[i] <= f / 2
            # the giver frontier never moves left
            for b0, b1 in zip(scheme.binaries, scheme.binaries[1:]):
                assert b0.giver <= b1.giver
            # the checked constructor validates Bayes plausibility
            sig = SignalingScheme(dist, scheme.to_signaling_scheme().entries)
            assert is_efficient(sig)
            # every binary's posterior is revenue-tied between its two supports
            for b, (signal, weight) in zip(scheme.binaries, sig.entries):
                (giver, _), (taker, on_taker) = support(signal)
                assert (giver, taker, F(*weight)) == (b.giver, b.taker, b.weight)
                assert dist.values[b.giver] * 1 == dist.values[b.taker] * on_taker

    def test_deterministic(self, fig3_instance):
        assert split_and_match(fig3_instance) == split_and_match(fig3_instance)


def reference_ledger(dist: ValueDistribution) -> list[tuple[int, int, Fraction]]:
    """(giver, taker, weight) of each round of the greedy pass, on Fraction
    budgets, with both indices found by a scan from the bottom of the grid
    every round."""
    giver = [f / 2 for f in dist.masses]
    taker = list(giver)
    out = []
    n = dist.n
    while True:
        s = next((i for i in range(n) if giver[i] > 0), None)
        if s is None:
            break
        l = next((i for i in range(s + 1, n) if taker[i] > 0), None)
        if l is None:
            break
        ratio = dist.values[s] / dist.values[l]
        weight = min(giver[s] / (1 - ratio), taker[l] / ratio)
        out.append((s, l, weight))
        giver[s] -= weight * (1 - ratio)
        taker[l] -= weight * ratio
    return out


def ledger(dist: ValueDistribution) -> list[tuple[int, int, Fraction]]:
    return [(b.giver, b.taker, b.weight) for b in split_and_match(dist).binaries]


class TestForwardPointers:
    """The forward-only pointers and int-pair budgets emit the ledger of the
    Fraction scans from 0."""

    def test_corpus(self, corpus):
        for dist in corpus:
            assert ledger(dist) == reference_ledger(dist)

    @given(structured_priors())
    @settings(max_examples=60, deadline=None)
    def test_structured_families(self, case):
        _, dist = case
        assert ledger(dist) == reference_ledger(dist)

    @pytest.mark.parametrize("family", perfbench_module("instances").FAMILIES)
    def test_benchmark_families(self, family):
        # the int-pair budgets at the benchmark's support sizes
        make_instance = perfbench_module("instances").make_instance
        for n in (128, 192, 256):
            payload = make_instance(family, n, random.Random(f"ledger:{family}:{n}"))
            dist = ValueDistribution.from_pairs(payload["values"], payload["masses"])
            assert ledger(dist) == reference_ledger(dist)


class TestTruncatedUpperBound:
    def test_running_example(self, running_example):
        assert truncated_upper_bound(running_example, 1) == F(0)
        assert truncated_upper_bound(running_example, 2) == F(1, 4)
        assert truncated_upper_bound(running_example, 4) == F(1)

    def test_rejects_bad_k(self, running_example):
        for k in (0, 5):
            with pytest.raises(Exception):
                truncated_upper_bound(running_example, k)

    def test_quadruple_prefix_dominates_bound(self):
        # the decomposition's prefix sums 4-cover the truncated bound
        rng = random.Random(43)
        for _ in range(150):
            dist = random_distribution(rng)
            step = profile_step_function(scheme_surplus(split_and_match(dist)))
            for k in range(1, dist.n + 1):
                lhs = 4 * integration_prefix(step, dist.cdf[k - 1])
                assert lhs >= truncated_upper_bound(dist, k)
