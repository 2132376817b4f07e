"""Posted prices, surplus accounting, canonicalization."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsignal.market import (
    _MAX_RATIONAL_BITS,
    MAX_INT_DIGITS,
    InvalidDistribution,
    MarketError,
    PlausibilityError,
    Signal,
    SignalingScheme,
    ValueDistribution,
    as_fraction,
    buyer_optimal_scheme,
    canonicalize,
    full_revelation,
    is_efficient,
    is_monotone,
    myerson,
    no_signal,
    scheme_revenue,
    scheme_surplus,
)

from conftest import random_distribution, random_scheme

F = Fraction


class TestValueDistribution:
    def test_running_example_cdf(self, running_example):
        assert running_example.cdf == (F(1, 4), F(1, 2), F(3, 4), F(1))
        assert running_example.expected_value() == F(7, 2)

    def test_duplicates_merged(self):
        d = ValueDistribution.from_pairs([1, 2, 2, 5], ["1/4"] * 4)
        assert d.values == (F(1), F(2), F(5))
        assert d.masses == (F(1, 4), F(1, 2), F(1, 4))

    def test_zero_masses_dropped(self):
        d = ValueDistribution.from_pairs([1, 2, 3], [F(1, 2), 0, F(1, 2)])
        assert d.values == (F(1), F(3))

    def test_decreasing_values_rejected(self):
        with pytest.raises(InvalidDistribution):
            ValueDistribution.from_pairs([2, 1], [F(1, 2), F(1, 2)])

    def test_bad_mass_sum_rejected(self):
        with pytest.raises(InvalidDistribution):
            ValueDistribution.from_pairs([1, 2], [F(1, 2), F(1, 3)])

    def test_nonpositive_value_rejected(self):
        with pytest.raises(InvalidDistribution):
            ValueDistribution.from_pairs([0, 1], [F(1, 2), F(1, 2)])

    def test_as_fraction_exact_decimals(self):
        assert as_fraction("0.1") == F(1, 10)
        assert as_fraction(0.1) == F(1, 10)
        assert as_fraction("3/7") == F(3, 7)


@pytest.mark.parametrize(
    "raw", ["abc", "", "1/2/3", "1/0", True, None, {}, [1], float("nan"), float("inf")]
)
def test_as_fraction_rejects_unreadable_input(raw):
    with pytest.raises(MarketError):
        as_fraction(raw)


def test_as_fraction_digit_limit():
    # the bound is in bits: any int of _MAX_RATIONAL_BITS bits still has at
    # most MAX_INT_DIGITS decimal digits
    assert 2**_MAX_RATIONAL_BITS >= 10 ** (MAX_INT_DIGITS - 1)
    assert 2**_MAX_RATIONAL_BITS < 10**MAX_INT_DIGITS
    widest = 2**_MAX_RATIONAL_BITS - 1
    assert as_fraction(widest) == widest
    assert as_fraction("1e-99999") == F(1, 10**99999)
    for raw in (widest + 1, -widest - 1, "1e-150000", "1e150000"):
        with pytest.raises(MarketError):
            as_fraction(raw)


class TestMyerson:
    def test_running_example(self, running_example):
        price, revenue = myerson(running_example)
        assert (price, revenue) == (F(5), F(5, 2))
        assert running_example.posted_revenues() == (F(1), F(3, 2), F(5, 2), F(3, 2))

    def test_single_value(self):
        d = ValueDistribution.from_pairs([3], [1])
        assert myerson(d) == (F(3), F(3))

    def test_exhaustive_scan_matches(self, fig3_instance):
        # independent oracle: scan every candidate price
        def scan(dist):
            best = None
            for i, v in enumerate(dist.values):
                rev = v * sum(dist.masses[i:])
                if best is None or rev > best[1]:
                    best = (v, rev)
            return best

        assert myerson(fig3_instance) == scan(fig3_instance)
        assert myerson(fig3_instance) == (F(2), F(9, 5))
        rng = random.Random(7)
        for _ in range(50):
            d = random_distribution(rng)
            assert myerson(d) == scan(d)

    def test_tie_breaks_low(self):
        # both prices 1 and 2 give revenue 1
        d = ValueDistribution.from_pairs([1, 2], [F(1, 2), F(1, 2)])
        assert myerson(d) == (F(1), F(1))


class TestOptimalPrice:
    def test_equal_revenue_binary_tie(self, running_example):
        signal = Signal.from_mapping(running_example, {0: F(1, 2), 1: F(1, 2)})
        assert signal.dist.values[signal.optimal_price_index()] == F(1)

    def test_singleton(self, running_example):
        signal = Signal.singleton(running_example, 3)
        assert signal.dist.values[signal.optimal_price_index()] == F(6)

    def test_two_point_comparison(self):
        d = ValueDistribution.from_pairs([1, 10], [F(1, 2), F(1, 2)])
        signal = Signal.from_mapping(d, {0: F(2, 3), 1: F(1, 3)})
        assert signal.dist.values[signal.optimal_price_index()] == F(10)

    def test_scale_invariance(self):
        # the argmax only depends on mass ratios, not normalization
        rng = random.Random(11)
        for _ in range(40):
            d = random_distribution(rng)
            raw = {i: F(rng.randint(1, 9)) for i in sorted(rng.sample(range(d.n), rng.randint(1, d.n)))}
            total = sum(raw.values())
            signal = Signal(d, tuple((i, m / total) for i, m in raw.items()))
            best = min(
                (i for i in raw),
                key=lambda i: (
                    -d.values[i] * sum(m for j, m in raw.items() if j >= i),
                    i,
                ),
            )
            assert signal.optimal_price_index() == best
            tail = sum(m for j, m in raw.items() if j >= best) / total
            assert signal.revenue() == d.values[best] * tail


class TestSchemeSurplus:
    def test_nonmonotone_profile(self, nonmonotone_scheme):
        profile = scheme_surplus(nonmonotone_scheme)
        assert profile.surpluses == (F(0), F(3, 5), F(2, 5), F(3))

    def test_monotone_profile(self, monotone_scheme):
        profile = scheme_surplus(monotone_scheme)
        assert profile.surpluses == (F(0), F(1, 7), F(10, 7), F(17, 7))

    def test_no_signal_profile(self, running_example):
        profile = scheme_surplus(no_signal(running_example))
        assert profile.surpluses == (F(0), F(0), F(0), F(1))

    def test_plausibility_enforced(self, running_example):
        signal = Signal.singleton(running_example, 0)
        with pytest.raises(PlausibilityError) as err:
            SignalingScheme(running_example, ((signal, F(1)),))
        assert err.value.index in (0, 1)


class TestSchemeRevenue:
    def test_reference_schemes(self, nonmonotone_scheme, monotone_scheme):
        assert scheme_revenue(nonmonotone_scheme) == F(5, 2)
        assert scheme_revenue(monotone_scheme) == F(5, 2)

    def test_full_revelation_extracts_everything(self, running_example):
        assert scheme_revenue(full_revelation(running_example)) == F(7, 2)

    def test_efficiency_identity(self, nonmonotone_scheme, monotone_scheme):
        # for efficient schemes, revenue plus total surplus is the whole pie
        for scheme in (nonmonotone_scheme, monotone_scheme):
            assert is_efficient(scheme)
            total = scheme_surplus(scheme).total()
            assert scheme_revenue(scheme) + total == scheme.dist.expected_value()


class TestFlags:
    def test_nonmonotone_scheme_flags(self, nonmonotone_scheme):
        assert is_efficient(nonmonotone_scheme)
        assert not is_monotone(scheme_surplus(nonmonotone_scheme))

    def test_full_revelation_flags(self, running_example):
        scheme = full_revelation(running_example)
        assert is_efficient(scheme)
        assert is_monotone(scheme_surplus(scheme))

    def test_no_signal_not_efficient(self, running_example):
        assert not is_efficient(no_signal(running_example))


class TestCanonicalize:
    def test_full_revelation_fixed_point(self, running_example):
        scheme = full_revelation(running_example)
        canon = canonicalize(scheme)
        assert len(canon.entries) == running_example.n
        assert scheme_surplus(canon).surpluses == scheme_surplus(scheme).surpluses

    def test_nonmonotone_scheme_preserved(self, nonmonotone_scheme):
        canon = canonicalize(nonmonotone_scheme)
        assert scheme_surplus(canon).surpluses == (F(0), F(3, 5), F(2, 5), F(3))
        lows = [s.lowest_index for s in canon.signals]
        assert len(lows) == len(set(lows)) <= nonmonotone_scheme.dist.n

    def test_no_signal_scheme(self, running_example):
        canon = canonicalize(no_signal(running_example))
        assert scheme_surplus(canon).surpluses == (F(0), F(0), F(0), F(1))
        by_low = {s.lowest_index: s for s in canon.signals}
        assert set(by_low) == {0, 1, 2}
        assert by_low[2].support == ((2, F(1, 2)), (3, F(1, 2)))

    def test_random_schemes(self):
        rng = random.Random(23)
        for _ in range(60):
            dist = random_distribution(rng, max_n=6)
            scheme = random_scheme(rng, dist)
            canon = canonicalize(scheme)
            assert len(canon.entries) <= dist.n
            lows = [s.lowest_index for s in canon.signals]
            assert len(lows) == len(set(lows))
            assert is_efficient(canon)
            assert scheme_surplus(canon).surpluses == scheme_surplus(scheme).surpluses
            # efficiency identity now holds even if the source was wasteful
            total = scheme_surplus(canon).total()
            assert scheme_revenue(canon) + total == dist.expected_value()


FAMILIES = ("random", "equal_revenue", "geometric", "clustered")


@st.composite
def structured_priors(draw, max_n: int = 64):
    """(family, prior) with up to ``max_n`` values.

    ``equal_revenue``: tail mass v_1 / v_i at v_i, so every posted price
    ties.  ``geometric``: values b * r**i.  ``clustered``: up to four tight
    clusters of values whose mass weights alternate by a factor 10**6.
    ``random``: distinct integer values and integer weights.
    """
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, max_n))
    weights = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
    if family == "geometric":
        base = draw(st.integers(1, 9))
        ratio = draw(st.sampled_from([F(11, 10), F(3, 2), F(2)]))
        values = [base * ratio**i for i in range(n)]
    else:
        ints = st.integers(1, 10 * max_n)
        values = sorted(draw(st.lists(ints, min_size=n, max_size=n, unique=True)))
    if family == "clustered":
        clusters = draw(st.integers(1, 4))
        centres = sorted(draw(st.lists(
            st.integers(1, 99), min_size=clusters, max_size=clusters, unique=True
        )))
        cluster = [i * clusters // n for i in range(n)]
        values = [centres[c] * 10**4 + v for c, v in zip(cluster, values)]
        weights = [w * 10 ** (6 * (c % 2)) for c, w in zip(cluster, weights)]
    if family == "equal_revenue":
        tails = [F(values[0], v) for v in values] + [F(0)]
        masses = [a - b for a, b in zip(tails, tails[1:])]
    else:
        masses = [F(w, sum(weights)) for w in weights]
    return family, ValueDistribution(tuple(map(F, values)), tuple(masses))


class TestBuyerOptimalPeeling:
    @given(structured_priors())
    @settings(max_examples=20, deadline=None)
    def test_structured_families(self, case):
        family, dist = case
        scheme, total = buyer_optimal_scheme(dist)
        mixture = [F(0)] * dist.n
        for signal, weight in scheme.entries:
            for i, f in signal.support:
                mixture[i] += weight * f
        assert tuple(mixture) == dist.masses
        assert is_efficient(scheme)
        lows = [s.lowest_index for s in scheme.signals]
        assert len(lows) == len(set(lows)) <= dist.n
        revenues = dist.posted_revenues()
        assert total == dist.expected_value() - max(revenues)
        assert scheme_surplus(scheme).total() == total
        tied = {i for i, r in enumerate(revenues) if r == max(revenues)}
        for signal in scheme.signals:
            assert tied <= {i for i, _ in signal.support}
        if family == "equal_revenue":
            assert scheme.entries == no_signal(dist).entries
