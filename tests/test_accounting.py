"""Scheme accounting against a plain-Fraction oracle.

`SignalingScheme` and `DecomposedScheme` both account for themselves
through `market.class_sums`, which takes entries (weight, posterior, price
index) and sums each class's unused prior mass, unsold mass and surplus on
reduced int pairs; a `SignalingScheme` takes its revenue from
those sums, and a `Signal` is priced when built, on integers over a common
denominator.  The oracles below sum with one `Fraction` per operation, and
the scheme oracle sums each class's payment directly, so every derived
field must match them exactly, errors included.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsignal.ironing import monotone_fair_scheme
from fairsignal.market import (
    _MAX_RATIONAL_BITS,
    InvariantViolation,
    MarketError,
    PlausibilityError,
    Signal,
    SignalingScheme,
    ValueDistribution,
    class_sums,
    dot,
    full_revelation,
    no_signal,
    pair_product,
    pair_sum,
    reduced_fraction,
    scheme_from_rows,
    scheme_revenue,
)
from fairsignal.splitmatch import BinarySignalEntry, DecomposedScheme, SingletonEntry
from fairsignal.steps import scheme_surplus

from conftest import pair, pair_rows, perfbench_module, random_scheme, structured_priors, support

F = Fraction


def reference_price_index(signal: Signal) -> int:
    """Revenue-maximizing price index over the posterior, lowest tie first."""
    best_i, best_rev, tail = None, F(0), F(1)
    for i, f in support(signal):
        rev = signal.dist.values[i] * tail
        if best_i is None or rev > best_rev:
            best_i, best_rev = i, rev
        tail -= f
    return best_i


def reference_class_sums(dist: ValueDistribution, entries):
    """(unused, unsold, surpluses) of ``(w, support, k)`` entries, one
    Fraction per operation."""
    values = dist.values
    unused = list(dist.masses)
    unsold = [F(0)] * dist.n
    gained = [F(0)] * dist.n
    for w, support, k in entries:
        for i, f in support:
            m = w * f
            unused[i] -= m
            if k > i:
                unsold[i] += m
            if k < i:
                gained[i] += m * (values[i] - values[k])
    return unused, unsold, tuple(g / f for g, f in zip(gained, dist.masses))


def reference_scheme_accounting(dist: ValueDistribution, entries):
    """(surpluses, total surplus, revenue) of the weighted signals, or the
    `PlausibilityError` their mixture raises, from per-class Fraction sums."""
    values = dist.values
    mixture = [F(0)] * dist.n
    gained = [F(0)] * dist.n
    paid = [F(0)] * dist.n
    for signal, weight in entries:
        k = reference_price_index(signal)
        price = values[k]
        for i, f in support(signal):
            mass = F(*weight) * f
            mixture[i] += mass
            if i >= k:
                paid[i] += mass * price
            if i > k:
                gained[i] += mass * (values[i] - price)
    for i, f in enumerate(dist.masses):
        if mixture[i] != f:
            raise PlausibilityError(i, f, mixture[i])
    surpluses = tuple(t / f for t, f in zip(gained, dist.masses))
    return surpluses, sum(gained, F(0)), sum(paid, F(0))


def reference_decomposition(dist: ValueDistribution, binaries):
    """(singletons, surpluses, total surplus) of a binary decomposition, or the
    oversubscription `InvariantViolation`, from per-class Fraction sums."""
    values = dist.values
    unused = list(dist.masses)
    gained = [F(0)] * dist.n
    for b in binaries:
        taken = b.weight * (values[b.giver] / values[b.taker])
        unused[b.giver] -= b.weight - taken
        unused[b.taker] -= taken
        gained[b.taker] += taken * (values[b.taker] - values[b.giver])
    singletons = []
    for i, w in enumerate(unused):
        if w < 0:
            raise InvariantViolation(f"value index {i} is oversubscribed by {-w}")
        if w > 0:
            singletons.append(SingletonEntry(i, w))
    surpluses = tuple(t / f for t, f in zip(gained, dist.masses))
    return tuple(singletons), surpluses, sum(gained, F(0))


def error_fields(error: Exception):
    if isinstance(error, PlausibilityError):
        return type(error), error.index, error.expected, error.actual, str(error)
    return type(error), str(error)


def outcome(build):
    """What ``build()`` returns, or the fields of the error it raises."""
    try:
        return build()
    except (PlausibilityError, InvariantViolation) as e:
        return error_fields(e)


def check_signaling(dist: ValueDistribution, entries) -> str:
    """Assert the scheme's accounting equals the oracle's; return which
    classes it paid from ("below" when some class sits under its price)."""
    expected = outcome(lambda: reference_scheme_accounting(dist, entries))
    got = outcome(lambda: _accounted(SignalingScheme(dist, tuple(entries))))
    assert got == expected
    for signal, _ in entries:
        assert signal.optimal_price_index == reference_price_index(signal)
    below = any(support(s)[0][0] < s.optimal_price_index for s, _ in entries)
    return "below" if below else "at"


def _accounted(scheme: SignalingScheme):
    return scheme.surpluses, scheme.total_surplus, scheme.revenue


def check_decomposed(dist: ValueDistribution, binaries) -> None:
    expected = outcome(lambda: reference_decomposition(dist, binaries))
    got = outcome(lambda: _derived(DecomposedScheme(dist, tuple(binaries))))
    assert got == expected


def _derived(stage: DecomposedScheme):
    return stage.singletons, stage.surpluses, stage.total_surplus


def check_pipeline(dist: ValueDistribution) -> None:
    """Every stage of the pipeline and its signaling form match the oracles,
    and the sums a stage hands its signaling form are the checked
    constructor's."""
    result = monotone_fair_scheme(dist)
    for stage in (result.base, result.smoothed, result.final):
        check_decomposed(dist, stage.binaries)
        assert stage.total_surplus == dot(dist.masses, stage.surpluses)
        handed = stage.to_signaling_scheme()
        checked = SignalingScheme(dist, handed.entries)
        assert (handed.entries, *_accounted(handed)) == (checked.entries, *_accounted(checked))
        check_signaling(dist, handed.entries)


def random_rows(rng: random.Random, dist: ValueDistribution):
    """Rows of masses (as reduced pairs) that mix to the prior, each row
    spread over a random subset of values, so prices fall inside supports
    as well as at their lowest value."""
    k = rng.randint(1, dist.n + 1)
    rows = [dict() for _ in range(k)]
    for i, f in enumerate(dist.masses):
        pots = rng.sample(range(k), rng.randint(1, k))
        shares = [rng.randint(1, 9) for _ in pots]
        for q, share in zip(pots, shares):
            rows[q][i] = f * F(share, sum(shares))
    return pair_rows(rows)


class TestPairArithmetic:
    @given(
        st.integers(-(10**40), 10**40), st.integers(1, 10**40),
        st.integers(-(10**40), 10**40), st.integers(1, 10**40),
    )
    @settings(max_examples=300, deadline=None)
    def test_pairs_match_fraction(self, an, ad, bn, bd):
        a, b = F(an, ad), F(bn, bd)
        pa, pb = (a.numerator, a.denominator), (b.numerator, b.denominator)
        assert pair_product(*pa, *pb) == ((a * b).numerator, (a * b).denominator)
        assert pair_sum(*pa, *pb) == ((a + b).numerator, (a + b).denominator)

    def test_zero_and_cancellation(self):
        assert pair_sum(1, 6, -1, 6) == (0, 1)
        assert pair_sum(0, 1, 3, 4) == (3, 4)
        assert pair_product(0, 1, 5, 7) == (0, 1)
        assert pair_product(4, 9, 3, 2) == (2, 3)
        assert pair_sum(1, 6, 1, 3) == (1, 2)


class TestReducedFraction:
    @pytest.mark.parametrize("bits", [1, 2, 7, 63, 64, 65, 300, 500, 1000, 5000])
    def test_equals_fraction_of_the_pair(self, bits):
        rng = random.Random(bits)
        for _ in range(40):
            n = rng.getrandbits(bits) * rng.choice((1, -1))
            d = rng.getrandbits(bits) | 1 << (bits - 1)
            g = math.gcd(n, d)
            n, d = n // g, d // g
            got, want = reduced_fraction(n, d), F(n, d)
            assert type(got) is F and got == want
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    def test_fraction_copies_the_view_without_a_gcd(self):
        # reduced_fraction rests on Fraction copying a numbers.Rational's
        # numerator and denominator as they are: a Python whose Fraction
        # reduces the view (2/4 would read 1/2) or refuses it fails here
        x = reduced_fraction(2, 4)
        assert type(x) is F
        assert (x.numerator, x.denominator) == (2, 4)

    @staticmethod
    def check_lowest_terms(dist: ValueDistribution):
        """Every rational made from a reduced pair without a gcd is in
        lowest terms with a positive denominator."""
        result = monotone_fair_scheme(dist)
        made = [dist.expected_value]
        for stage in (result.base, result.smoothed, result.final):
            made += stage.surpluses + (stage.total_surplus,)
            made += tuple(b.weight for b in stage.binaries)
            made += tuple(s.weight for s in stage.singletons)
            made += scheme_surplus(stage).step_function.integrals
        signals = result.final.to_signaling_scheme()
        scheme = SignalingScheme(dist, signals.entries)  # summed afresh
        made += scheme.surpluses + (scheme.total_surplus, scheme.revenue)
        made += scheme_surplus(scheme).step_function.integrals
        for x in made:
            assert x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1, x

    def test_lowest_terms_corpus(self, corpus):
        for dist in corpus:
            self.check_lowest_terms(dist)

    @given(structured_priors())
    @settings(max_examples=40, deadline=None)
    def test_lowest_terms_structured_priors(self, case):
        self.check_lowest_terms(case[1])


def as_pairs(xs):
    return [(x.numerator, x.denominator) for x in xs]


def pair_entries(entries):
    """Entries ``(w, support, k)`` written with Fractions, in the shape
    `class_sums` takes: w and every share as a reduced int pair."""
    return [
        ((w.numerator, w.denominator), [(i, (f.numerator, f.denominator)) for i, f in support], k)
        for w, support, k in entries
    ]


@st.composite
def priced_entries(draw):
    """A prior and entries (w, support, k) whose shares sit below, at and
    above the price index k."""
    _, dist = draw(structured_priors(max_n=8))
    index = st.integers(0, dist.n - 1)
    share = st.fractions(min_value=0, max_value=3, max_denominator=10**12)
    weight = st.fractions(min_value=0, max_value=3, max_denominator=10**6)
    support = st.lists(st.tuples(index, share), max_size=4)
    return dist, draw(st.lists(st.tuples(weight, support, index), max_size=12))


class TestClassSums:
    @given(priced_entries())
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_loop(self, case):
        dist, entries = case
        unused, unsold, surpluses = reference_class_sums(dist, entries)
        total = sum((f * s for f, s in zip(dist.masses, surpluses)), F(0))
        assert class_sums(dist, pair_entries(entries)) == (
            as_pairs(unused), as_pairs(unsold), surpluses, total
        )

    def test_each_side_of_the_price(self):
        dist = ValueDistribution.from_pairs([1, 2, 5], ["1/2", "1/4", "1/4"])
        # class 1 sells 1/8 at price 1 and none of 1/8 priced at 5
        entries = [
            (F(5, 8), ((0, F(4, 5)), (1, F(1, 5))), 0),
            (F(3, 8), ((1, F(1, 3)), (2, F(2, 3))), 2),
        ]
        assert class_sums(dist, pair_entries(entries)) == (
            [(0, 1), (0, 1), (0, 1)],
            [(0, 1), (1, 8), (0, 1)],
            (F(0), F(1, 2), F(0)),
            F(1, 8),
        )

    def test_negative_unused_mass(self):
        # the entries put 3/4 on class 0, whose prior mass is 1/2
        dist = ValueDistribution.from_pairs([1, 2, 5], ["1/2", "1/4", "1/4"])
        entries = [(F(1, 2), ((0, F(1)),), 0), (F(1, 2), ((0, F(1, 2)), (2, F(1, 2))), 0)]
        assert class_sums(dist, pair_entries(entries)) == (
            [(-1, 4), (1, 4), (0, 1)],
            [(0, 1), (0, 1), (0, 1)],
            (F(0), F(0), F(4)),
            F(1),
        )
        unused, _, _ = reference_class_sums(dist, entries)
        assert unused == [F(-1, 4), F(1, 4), F(0)]


    # two coprime denominators of about 200,000 bits: either fits the limit,
    # their sum's denominator does not
    LONG = (2**200_000 + 1, 2**200_000 - 1)

    def test_refuses_an_overlong_mass(self):
        dist = ValueDistribution.from_pairs([1, 2, 5], ["1/2", "1/4", "1/4"])
        entries = [(F(1), ((1, F(1, d)),), 1) for d in self.LONG]
        class_sums(dist, pair_entries(entries[:1]))  # within the limit
        with pytest.raises(MarketError, match="^a derived rational is longer than 100000 digits$"):
            class_sums(dist, pair_entries(entries))

    @pytest.mark.parametrize("k", [0, 2], ids=["surplus", "unsold"])
    def test_refuses_an_overlong_sum_under_a_short_mass(self, k):
        # each unit of class 1 sells 1 - 1/d at v_1 and puts 1/d at v_k, so
        # class 1's unused mass stays within 200,000 bits while its surplus
        # (k = 0) or unsold (k = 2) sum reaches about 400,000
        dist = ValueDistribution.from_pairs([1, 2, 5], ["1/2", "1/4", "1/4"])
        entries = []
        for d in self.LONG:
            entries += [(F(1), ((1, F(d - 1, d)),), 1), (F(1), ((1, F(1, d)),), k)]
        class_sums(dist, pair_entries(entries[:3]))  # within the limit
        with pytest.raises(MarketError, match="^a derived rational is longer than 100000 digits$"):
            class_sums(dist, pair_entries(entries))

    def test_refuses_an_overlong_total_of_short_sums(self):
        # classes 1 and 2 each gain 1/d at v_0, so each surplus sum stays
        # within 200,000 bits while their total reaches about 400,000
        dist = ValueDistribution.from_pairs([1, 2, 5], ["1/2", "1/4", "1/4"])
        entries = [(F(1), ((i, F(1, d)),), 0) for i, d in zip((1, 2), self.LONG)]
        class_sums(dist, pair_entries(entries[:1]))  # within the limit
        with pytest.raises(MarketError, match="^a derived rational is longer than 100000 digits$"):
            class_sums(dist, pair_entries(entries))

    @pytest.mark.parametrize("k", [0, 1, 2], ids=["surplus", "unused", "unsold"])
    def test_accepts_a_short_sum_over_a_long_common_denominator(self, k):
        # 1/(PQ) + 1/(PR) = 1/(QR) when P = Q + R: each mass and the
        # reduced sum fit the limit, while their lcm PQR does not
        q, r = 2**112_000 + 1, 2**112_000 - 1
        p = q + r
        assert max((p * q).bit_length(), (q * r).bit_length()) <= _MAX_RATIONAL_BITS
        assert (p * q * r).bit_length() > _MAX_RATIONAL_BITS
        dist = ValueDistribution.from_pairs([1, 2, 5], ["1/2", "1/4", "1/4"])
        entries = [(F(1), ((1, F(1, d)),), k) for d in (p * q, p * r)]
        unused, unsold, surpluses = reference_class_sums(dist, entries)
        total = dist.masses[1] * surpluses[1]
        assert unused[1] == F(1, 4) - F(1, q * r)
        assert class_sums(dist, pair_entries(entries)) == (
            as_pairs(unused), as_pairs(unsold), surpluses, total
        )


class TestRevenue:
    def test_unsold_mass_earns_nothing(self, running_example):
        # the prior sells at its Myerson price 5, above the values 1 and 2
        scheme = no_signal(running_example)
        assert running_example.myerson == (F(5), F(5, 2))
        assert scheme_revenue(scheme) == F(5, 2)
        # half the mass is unsold, so the surplus alone would overstate revenue
        kept = sum(f * s for f, s in zip(running_example.masses, scheme.surpluses))
        assert running_example.expected_value - kept > F(5, 2)

    def test_no_signal_earns_the_myerson_revenue(self, corpus):
        above_lowest = 0
        for dist in corpus:
            price, revenue = dist.myerson
            assert scheme_revenue(no_signal(dist)) == revenue
            above_lowest += price > dist.values[0]
        assert above_lowest > 100


class TestAgainstOracle:
    def test_corpus(self, corpus):
        kinds = set()
        rng = random.Random(7)
        for dist in corpus:
            check_pipeline(dist)
            for scheme in (no_signal(dist), full_revelation(dist), random_scheme(rng, dist)):
                kinds.add(check_signaling(dist, scheme.entries))
            kinds.add(check_signaling(dist, scheme_from_rows(dist, random_rows(rng, dist)).entries))
        # schemes with classes below their signal's price (i < k), not only above
        assert kinds == {"below", "at"}

    @given(structured_priors(max_n=24), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_structured_priors(self, case, rng):
        _, dist = case
        check_pipeline(dist)
        check_signaling(dist, no_signal(dist).entries)
        check_signaling(dist, scheme_from_rows(dist, random_rows(rng, dist)).entries)

    @pytest.mark.parametrize("family", perfbench_module("instances").FAMILIES)
    def test_benchmark_scale(self, family):
        # the benchmark's families at its support sizes (n = 193 here), where
        # the stages' weights reach denominators of up to about 2,000 bits
        rng = random.Random(5)
        payload = perfbench_module("instances").make_instance(family, rng.randint(128, 256), rng)
        check_pipeline(ValueDistribution.from_pairs(payload["values"], payload["masses"]))

    def test_plausibility_errors(self, corpus):
        rng = random.Random(11)
        seen = 0
        for dist in corpus[:300]:
            entries = list(random_scheme(rng, dist).entries)
            j = rng.randrange(len(entries))
            signal, weight = entries[j]
            if rng.random() < 0.5 or len(entries) == 1:
                entries[j] = (signal, pair(F(*weight) * F(rng.randint(2, 5), rng.randint(6, 9))))
            else:
                del entries[j]
            with pytest.raises(PlausibilityError) as got:
                SignalingScheme(dist, tuple(entries))
            with pytest.raises(PlausibilityError) as expected:
                reference_scheme_accounting(dist, entries)
            assert error_fields(got.value) == error_fields(expected.value)
            seen += got.value.index > 0
        assert seen  # not only the first value class

    def test_oversubscription(self, corpus):
        for dist in corpus[:300]:
            binaries = list(monotone_fair_scheme(dist).base.binaries)
            if not binaries:
                continue
            # two more units of weight put at least 1 more on the giver or the taker
            b = binaries[-1]
            binaries[-1] = BinarySignalEntry(b.giver, b.taker, b.weight + 2, b.shares)
            with pytest.raises(InvariantViolation) as got:
                DecomposedScheme(dist, tuple(binaries))
            with pytest.raises(InvariantViolation) as expected:
                reference_decomposition(dist, binaries)
            assert str(got.value) == str(expected.value)


def test_signal_scales_over_the_lcm():
    dist = ValueDistribution.from_pairs([1, 2, 5, 6], ["1/4"] * 4)
    signal = Signal(dist, ((3, (1, 6)), (0, (1, 2)), (2, (1, 3))))
    assert support(signal) == ((0, F(1, 2)), (2, F(1, 3)), (3, F(1, 6)))
    # revenues 1, 5 * 1/2, 6 * 1/6: the interior price wins
    assert signal.optimal_price_index == 2
    tie = Signal(dist, ((1, (2, 3)), (3, (1, 3))))  # revenues 2 * 1 = 6 * 1/3
    assert tie.optimal_price_index == reference_price_index(tie) == 1


def test_signal_refuses_an_overlong_common_denominator():
    # each mass fits the digit limit, but the lcm of 2 and an odd
    # denominator of the full length does not; it fails at that entry
    dist = ValueDistribution.from_pairs([1, 2, 5, 6], ["1/4"] * 4)
    odd = 2**_MAX_RATIONAL_BITS - 1
    shares = ((0, (1, 2)), (1, (1, odd)), (2, (1, 3)))
    with pytest.raises(MarketError, match="^signal denominator longer than 100000 digits$"):
        Signal(dist, shares)


def reference_signal(dist: ValueDistribution, shares):
    """A signal's stored shares and price index, or its refusal's message,
    by a plain `Fraction` walk over every share in index order."""
    if not shares:
        return "signal support must be nonempty"
    seen = set()
    for i, (n, d) in shares:
        if not 0 <= i < dist.n:
            return f"support index {i} out of range"
        if i in seen:
            return f"duplicate support index {i}"
        seen.add(i)
        if n <= 0 or d <= 0:
            return f"support masses must be positive, got {n if d == 1 else f'{n}/{d}'}"
    if math.lcm(*(d for _, (_, d) in shares)).bit_length() > _MAX_RATIONAL_BITS:
        return "signal denominator longer than 100000 digits"
    ordered = tuple(sorted(shares))
    total = sum((F(n, d) for _, (n, d) in ordered), F(0))
    if total != 1:
        return f"signal masses sum to {total}, expected 1"
    best, best_revenue, tail = None, None, F(1)
    for i, (n, d) in ordered:
        revenue = dist.values[i] * tail
        if best is None or revenue > best_revenue:
            best, best_revenue = i, revenue
        tail -= F(n, d)
    return ordered, best


def signal_outcome(dist: ValueDistribution, shares):
    try:
        signal = Signal(dist, shares)
    except MarketError as e:
        return str(e)
    return signal.shares, signal.optimal_price_index


LONG_DEN = 2**_MAX_RATIONAL_BITS  # one bit past the limit
SHORT_SUPPORTS = {
    "one": ((2, (1, 1)),),
    "one-not-one": ((2, (1, 2)),),
    "one-zero": ((1, (0, 1)),),
    "one-negative": ((1, (-1, 1)),),
    "one-negative-denominator": ((1, (1, -1)),),
    "one-out-of-range": ((4, (1, 1)),),
    "one-below-range": ((-1, (1, 1)),),
    "one-overlong": ((0, (LONG_DEN, LONG_DEN)),),
    "two-sorted": ((0, (1, 4)), (3, (3, 4))),
    "two-unsorted": ((3, (3, 4)), (0, (1, 4))),
    "two-unequal-denominators": ((1, (1, 2)), (3, (2, 4))),
    "two-unequal-not-one": ((1, (1, 2)), (3, (1, 3))),
    "two-duplicate": ((1, (1, 2)), (1, (1, 2))),
    "two-out-of-range-duplicate": ((5, (1, 2)), (5, (1, 2))),
    "two-zero-then-duplicate": ((1, (0, 2)), (1, (1, 2))),
    "two-second-out-of-range": ((1, (1, 2)), (7, (1, 2))),
    "two-zero": ((1, (1, 1)), (2, (0, 1))),
    "two-negative": ((0, (3, 2)), (2, (-1, 2))),
    "two-not-one": ((0, (1, 3)), (1, (1, 3))),
    "two-overlong": ((0, (1, LONG_DEN)), (1, (LONG_DEN - 1, LONG_DEN))),
    "two-tie": ((0, (1, 2)), (1, (1, 2))),
    "two-tie-unsorted": ((1, (1, 2)), (0, (1, 2))),
    "two-low-wins": ((2, (1, 4)), (3, (3, 4))),
    "three": ((3, (1, 6)), (0, (1, 2)), (2, (1, 3))),
}


@pytest.mark.parametrize("shares", SHORT_SUPPORTS.values(), ids=SHORT_SUPPORTS)
def test_short_supports_match_the_fraction_walk(shares):
    # one- and two-share supports over one denominator are checked and
    # priced without the general walk; checks, messages and order agree
    dist = ValueDistribution.from_pairs([1, 2, 3, 4], ["1/4"] * 4)
    assert signal_outcome(dist, shares) == reference_signal(dist, shares)


def test_short_supports_pin_their_prices():
    dist = ValueDistribution.from_pairs([1, 2, 3, 4], ["1/4"] * 4)
    # revenues 1 at v_1 and 2 * 1/2 at v_2: the tie goes to the lower price
    assert signal_outcome(dist, SHORT_SUPPORTS["two-tie-unsorted"]) == (
        ((0, (1, 2)), (1, (1, 2))), 0
    )
    assert signal_outcome(dist, SHORT_SUPPORTS["two-unsorted"])[1] == 3  # 4 * 3/4 > 1
    assert signal_outcome(dist, SHORT_SUPPORTS["two-low-wins"])[1] == 2  # 3 > 4 * 3/4


@given(
    st.lists(
        st.tuples(st.integers(-1, 4), st.tuples(st.integers(-1, 6), st.integers(-1, 6))),
        min_size=1, max_size=2,
    ),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_random_short_supports_match_the_fraction_walk(shares, one_denominator):
    dist = ValueDistribution.from_pairs([1, 3, 4, 9], ["1/8", "1/4", "1/8", "1/2"])
    if one_denominator:  # the fast path's case, with sums of 1 common
        shares = [(i, (n, shares[0][1][1])) for i, (n, _) in shares]
        if len(shares) == 2 and shares[0][1][1] > 0 and shares[0][1][0] > 0:
            d, n = shares[0][1][1], shares[0][1][0]
            shares[1] = (shares[1][0], (d - n, d))
    shares = tuple(shares)
    assert signal_outcome(dist, shares) == reference_signal(dist, shares)
