"""Posted prices, surplus accounting, canonicalization."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairsignal.cli import SCHEME_KINDS, build_named_scheme
from fairsignal.market import (
    _EXPONENT,
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
    full_revelation,
    is_efficient,
    no_signal,
    rational_pair,
    scheme_from_rows,
    scheme_revenue,
)
from fairsignal.steps import is_monotone, scheme_surplus

from conftest import (
    mixture,
    pair,
    pair_rows,
    perfbench_module,
    random_distribution,
    random_scheme,
    reference_buyer_optimal_scheme,
    structured_priors,
    support,
)

F = Fraction


def canonicalize(scheme: SignalingScheme) -> SignalingScheme:
    """Rewrite a scheme into an efficient one with distinct lowest supports.

    The lemma behind the canonical polytope of the LP oracles, which
    therefore optimize over all schemes.  Two steps: (1) every signal drops
    the mass below its posted price, which becomes singleton mass on the
    dropped values; (2) signals sharing a lowest support are merged.
    Per-buyer expected surplus is unchanged and at most n signals remain,
    each posting its lowest support as the price.
    """
    dist = scheme.dist
    rows: list[dict[int, Fraction]] = [dict() for _ in range(dist.n)]
    for signal, weight in scheme.entries:
        k = signal.optimal_price_index
        for i, f in support(signal):
            row = rows[i] if i < k else rows[k]
            row[i] = row.get(i, Fraction(0)) + Fraction(*weight) * f
    return scheme_from_rows(dist, pair_rows(rows))


class TestValueDistribution:
    def test_running_example_cdf(self, running_example):
        assert running_example.cdf == (F(1, 4), F(1, 2), F(3, 4), F(1))
        assert running_example.expected_value == F(7, 2)

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

    def test_cdf_is_summed_once(self, running_example):
        assert running_example.cdf is running_example.cdf

    def test_expected_value_is_summed_once(self, running_example):
        assert running_example.expected_value is running_example.expected_value

    def test_values_are_ordered_by_cross_products(self, monkeypatch):
        # from_pairs compares each value with the one before it on integers,
        # and so does the constructor it ends in
        rng = random.Random(5)
        values = sorted(F(rng.randint(1, 60), rng.randint(1, 9)) for _ in range(40))
        raw = [str(v) if k % 2 else f"{2 * v.numerator}/{2 * v.denominator}"
               for k, v in enumerate(values)]
        masses = [F(1, 40)] * 40
        expected = {}
        for v in values:
            expected[v] = expected.get(v, F(0)) + F(1, 40)

        def refuse(*args):
            raise AssertionError("values compared as Fractions")

        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Fraction, name, refuse)
        d = ValueDistribution.from_pairs(raw, masses)
        monkeypatch.undo()
        assert len(set(values)) < len(values)  # duplicates to merge
        assert (d.values, d.masses) == (tuple(expected), tuple(expected.values()))
        assert d == ValueDistribution(d.values, d.masses)

    @pytest.mark.parametrize("values", [(1, 1, 2), (1, 3, 2), ("1/2", "2/4", 2)])
    def test_unordered_values_rejected_by_constructor(self, values):
        with pytest.raises(InvalidDistribution, match="^values must be strictly increasing$"):
            ValueDistribution(tuple(map(as_fraction, values)), (F(1, 3),) * 3)

    @pytest.mark.parametrize(
        "values, masses, message",
        [
            ((), (), "support must be nonempty"),
            ((F(1), F(2)), (F(1),), "values and masses must have equal length"),
            ((F(1), F(2)), (F(0), F(1)), "masses must be positive, got 0"),
        ],
        ids=["empty", "unequal-lengths", "zero-mass"],
    )
    def test_constructor_refusals(self, values, masses, message):
        with pytest.raises(InvalidDistribution) as refused:
            ValueDistribution(values, masses)
        assert str(refused.value) == message

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


def parsed_by_fraction(raw: str) -> Fraction:
    """``as_fraction`` of a string with every string read by `Fraction`'s
    own parser, as before plain digit strings were read through int()."""
    text = raw.strip()
    exponent = _EXPONENT.search(text)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_INT_DIGITS)) or int(digits or 0) > MAX_INT_DIGITS:
            raise MarketError(f"rational longer than {MAX_INT_DIGITS} digits")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise MarketError(f"cannot read {raw!r} as a rational") from None
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > _MAX_RATIONAL_BITS:
        raise MarketError(f"rational longer than {MAX_INT_DIGITS} digits")
    return value


def read_outcome(read, text):
    try:
        return read(text)
    except MarketError as e:
        return str(e)


LONG = "1" + "0" * MAX_INT_DIGITS  # one digit past the limit


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit to set"
)
@pytest.mark.parametrize("limit", [MAX_INT_DIGITS, 0], ids=["cli-limit", "no-limit"])
@pytest.mark.parametrize(
    "text",
    [
        " 3/4 ", "-1/2", "+1/2", "1_000/3", "1/0", "0x10", "1e5", "7", "0", "0/5",
        "007/014", "12/18", "3 / 4", "5/", "/5", "1/2/3", "",
        # other decimal digits, surrounding whitespace and a zero denominator
        "٣/٤", "３", " 3", "3\n", "0/0",
        # past the limit, int() raises ValueError, which must become MarketError
        LONG, "1/" + LONG, LONG + "/3", "9" * MAX_INT_DIGITS,
    ],
    ids=lambda t: t if len(t) < 20 else f"{len(t)}-chars",
)
def test_as_fraction_reads_digit_strings_as_fraction_does(text, limit):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        got = read_outcome(as_fraction, text)
        expected = read_outcome(parsed_by_fraction, text)
    finally:
        sys.set_int_max_str_digits(previous)
    assert got == expected


def decimal(n: int) -> str:
    """n in decimal digits, past the default int/str conversion limit."""
    previous = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if previous is not None:
        sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


AT_LIMIT = 2**_MAX_RATIONAL_BITS - 1  # the longest denominator read
READER_TABLE = [
    # plain ASCII "p" and "p/q", read by int() and reduced once
    ("7", (7, 1)), ("007", (7, 1)), ("2/4", (1, 2)), ("0/5", (0, 1)),
    ("1/" + decimal(AT_LIMIT), (1, AT_LIMIT)),
    ("1/" + decimal(AT_LIMIT + 1), f"rational longer than {MAX_INT_DIGITS} digits"),
    ("5/0", "cannot read '5/0' as a rational"),
    (LONG, f"cannot read {LONG!r} as a rational"),
    # anything else goes to the general reader
    (" 1/2", (1, 2)), ("1/2 ", (1, 2)), ("+1", (1, 1)), ("-1/2", (-1, 2)),
    ("1_0", (10, 1)), ("1e3", (1000, 1)), ("0.5", (1, 2)),
    ("٣/٤", (3, 4)), ("١٢/٨", (3, 2)),
    # inputs that are no text
    (7, (7, 1)), (AT_LIMIT, (AT_LIMIT, 1)),
    (10**MAX_INT_DIGITS, f"rational longer than {MAX_INT_DIGITS} digits"),
    (True, "bool is not a rational value"),
    (0.1, (1, 10)),
    (float("nan"), "cannot read nan as a rational"),
    (float("inf"), "cannot read inf as a rational"),
    (F(-6, 4), (-3, 2)),
    (None, "cannot interpret NoneType as a rational"),
    ([1], "cannot interpret list as a rational"),
]


def reader_id(raw) -> str:
    """A short test id for a reader input: a long text or int by its length."""
    if isinstance(raw, str):
        return raw if len(raw) < 20 else f"{len(raw)}-chars"
    if isinstance(raw, int) and raw.bit_length() > 64:
        return f"{raw.bit_length()}-bit-int"
    return f"{type(raw).__name__}-{raw!r}"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit to set"
)
@pytest.mark.parametrize(
    "text, expected", READER_TABLE, ids=[reader_id(t) for t, _ in READER_TABLE]
)
def test_readers_agree_on_the_pinned_table(text, expected):
    # as_fraction and rational_pair give the same value, or the same
    # message, for text and every other input alike, under the CLI's limit
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(MAX_INT_DIGITS)
    try:
        value = read_outcome(as_fraction, text)
        pair_read = read_outcome(rational_pair, text)
    finally:
        sys.set_int_max_str_digits(previous)
    if isinstance(expected, str):
        assert value == pair_read == expected
    else:
        assert type(value) is Fraction and (value.numerator, value.denominator) == expected
        assert pair_read == expected


class TestMyerson:
    def test_running_example(self, running_example):
        price, revenue = running_example.myerson
        assert (price, revenue) == (F(5), F(5, 2))
        assert running_example.posted_revenues == (F(1), F(3, 2), F(5, 2), F(3, 2))

    def test_single_value(self):
        d = ValueDistribution.from_pairs([3], [1])
        assert d.myerson == (F(3), F(3))

    def test_exhaustive_scan_matches(self, fig3_instance):
        # independent oracle: scan every candidate price
        def scan(dist):
            best = None
            for i, v in enumerate(dist.values):
                rev = v * sum(dist.masses[i:])
                if best is None or rev > best[1]:
                    best = (v, rev)
            return best

        assert fig3_instance.myerson == scan(fig3_instance)
        assert fig3_instance.myerson == (F(2), F(9, 5))
        rng = random.Random(7)
        for _ in range(50):
            d = random_distribution(rng)
            assert d.myerson == scan(d)

    def test_tie_breaks_low(self):
        # both prices 1 and 2 give revenue 1
        d = ValueDistribution.from_pairs([1, 2], [F(1, 2), F(1, 2)])
        assert d.myerson == (F(1), F(1))

    @staticmethod
    def check_one_posterior(dist: ValueDistribution) -> None:
        # on a fresh distribution, so that neither price is read from a cache
        fresh = ValueDistribution(dist.values, dist.masses)
        assert fresh.myerson == prior_as_one_posterior(fresh)

    def test_corpus_matches_the_prior_as_one_posterior(self, corpus):
        for dist in corpus:
            self.check_one_posterior(dist)

    @given(structured_priors())
    @settings(max_examples=40, deadline=None)
    def test_structured_priors_match_the_prior_as_one_posterior(self, case):
        self.check_one_posterior(case[1])

    @pytest.mark.parametrize("n", [2, 5, 64])
    def test_equal_revenue_ties_go_to_the_lowest_price(self, n):
        # tail mass 1/v at v = 1..n: every posted price earns 1
        tails = [F(1, v) for v in range(1, n + 1)] + [F(0)]
        d = ValueDistribution(
            tuple(F(v) for v in range(1, n + 1)), tuple(a - b for a, b in zip(tails, tails[1:]))
        )
        assert d.posted_revenues == (F(1),) * n
        assert d.myerson == (F(1), F(1)) == prior_as_one_posterior(d)

    def test_builds_no_signal(self, running_example, monkeypatch):
        def refuse(signal):
            raise AssertionError("the prior was priced as a Signal")

        monkeypatch.setattr(Signal, "__post_init__", refuse)
        d = ValueDistribution(running_example.values, running_example.masses)
        assert d.myerson == (F(5), F(5, 2))
        assert d.posted_revenues == (F(1), F(3, 2), F(5, 2), F(3, 2))
        # the curve is walked once and the price read off it
        assert d.posted_revenues is d.posted_revenues
        assert d.myerson[1] is d.posted_revenues[2]


def prior_as_one_posterior(dist: ValueDistribution) -> tuple[Fraction, Fraction]:
    """The Myerson price and revenue of the prior priced as one posterior by
    `Signal`, whose ties go to the lowest price: the oracle for `myerson`,
    which reads them off the posted-price revenue curve instead."""
    signal = Signal(dist, tuple((i, f.as_integer_ratio()) for i, f in enumerate(dist.masses)))
    k = signal.optimal_price_index
    return dist.values[k], dist.values[k] * sum(dist.masses[k:])


class TestOptimalPrice:
    def test_equal_revenue_binary_tie(self, running_example):
        signal = Signal(running_example, ((0, (1, 2)), (1, (1, 2))))
        assert signal.dist.values[signal.optimal_price_index] == F(1)

    def test_singleton(self, running_example):
        signal = Signal.singleton(running_example, 3)
        assert signal.dist.values[signal.optimal_price_index] == F(6)

    def test_two_point_comparison(self):
        d = ValueDistribution.from_pairs([1, 10], [F(1, 2), F(1, 2)])
        signal = Signal(d, ((0, (2, 3)), (1, (1, 3))))
        assert signal.dist.values[signal.optimal_price_index] == F(10)

    def test_scale_invariance(self):
        # the argmax only depends on mass ratios, not normalization
        rng = random.Random(11)
        for _ in range(40):
            d = random_distribution(rng)
            raw = {i: F(rng.randint(1, 9)) for i in sorted(rng.sample(range(d.n), rng.randint(1, d.n)))}
            total = sum(raw.values())
            signal = Signal(d, tuple((i, pair(m / total)) for i, m in raw.items()))
            best = min(
                (i for i in raw),
                key=lambda i: (
                    -d.values[i] * sum(m for j, m in raw.items() if j >= i),
                    i,
                ),
            )
            k = signal.optimal_price_index
            assert k == best
            tail = sum(m for j, m in raw.items() if j >= best) / total
            revenue = d.values[k] * sum(f for j, f in support(signal) if j >= k)
            assert revenue == d.values[best] * tail


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
            SignalingScheme(running_example, ((signal, (1, 1)),))
        assert err.value.index in (0, 1)

    @pytest.mark.parametrize("scale", [F(1, 2), F(2)])
    def test_scaled_weights_are_implausible(self, running_example, scale):
        # a weight total other than 1 shows as a mixture that misses the prior
        entries = tuple(
            (s, pair(F(*w) * scale)) for s, w in full_revelation(running_example).entries
        )
        with pytest.raises(PlausibilityError) as err:
            SignalingScheme(running_example, entries)
        assert err.value.index == 0


def reference_revenue(scheme: SignalingScheme) -> Fraction:
    """Revenue summed per signal: weight times the best posted revenue."""
    total = Fraction(0)
    for signal, weight in scheme.entries:
        tail = Fraction(1)
        best = Fraction(0)
        for i, f in support(signal):
            best = max(best, scheme.dist.values[i] * tail)
            tail -= f
        total += Fraction(*weight) * best
    return total


def reference_surpluses(scheme: SignalingScheme) -> tuple[Fraction, ...]:
    """Surplus per class, summed signal by signal at each one's price."""
    dist = scheme.dist
    totals = [Fraction(0)] * dist.n
    for signal, weight in scheme.entries:
        tail = Fraction(1)
        best = None
        for i, f in support(signal):
            if best is None or dist.values[i] * tail > best[1]:
                best = (i, dist.values[i] * tail)
            tail -= f
        price = dist.values[best[0]]
        for i, f in support(signal):
            totals[i] += Fraction(*weight) * f * max(dist.values[i] - price, Fraction(0))
    return tuple(t / f for t, f in zip(totals, dist.masses))


class TestSchemeRevenue:
    def test_per_class_sum_equals_per_signal_sum(self, corpus):
        rng = random.Random(37)
        priced_above_lowest = 0
        for dist in corpus:
            schemes = [build_named_scheme(dist, k) for k in SCHEME_KINDS]
            schemes.append(random_scheme(rng, dist))
            for scheme in schemes:
                assert scheme_revenue(scheme) == reference_revenue(scheme)
                assert scheme_surplus(scheme).surpluses == reference_surpluses(scheme)
            priced_above_lowest += not is_efficient(schemes[-1])
        assert priced_above_lowest > 100  # random schemes price above their lowest support

    @given(structured_priors(max_n=24), st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_per_signal_sum_on_structured_priors(self, case, rng):
        # revenue is E[v] less the unsold mass at its values and the total
        # surplus; a random scheme leaves mass unsold
        _, dist = case
        schemes = [build_named_scheme(dist, k) for k in SCHEME_KINDS]
        for scheme in schemes + [random_scheme(rng, dist)]:
            assert scheme.revenue == reference_revenue(scheme)
            total = sum(
                (f * cs for f, cs in zip(dist.masses, reference_surpluses(scheme))), F(0)
            )
            assert scheme_surplus(scheme).total == scheme.total_surplus == total

    def test_reference_schemes(self, nonmonotone_scheme, monotone_scheme):
        assert scheme_revenue(nonmonotone_scheme) == F(5, 2)
        assert scheme_revenue(monotone_scheme) == F(5, 2)

    def test_full_revelation_extracts_everything(self, running_example):
        assert scheme_revenue(full_revelation(running_example)) == F(7, 2)

    def test_efficiency_identity(self, nonmonotone_scheme, monotone_scheme):
        # for efficient schemes, revenue plus total surplus is the whole pie
        for scheme in (nonmonotone_scheme, monotone_scheme):
            assert is_efficient(scheme)
            total = scheme_surplus(scheme).total
            assert scheme_revenue(scheme) + total == scheme.dist.expected_value


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
        assert support(by_low[2]) == ((2, F(1, 2)), (3, F(1, 2)))

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
            total = scheme_surplus(canon).total
            assert scheme_revenue(canon) + total == dist.expected_value


def assert_peels_like_the_reference(dist: ValueDistribution) -> SignalingScheme:
    """The event-driven peeling's scheme, checked to be the round-by-round
    reference's exactly: the same signals with the same shares and weights,
    in the same order."""
    scheme = buyer_optimal_scheme(dist)
    assert scheme.entries == reference_buyer_optimal_scheme(dist).entries
    return scheme


class TestBuyerOptimalPeeling:
    @given(structured_priors())
    @settings(max_examples=20, deadline=None)
    def test_structured_families(self, case):
        family, dist = case
        scheme = buyer_optimal_scheme(dist)
        total = scheme.total_surplus
        assert mixture(scheme) == dist.masses
        assert is_efficient(scheme)
        lows = [s.lowest_index for s in scheme.signals]
        assert len(lows) == len(set(lows)) <= dist.n
        revenues = dist.posted_revenues
        assert total == dist.expected_value - max(revenues)
        assert scheme_surplus(scheme).total == total
        tied = {i for i, r in enumerate(revenues) if r == max(revenues)}
        for signal in scheme.signals:
            assert tied <= {i for i, _ in support(signal)}
        if family == "equal_revenue":
            assert scheme.entries == no_signal(dist).entries

    def test_equals_the_reference_on_the_corpus(self, corpus):
        for dist in corpus:
            assert_peels_like_the_reference(dist)

    @given(structured_priors(max_n=40))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_reference_on_structured_priors(self, case):
        _, dist = case
        assert_peels_like_the_reference(dist)

    @pytest.mark.parametrize("family", perfbench_module("instances").FAMILIES)
    def test_equals_the_reference_on_benchmark_families(self, family):
        make_instance = perfbench_module("instances").make_instance
        for n in range(1, 41):
            payload = make_instance(family, n, random.Random(f"peel:{family}:{n}"))
            dist = ValueDistribution.from_pairs(payload["values"], payload["masses"])
            assert_peels_like_the_reference(dist)

    @pytest.mark.parametrize(
        "values, masses, signals",
        [
            # one value
            ([3], ["1"], 1),
            # equal revenue: every value leaves at one time, in one signal
            ([1, 2, 4], ["1/2", "1/4", "1/4"], 1),
            # the lowest value leaves together with the next one
            ([1, 2, 3], ["3/8", "1/8", "1/2"], 2),
            # 2 and 3 leave together, neither lowest, and 1 is re-rated against 4
            ([1, 2, 3, 4], ["1/2", "1/12", "1/24", "3/8"], 2),
            # 2 and 4 leave together, apart, and 1 and 3 are re-rated
            ([1, 2, 3, 4, 5], ["1/2", "1/12", "1/12", "1/40", "37/120"], 2),
        ],
    )
    def test_equal_leave_times(self, values, masses, signals):
        dist = ValueDistribution.from_pairs(values, masses)
        assert len(assert_peels_like_the_reference(dist).entries) == signals


def test_scheme_refuses_a_signal_of_another_distribution(running_example):
    other = ValueDistribution.from_pairs([1, 2, 5, 7], ["1/4"] * 4)
    entries = [(Signal.singleton(other, i), (1, 4)) for i in range(4)]
    with pytest.raises(MarketError) as refused:
        SignalingScheme(running_example, tuple(entries))
    assert str(refused.value) == "signal belongs to a different distribution"
