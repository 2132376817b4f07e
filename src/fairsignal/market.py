"""Core market model: value distributions, signals, schemes, posted prices.

All quantities are exact rationals: `fractions.Fraction`s, or reduced int
pairs where said so.  A signal is a
posterior over a subset of the value grid; a signaling scheme is a weighted
collection of signals whose mixture reproduces the prior exactly.  The
seller best-responds to each posterior with a posted price, breaking revenue
ties toward the lowest price.

A signal stores its posterior as reduced int pairs (numerator, positive
denominator), the form its readers take; ``Signal.support`` is its
`Fraction` view.  Accounting results are `Fraction`s, but `class_sums`,
which accounts for the entries (weight, posterior, price index) of every
scheme, takes and sums reduced int pairs: `pair_product` and `pair_sum`
keep a pair in lowest terms by `Fraction`'s own gcd steps, without an
object per operation.  `splitmatch`'s greedy runs its budgets on them
too, and so do `dot` (the expected value, a profile's total surplus) and
the posted revenues.  A `Signal` is priced when built: its price walk
compares revenues on its shares scaled to integers over one common
denominator (`common_denominator`).  A sign test reads a rational's
numerator rather than comparing it with 0 through `Fraction`'s generic
comparison.  `as_fraction` and `rational_pair` read a rational's text
through one parser.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str, float]

# Longest numerator or denominator, in decimal digits, read from outside.
# The CLI raises Python's int/str conversion limit to the same figure, so
# every rational it reads can also be printed.
MAX_INT_DIGITS = 100_000
# 2**bits < 10**MAX_INT_DIGITS for any int of at most this many bits
_MAX_RATIONAL_BITS = MAX_INT_DIGITS * 3_321_928 // 1_000_000
# raised for a rational derived from input, which the CLI reports as bad input
DERIVED_TOO_LONG = f"a derived rational is longer than {MAX_INT_DIGITS} digits"
# the exponent of a decimal literal, as Fraction reads it
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\Z")


def pair_product(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad) * (bn/bd) as a reduced pair.

    Both inputs must be reduced with positive denominators, as a
    `Fraction`'s numerator and denominator are; cross-cancelling first then
    leaves the product reduced.
    """
    g1 = math.gcd(an, bd)
    if g1 > 1:
        an //= g1
        bd //= g1
    g2 = math.gcd(bn, ad)
    if g2 > 1:
        bn //= g2
        ad //= g2
    return an * bn, ad * bd


def pair_sum(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad) + (bn/bd) as a reduced pair, for reduced inputs.

    Only the gcd of the denominators can divide the numerator of the sum
    over their lcm, so one more gcd against it reduces the sum.
    """
    g = math.gcd(ad, bd)
    if g == 1:
        return an * bd + ad * bn, ad * bd
    s = ad // g
    t = an * (bd // g) + bn * s
    g2 = math.gcd(t, g)
    if g2 == 1:
        return t, s * bd
    return t // g2, s * (bd // g2)


def dot(xs: Iterable[Fraction], ys: Iterable[Fraction]) -> Fraction:
    """Sum of x * y over the rationals of xs and ys in step, taken on
    reduced int pairs and made a `Fraction` once."""
    total = (0, 1)
    for x, y in zip(xs, ys):
        xy = pair_product(x.numerator, x.denominator, y.numerator, y.denominator)
        total = pair_sum(*total, *xy)
    return Fraction(*total)


def common_denominator(dens: Iterable[int]) -> Optional[int]:
    """Least common multiple of the denominators dens, or None once it
    passes the input limit: it is built one denominator at a time, so a
    hostile denominator stops it early."""
    den = 1
    for d in dens:
        if den % d:
            den = math.lcm(den, d)
            if den.bit_length() > _MAX_RATIONAL_BITS:
                return None
    return den


def pair_text(n: int, d: int) -> str:
    """The reduced pair n/d written as ``str`` writes the `Fraction`: "n"
    when d is 1, else "n/d"."""
    return str(n) if d == 1 else f"{n}/{d}"


class MarketError(Exception):
    """Base error for invalid market-model inputs."""


class InvalidDistribution(MarketError):
    """Raised when a value distribution violates its invariants."""


class InvariantViolation(MarketError):
    """Raised when a provable runtime guarantee fails; signals a bug."""


class PlausibilityError(MarketError):
    """Raised when a scheme's mixture does not reproduce the prior.

    ``index`` is the first value index at which the mixture differs.
    """

    def __init__(self, index: int, expected: Fraction, actual: Fraction):
        self.index = index
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"mixture mass at value index {index} is {actual}, expected {expected}"
        )


def _read_rational(x: Union[str, float]) -> tuple[int, int]:
    """Numerator and nonzero denominator of a rational's text, or of a
    float's shortest decimal repr, not necessarily reduced.

    "p" and "p/q" in decimal digits are read by int(), as Fraction would
    read them, under the same int/str limit; any other text goes to
    Fraction's own parser.  A decimal exponent that alone exceeds
    MAX_INT_DIGITS is refused before Fraction would build its power of ten.
    """
    text = x.strip() if isinstance(x, str) else repr(x)
    num, slash, den = text.partition("/")
    plain = num.isdecimal() and (den.isdecimal() or not slash)
    exponent = None if plain else _EXPONENT.search(text)
    if exponent is not None:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        # length first: int() of a long digit string is itself slow
        too_long = len(digits) > len(str(MAX_INT_DIGITS))
        if too_long or int(digits or 0) > MAX_INT_DIGITS:
            raise MarketError(f"rational longer than {MAX_INT_DIGITS} digits")
    try:
        if plain:
            n, d = int(num), int(den or 1)
            if d:
                return n, d
        else:
            value = Fraction(text)
            return value.numerator, value.denominator
    except (ValueError, ZeroDivisionError):
        pass
    raise MarketError(f"cannot read {x!r} as a rational")


def _check_length(n: int, d: int) -> None:
    """Refuse a rational read from input whose n or d passes MAX_INT_DIGITS."""
    if max(n.bit_length(), d.bit_length()) > _MAX_RATIONAL_BITS:
        raise MarketError(f"rational longer than {MAX_INT_DIGITS} digits")


def as_fraction(x: RationalLike) -> Fraction:
    """Convert to an exact Fraction.

    Strings may be "p/q" or decimal literals; floats are converted via their
    shortest decimal representation so that 0.1 becomes exactly 1/10.
    Anything else, a string or float that names no finite rational, or a
    numerator or denominator longer than MAX_INT_DIGITS digits raises
    MarketError (see `_read_rational`).
    """
    if isinstance(x, (str, float)):  # a file's rationals are strings, so first
        value = Fraction(*_read_rational(x))
    elif isinstance(x, Fraction):
        return x
    elif isinstance(x, bool):
        raise MarketError("bool is not a rational value")
    elif isinstance(x, int):
        value = Fraction(x)
    else:
        raise MarketError(f"cannot interpret {type(x).__name__} as a rational")
    _check_length(value.numerator, value.denominator)
    return value


def rational_pair(x: RationalLike) -> tuple[int, int]:
    """``as_fraction(x)`` as a reduced pair (numerator, positive
    denominator), under the same checks and messages; a string is read and
    reduced without building a Fraction."""
    if not isinstance(x, str):
        value = as_fraction(x)
        return value.numerator, value.denominator
    n, d = _read_rational(x)
    g = math.gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    _check_length(n, d)
    return n, d


@dataclass(frozen=True)
class ValueDistribution:
    """Discrete prior over buyer values v_1 < ... < v_n with positive masses."""

    values: tuple[Fraction, ...]
    masses: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise InvalidDistribution("support must be nonempty")
        if len(self.values) != len(self.masses):
            raise InvalidDistribution("values and masses must have equal length")
        for v in self.values:
            if v.numerator <= 0:
                raise InvalidDistribution(f"values must be positive, got {v}")
        for lo, hi in zip(self.values, self.values[1:]):
            if lo >= hi:
                raise InvalidDistribution("values must be strictly increasing")
        for f in self.masses:
            if f.numerator <= 0:
                raise InvalidDistribution(f"masses must be positive, got {f}")
        if self.cdf[-1] != 1:
            raise InvalidDistribution(f"masses sum to {self.cdf[-1]}, expected 1")

    @classmethod
    def from_pairs(
        cls,
        values: Iterable[RationalLike],
        masses: Iterable[RationalLike],
    ) -> "ValueDistribution":
        """Ingest raw values/masses.

        Values must be non-decreasing; duplicates are merged by summing
        masses and zero-mass values are dropped.
        """
        vs = [as_fraction(v) for v in values]
        fs = [as_fraction(f) for f in masses]
        if len(vs) != len(fs):
            raise InvalidDistribution("values and masses must have equal length")
        for f in fs:
            if f.numerator < 0:
                raise InvalidDistribution(f"masses must be non-negative, got {f}")
        for lo, hi in zip(vs, vs[1:]):
            if lo > hi:
                raise InvalidDistribution("values must be non-decreasing on input")
        merged_v: list[Fraction] = []
        merged_f: list[Fraction] = []
        for v, f in zip(vs, fs):
            if merged_v and v == merged_v[-1]:
                merged_f[-1] += f
            else:
                merged_v.append(v)
                merged_f.append(f)
        kept = [(v, f) for v, f in zip(merged_v, merged_f) if f.numerator > 0]
        if not kept:
            raise InvalidDistribution("no value carries positive mass")
        return cls(tuple(v for v, _ in kept), tuple(f for _, f in kept))

    @property
    def n(self) -> int:
        return len(self.values)

    @cached_property
    def cdf(self) -> tuple[Fraction, ...]:
        """F(v_i) for each i; the last entry is exactly 1.  Summed once."""
        out = []
        acc = Fraction(0)
        for f in self.masses:
            acc += f
            out.append(acc)
        return tuple(out)

    def posted_revenues(self) -> tuple[Fraction, ...]:
        """Revenue v_i * G(v_i) for each candidate posted price, with the
        tail mass G(v_i) = 1 - F(v_{i-1}) read off ``cdf``."""
        # 1 - n/d is (d - n)/d, in lowest terms when n/d is
        tails = [(1, 1)] + [(c.denominator - c.numerator, c.denominator) for c in self.cdf[:-1]]
        return tuple(
            Fraction(*pair_product(v.numerator, v.denominator, tn, td))
            for v, (tn, td) in zip(self.values, tails)
        )

    def expected_value(self) -> Fraction:
        return dot(self.values, self.masses)


@dataclass(frozen=True)
class Signal:
    """A posterior over the value grid, stored sparsely as (index, share).

    Each share is a reduced int pair (numerator, positive denominator), the
    form its readers take: the price walk, `class_sums` and the scheme
    file.  ``support`` gives the same posterior as `Fraction`s, built on
    first read.  ``optimal_price_index``, the revenue-maximizing price index
    (lowest tie first), is found when the signal is built, comparing
    revenues on the shares scaled to integers over their common
    denominator.
    """

    dist: ValueDistribution
    shares: tuple[tuple[int, tuple[int, int]], ...]
    optimal_price_index: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.shares:
            raise MarketError("signal support must be nonempty")
        seen = set()
        for i, (n, d) in self.shares:
            if not 0 <= i < self.dist.n:
                raise MarketError(f"support index {i} out of range")
            if i in seen:
                raise MarketError(f"duplicate support index {i}")
            seen.add(i)
            if n <= 0 or d <= 0:
                raise MarketError(f"support masses must be positive, got {pair_text(n, d)}")
        shares = tuple(sorted(self.shares))  # indices are distinct, so by index
        den = common_denominator(d for _, (_, d) in shares)
        if den is None:
            raise MarketError(f"signal denominator longer than {MAX_INT_DIGITS} digits")
        scaled = [n * (den // d) for _, (n, d) in shares]
        if sum(scaled) != den:
            total = Fraction(sum(scaled), den)
            raise MarketError(f"signal masses sum to {total}, expected 1")
        values = self.dist.values
        best_i = None
        best_num, best_den = 0, 1  # best revenue times den, as a fraction
        tail = den  # mass at index i and above, times den
        for (i, _), m in zip(shares, scaled):
            v = values[i]
            if best_i is None or v.numerator * tail * best_den > best_num * v.denominator:
                best_i, best_num, best_den = i, v.numerator * tail, v.denominator
            tail -= m
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "optimal_price_index", best_i)

    @classmethod
    def from_support(
        cls, dist: ValueDistribution, support: Iterable[tuple[int, Fraction]]
    ) -> "Signal":
        """The signal of a posterior given as (index, `Fraction` mass) pairs."""
        return cls(dist, tuple((i, (f.numerator, f.denominator)) for i, f in support))

    @classmethod
    def singleton(cls, dist: ValueDistribution, index: int) -> "Signal":
        return cls(dist, ((index, (1, 1)),))

    @cached_property
    def support(self) -> tuple[tuple[int, Fraction], ...]:
        """The shares as (index, `Fraction`) pairs, by index."""
        return tuple((i, Fraction(n, d)) for i, (n, d) in self.shares)

    @property
    def lowest_index(self) -> int:
        return self.shares[0][0]


def myerson(dist: ValueDistribution) -> tuple[Fraction, Fraction]:
    """Optimal posted price without signaling and its revenue.

    The seller's best response to the prior as a single posterior, so ties
    in revenue go to the lowest price, as for every signal.
    """
    k = Signal.from_support(dist, enumerate(dist.masses)).optimal_price_index
    return dist.values[k], dist.values[k] * (1 - dist.cdf[k - 1] if k else 1)


def class_sums(dist: ValueDistribution, entries: Iterable[tuple[tuple[int, int], Iterable, int]]):
    """Per-class sums of a scheme's entries ``(w, support, k)``: weight w of
    a posterior whose ``support`` gives each class i its share f, priced at
    v_k, so class i has mass w * f in the entry.  w and every f are reduced
    int pairs (numerator, positive denominator).

    Returns each class's unused prior mass (f_i less its mass in the
    entries) and unsold mass (k > i) as reduced pairs, and its expected
    surplus, the sum of w * f * (v_i - v_k) over k < i divided by f_i, as a
    `Fraction`.  Each sum runs share by share on reduced pairs; one whose
    denominator passes the input limit raises MarketError at once.
    """
    vn = [v.numerator for v in dist.values]
    vd = [v.denominator for v in dist.values]
    unused = [(f.numerator, f.denominator) for f in dist.masses]
    unsold = [(0, 1)] * dist.n
    gained = [(0, 1)] * dist.n
    for (wn, wd), support, k in entries:
        for i, (fn, fd) in support:
            mn, md = pair_product(wn, wd, fn, fd)
            unused[i] = un = moved = pair_sum(*unused[i], -mn, md)
            if k > i:
                unsold[i] = moved = pair_sum(*unsold[i], mn, md)
            elif k < i:
                gain = pair_sum(vn[i], vd[i], -vn[k], vd[k])
                gained[i] = moved = pair_sum(*gained[i], *pair_product(mn, md, *gain))
            if max(un[1], moved[1]).bit_length() > _MAX_RATIONAL_BITS:
                raise MarketError(DERIVED_TOO_LONG)
    surpluses = tuple(
        Fraction(tn * f.denominator, td * f.numerator)
        for (tn, td), f in zip(gained, dist.masses)
    )
    return unused, unsold, surpluses


@dataclass(frozen=True)
class SignalingScheme:
    """Weighted signals whose mixture equals the prior exactly.

    The weights are not summed: each posterior sums to 1, so the weights
    sum to the mixture's total, which the check that no class has unused
    prior mass makes 1.  Each signal is one `class_sums` entry, priced at
    its optimal price; ``surpluses`` holds each class's expected surplus and
    ``revenue`` the seller's expected revenue, which follows from the
    classes' unsold mass and surplus (see `scheme_revenue`).
    """

    dist: ValueDistribution
    entries: tuple[tuple[Signal, Fraction], ...]
    surpluses: tuple[Fraction, ...] = field(init=False, compare=False, repr=False)
    revenue: Fraction = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        dist = self.dist
        for signal, weight in self.entries:
            if signal.dist is not dist and signal.dist != dist:
                raise MarketError("signal belongs to a different distribution")
            if weight.numerator <= 0:
                raise MarketError(f"signal weights must be positive, got {weight}")
        priced = (
            ((w.numerator, w.denominator), s.shares, s.optimal_price_index)
            for s, w in self.entries
        )
        unused, unsold, surpluses = class_sums(dist, priced)
        for i, ((un, ud), f) in enumerate(zip(unused, dist.masses)):
            if un:
                raise PlausibilityError(i, f, f - Fraction(un, ud))
        self._set_surpluses_and_revenue(unsold, surpluses)

    @classmethod
    def efficient(cls, dist: ValueDistribution, entries, surpluses) -> "SignalingScheme":
        """Entries their maker summed to the prior and to ``surpluses`` through `class_sums`,
        each sold at its lowest support so that no class is unsold; none is summed again."""
        scheme = object.__new__(cls)
        object.__setattr__(scheme, "dist", dist)
        object.__setattr__(scheme, "entries", entries)
        scheme._set_surpluses_and_revenue([(0, 1)] * dist.n, surpluses)
        return scheme

    def _set_surpluses_and_revenue(self, unsold, surpluses) -> None:
        revenue = (0, 1)  # see scheme_revenue
        for v, f, (un, ud), s in zip(self.dist.values, self.dist.masses, unsold, surpluses):
            sold = pair_sum(f.numerator, f.denominator, -un, ud)
            kept = pair_product(f.numerator, f.denominator, s.numerator, s.denominator)
            revenue = pair_sum(*revenue, *pair_product(v.numerator, v.denominator, *sold))
            revenue = pair_sum(*revenue, -kept[0], kept[1])
        object.__setattr__(self, "surpluses", surpluses)
        object.__setattr__(self, "revenue", Fraction(*revenue))

    @property
    def signals(self) -> tuple[Signal, ...]:
        return tuple(s for s, _ in self.entries)


@dataclass(frozen=True)
class SurplusProfile:
    """Per-value expected consumer surplus under some scheme."""

    dist: ValueDistribution
    surpluses: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.surpluses) != self.dist.n:
            raise MarketError("one surplus per value required")
        for cs in self.surpluses:
            if cs.numerator < 0:
                raise MarketError(f"surpluses must be non-negative, got {cs}")

    def total(self) -> Fraction:
        """Mass-weighted total consumer surplus, summed once per profile."""
        return self._total

    @cached_property
    def _total(self) -> Fraction:
        return dot(self.dist.masses, self.surpluses)


def scheme_surplus(scheme: SignalingScheme) -> SurplusProfile:
    """Expected consumer surplus of each value class under any scheme."""
    return SurplusProfile(scheme.dist, scheme.surpluses)


def scheme_revenue(scheme: SignalingScheme) -> Fraction:
    """Expected revenue, from the mass sold and the surplus kept: a unit of
    class i that sells pays v_i less its buyer's surplus, so revenue is
    sum_i v_i (f_i - unsold_i) - sum_i f_i s_i, with unsold_i the class's
    mass in signals priced above v_i and s_i its surplus."""
    return scheme.revenue


def is_efficient(scheme: SignalingScheme) -> bool:
    """True iff every signal's optimal price is its lowest support value."""
    return all(s.optimal_price_index == s.lowest_index for s in scheme.signals)


def is_monotone(profile: SurplusProfile) -> bool:
    """True iff expected surplus is non-decreasing in buyer value."""
    return all(a <= b for a, b in zip(profile.surpluses, profile.surpluses[1:]))


def scheme_from_rows(
    dist: ValueDistribution, rows: Sequence[Mapping[int, Fraction]]
) -> SignalingScheme:
    """One signal per non-empty row, in row order, weighted by its total.

    Each row maps value indices to positive masses; the signal's posterior
    is the row divided by its total.
    """
    entries = []
    for row in rows:
        if not row:
            continue
        weight = sum(row.values(), Fraction(0))
        signal = Signal.from_support(dist, ((i, m / weight) for i, m in sorted(row.items())))
        entries.append((signal, weight))
    return SignalingScheme(dist, tuple(entries))


def full_revelation(dist: ValueDistribution) -> SignalingScheme:
    """Reveal the exact value: one singleton signal per value."""
    return SignalingScheme(
        dist,
        tuple((Signal.singleton(dist, i), f) for i, f in enumerate(dist.masses)),
    )


def no_signal(dist: ValueDistribution) -> SignalingScheme:
    """Reveal nothing: the prior itself as a single signal."""
    signal = Signal.from_support(dist, enumerate(dist.masses))
    return SignalingScheme(dist, ((signal, Fraction(1)),))


def buyer_optimal_scheme(dist: ValueDistribution) -> tuple[SignalingScheme, Fraction]:
    """Scheme maximizing total consumer surplus, and that maximum E[v] - R*.

    Equal-revenue peeling (Bergemann, Brooks and Morris, AER 2015): subtract
    from the residual, as far as it allows, the segment with tail mass
    s_1 / s_j at each live value s_1 < ... < s_k, and drop the values that
    run out.  A segment costs every live price the same revenue, so R* is
    spent exactly, tied Myerson prices stay live and every segment sells at
    its lowest support.  Segments sharing a lowest support are merged into
    one signal, which still sells there; the scheme is built once and its
    efficiency and total are re-checked.
    """
    residual = dict(enumerate(dist.masses))  # live index -> mass left
    rows: list[dict[int, Fraction]] = [dict() for _ in range(dist.n)]
    for _ in range(dist.n):  # at most n rounds
        if not residual:
            break
        live = list(residual)
        tails = [dist.values[live[0]] / dist.values[i] for i in live] + [Fraction(0)]
        segment = tuple(zip(live, (a - b for a, b in zip(tails, tails[1:]))))
        t = min(residual[i] / q for i, q in segment)
        row = rows[live[0]]
        for i, q in segment:
            mass = t * q
            row[i] = row.get(i, Fraction(0)) + mass
            residual[i] -= mass
            if not residual[i].numerator:
                del residual[i]
    scheme = scheme_from_rows(dist, rows)
    total = scheme_surplus(scheme).total()
    best = dist.expected_value() - myerson(dist)[1]
    if total != best or not is_efficient(scheme):
        raise InvariantViolation(f"buyer-optimal surplus {total} != {best} or inefficient")
    return scheme, total
