"""Core market model: value distributions, signals, signaling schemes
and their accounting, posted prices, and the reading of rationals.

Every quantity is an exact rational.  Where the arithmetic runs hot it is
a reduced int pair (numerator, positive denominator) rather than a
`Fraction`, kept in lowest terms by `pair_product` and `pair_sum`;
`class_sums` keeps its running sums unreduced and reduces each once, and
a long reduced pair becomes a `Fraction` through `reduced_fraction`,
with no second gcd.
"""

from __future__ import annotations

import heapq
import math
import numbers
import re
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Optional, Sequence, Union

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


def _lcm_sum(an: int, ad: int, bn: int, bd: int) -> tuple[int, int]:
    """(an/ad) + (bn/bd) over lcm(ad, bd), not reduced, for positive
    denominators.  When bd divides ad it takes one division and no gcd."""
    q, r = divmod(ad, bd)
    if not r:
        return an + bn * q, ad
    g = math.gcd(ad, bd)
    s = bd // g
    return an * s + bn * (ad // g), ad * s


def _reduced(n: int, d: int) -> tuple[int, int]:
    """n/d in lowest terms, for a positive d."""
    g = math.gcd(n, d)
    return (n // g, d // g) if g > 1 else (n, d)


class _Rational:
    """Registered as a `numbers.Rational`, so that `Fraction` copies a
    subclass's numerator and denominator, with no gcd.  The view below
    subclasses it rather than being registered itself: the ABC caches a
    registered class's subclasses, but looks each registered class up in
    its registry again at every isinstance."""

    __slots__ = ()


numbers.Rational.register(_Rational)


class _ReducedPair(_Rational):
    """A reduced pair, as `reduced_fraction` hands it to `Fraction`."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, n: int, d: int):
        self.numerator = n
        self.denominator = d


def reduced_fraction(n: int, d: int) -> Fraction:
    """The `Fraction` of n/d, already in lowest terms with d > 0, made
    without the gcd ``Fraction(n, d)`` runs.  That gcd is the cost on long
    pairs; on short ones ``Fraction(n, d)`` is the cheaper call."""
    return Fraction(_ReducedPair(n, d))


def dot(xs: Iterable[Fraction], ys: Iterable[Fraction]) -> Fraction:
    """Sum of x * y over the rationals of xs and ys in step, taken on
    reduced int pairs and made a `Fraction` once."""
    total = (0, 1)
    for x, y in zip(xs, ys):
        xy = pair_product(x.numerator, x.denominator, y.numerator, y.denominator)
        total = pair_sum(*total, *xy)
    return reduced_fraction(*total)


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


class Record:
    """An immutable record.  A subclass declares its fields once, as
    annotations.  The constructor takes them in that order, by position or
    by keyword, each required, less those named in ``_derived``, which the
    subclass's ``__post_init__`` sets; it binds each through
    ``object.__setattr__``, then calls ``__post_init__``, where a subclass
    has its checks.  Equality, hash and repr read the fields named in
    ``_compared``, by default the constructor's, in order, and no other: a
    derived field, or a solver's working state, is left out.  Assigning or
    deleting any attribute raises AttributeError.
    """

    _fields = _compared = _derived = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        annotated = cls.__dict__.get("__annotations__", ())
        cls._fields = tuple(name for name in annotated if name not in cls._derived)
        if "_compared" not in cls.__dict__:
            cls._compared = cls._fields

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The constructor fields' values in order, from ``args``, then
        ``kwargs``, refused as a function with these parameters would
        refuse them."""
        name = cls.__qualname__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} arguments, {len(args)} given")
        values = list(args)
        for field in cls._fields[len(args):]:
            if field not in kwargs:
                raise TypeError(f"{name}() missing required argument {field!r}")
            values.append(kwargs.pop(field))
        for field in kwargs:
            got = "multiple values for" if field in cls._fields else "an unexpected keyword"
            raise TypeError(f"{name}() got {got} argument {field!r}")
        return values

    def __post_init__(self):
        """A subclass's checks, and the fields it derives."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"


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

    Plain ASCII "p" and "p/q" are read by two int() calls, as Fraction
    would read them, under the same int/str limit; any other text goes to
    Fraction's own parser.  A decimal exponent that alone exceeds
    MAX_INT_DIGITS is refused before Fraction would build its power of ten.
    """
    text = x if isinstance(x, str) else repr(x)
    num, slash, den = text.partition("/")
    plain = text.isascii() and num.isdigit() and (den.isdigit() or not slash)
    if not plain:
        text = text.strip()
        exponent = _EXPONENT.search(text)
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


def rational_pair(x: RationalLike) -> tuple[int, int]:
    """An outside rational as a reduced pair (numerator, positive
    denominator).

    Strings may be "p/q" or decimal literals; floats are read via their
    shortest decimal representation so that 0.1 becomes exactly 1/10; a
    Fraction is taken as it is.  Anything else, a string or float that
    names no finite rational, or a numerator or denominator longer than
    MAX_INT_DIGITS digits raises MarketError (see `_read_rational`).
    """
    if isinstance(x, (str, float)):  # a file's rationals are strings, so first
        n, d = _reduced(*_read_rational(x))
    elif isinstance(x, Fraction):
        return x.numerator, x.denominator
    elif isinstance(x, bool):
        raise MarketError("bool is not a rational value")
    elif isinstance(x, int):
        n, d = x, 1
    else:
        raise MarketError(f"cannot interpret {type(x).__name__} as a rational")
    if max(n.bit_length(), d.bit_length()) > _MAX_RATIONAL_BITS:
        raise MarketError(f"rational longer than {MAX_INT_DIGITS} digits")
    return n, d


def as_fraction(x: RationalLike) -> Fraction:
    """The exact Fraction of x, read by `rational_pair`."""
    return Fraction(*rational_pair(x))


class ValueDistribution(Record):
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
        for lo, hi in zip(self.values, self.values[1:]):  # lo >= hi, cross-multiplied
            if lo.numerator * hi.denominator >= hi.numerator * lo.denominator:
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
        masses and zero-mass values are dropped.  Each value is compared
        with the one before it once, by integer cross products, which both
        checks the order and finds the duplicates.
        """
        vs = [as_fraction(v) for v in values]
        fs = [as_fraction(f) for f in masses]
        if len(vs) != len(fs):
            raise InvalidDistribution("values and masses must have equal length")
        for f in fs:
            if f.numerator < 0:
                raise InvalidDistribution(f"masses must be non-negative, got {f}")
        # the sign of hi - lo for each value after the first
        order = [
            hi.numerator * lo.denominator - lo.numerator * hi.denominator
            for lo, hi in zip(vs, vs[1:])
        ]
        if any(d < 0 for d in order):
            raise InvalidDistribution("values must be non-decreasing on input")
        merged_v: list[Fraction] = vs[:1]
        merged_f: list[Fraction] = fs[:1]
        for v, f, d in zip(vs[1:], fs[1:], order):
            if d:
                merged_v.append(v)
                merged_f.append(f)
            else:
                merged_f[-1] += f
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
        return tuple(accumulate(self.masses))

    @cached_property
    def posted_revenues(self) -> tuple[Fraction, ...]:
        """Revenue v_i * G(v_i) for each candidate posted price, with the
        tail mass G(v_i) = 1 - F(v_{i-1}) read off ``cdf``.  Computed once
        per distribution."""
        # 1 - n/d is (d - n)/d, in lowest terms when n/d is
        tails = [(1, 1)] + [(c.denominator - c.numerator, c.denominator) for c in self.cdf[:-1]]
        return tuple(
            Fraction(*pair_product(v.numerator, v.denominator, tn, td))
            for v, (tn, td) in zip(self.values, tails)
        )

    @cached_property
    def expected_value(self) -> Fraction:
        """E[v], summed once per distribution."""
        return dot(self.values, self.masses)

    @cached_property
    def myerson(self) -> tuple[Fraction, Fraction]:
        """Optimal posted price without signaling and its revenue, read off
        ``posted_revenues``.

        The seller's best response to the prior as a single posterior, so
        ties in revenue go to the lowest price, as for every signal: ``max``
        keeps the first of equal revenues.
        """
        revenues = self.posted_revenues
        k = max(range(self.n), key=revenues.__getitem__)
        return self.values[k], revenues[k]


class Signal(Record):
    """A posterior over the value grid, stored sparsely as (index, share).

    Each share is a reduced int pair (numerator, positive denominator), the
    form its readers take: the price walk, `class_sums` and the scheme
    file.  ``optimal_price_index``, the revenue-maximizing price index
    (lowest tie first), is found when the signal is built, comparing
    revenues on the shares scaled to integers over their common
    denominator.
    """

    _derived = ("optimal_price_index",)
    dist: ValueDistribution
    shares: tuple[tuple[int, tuple[int, int]], ...]
    optimal_price_index: int

    def __post_init__(self):
        shares = self.shares
        if not shares:
            raise MarketError("signal support must be nonempty")
        size = self.dist.n
        seen = set()
        for i, (n, d) in shares:
            if not 0 <= i < size:
                raise MarketError(f"support index {i} out of range")
            if i in seen:
                raise MarketError(f"duplicate support index {i}")
            seen.add(i)
            if n <= 0 or d <= 0:
                raise MarketError(f"support masses must be positive, got {pair_text(n, d)}")
        values = self.dist.values
        (i, (n, d)), (j, (m, e)) = shares[0], shares[-1]
        short = len(shares) <= 2 and e == d  # one share, or two over one denominator
        if short:
            den = d if d.bit_length() <= _MAX_RATIONAL_BITS else None
        else:
            den = common_denominator(d for _, (_, d) in shares)
        if den is None:
            raise MarketError(f"signal denominator longer than {MAX_INT_DIGITS} digits")
        if short:  # priced without the sort and the walk
            if i > j:
                shares, i, n, j, m = shares[::-1], j, m, i, n
            vi, vj = values[i], values[j]
            # v_i sells all d of d, v_j the d - n above v_i; a tie goes to v_i
            sells_j = vj.numerator * (d - n) * vi.denominator > vi.numerator * d * vj.denominator
            best_i, tail = j if sells_j else i, d - n - (m if j != i else 0)
        else:
            shares = tuple(sorted(shares))  # indices are distinct, so by index
            best_i = None
            best_num, best_den = 0, 1  # best revenue times den, as a fraction
            tail = den  # mass at index i and above, times den; 0 past the last
            for i, (n, d) in shares:
                v = values[i]
                if best_i is None or v.numerator * tail * best_den > best_num * v.denominator:
                    best_i, best_num, best_den = i, v.numerator * tail, v.denominator
                tail -= n * (den // d)
        if tail:
            raise MarketError(f"signal masses sum to {Fraction(den - tail, den)}, expected 1")
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "optimal_price_index", best_i)

    @classmethod
    def singleton(cls, dist: ValueDistribution, index: int) -> "Signal":
        return cls(dist, ((index, (1, 1)),))

    @property
    def lowest_index(self) -> int:
        return self.shares[0][0]


def class_sums(dist: ValueDistribution, entries: Iterable[tuple[tuple[int, int], Iterable, int]]):
    """Per-class sums of a scheme's entries ``(w, support, k)``: weight w of
    a posterior whose ``support`` gives each class i its share f, priced at
    v_k, so class i has mass w * f in the entry.  w and every f are reduced
    int pairs (numerator, positive denominator).

    Returns each class's unused prior mass (f_i less its mass in the
    entries) and unsold mass (k > i) as reduced pairs, its expected
    surplus, the sum of w * f * (v_i - v_k) over k < i divided by f_i, and
    the surpluses' mass-weighted total, the undivided sums summed, as
    `Fraction`s made from their reduced pairs with no second gcd
    (`reduced_fraction`).  Each class's sums run share by share as pairs over the
    lcm of their terms' denominators (`_lcm_sum`), each term its plain
    product, and each is reduced once, at the end; the total is summed
    class by class from the reduced undivided surplus sums.  A
    sum whose reduced denominator passes the input limit raises
    MarketError at once; a running denominator is a multiple of it, so
    the class's sums are reduced and checked only when one passes.
    """
    vn = [v.numerator for v in dist.values]
    vd = [v.denominator for v in dist.values]
    unused = [f.as_integer_ratio() for f in dist.masses]
    unsold = [(0, 1)] * dist.n
    gained = [(0, 1)] * dist.n
    for (wn, wd), support, k in entries:
        for i, (fn, fd) in support:
            mn, md = wn * fn, wd * fd
            unused[i] = un = moved = _lcm_sum(*unused[i], -mn, md)
            if k > i:
                unsold[i] = moved = _lcm_sum(*unsold[i], mn, md)
            elif k < i:  # m * (v_i - v_k)
                gn, gd = vn[i] * vd[k] - vn[k] * vd[i], vd[i] * vd[k]
                gained[i] = moved = _lcm_sum(*gained[i], mn * gn, md * gd)
            if max(un[1], moved[1]).bit_length() > _MAX_RATIONAL_BITS:
                for sums in (unused, unsold, gained):
                    sums[i] = _reduced(*sums[i])
                    if sums[i][1].bit_length() > _MAX_RATIONAL_BITS:
                        raise MarketError(DERIVED_TOO_LONG)
    unused = [_reduced(*u) for u in unused]
    unsold = [_reduced(*u) for u in unsold]
    gained = [_reduced(*g) for g in gained]
    surpluses = tuple(
        reduced_fraction(*pair_product(*g, f.denominator, f.numerator))
        for g, f in zip(gained, dist.masses)
    )
    total = (0, 1)
    for g in gained:
        total = pair_sum(*total, *g)
        if total[1].bit_length() > _MAX_RATIONAL_BITS:
            raise MarketError(DERIVED_TOO_LONG)
    return unused, unsold, surpluses, reduced_fraction(*total)


class SignalingScheme(Record):
    """Weighted signals whose mixture equals the prior exactly.

    Each weight is a reduced int pair (numerator, positive denominator), as
    each share is.  The weights are not summed: each posterior sums to 1,
    so the weights sum to the mixture's total, which the check that no
    class has unused prior mass makes 1.  Each signal is one `class_sums`
    entry, priced at its optimal price; ``surpluses`` holds each class's
    expected surplus, ``total_surplus`` their mass-weighted total, and
    ``revenue`` the seller's expected revenue (see `scheme_revenue`).
    """

    _derived = ("surpluses", "total_surplus", "revenue")
    dist: ValueDistribution
    entries: tuple[tuple[Signal, tuple[int, int]], ...]
    surpluses: tuple[Fraction, ...]
    total_surplus: Fraction
    revenue: Fraction

    def __post_init__(self):
        dist = self.dist
        for signal, (n, d) in self.entries:
            if signal.dist is not dist and signal.dist != dist:
                raise MarketError("signal belongs to a different distribution")
            if n <= 0 or d <= 0:
                raise MarketError(f"signal weights must be positive, got {pair_text(n, d)}")
        priced = ((w, s.shares, s.optimal_price_index) for s, w in self.entries)
        unused, unsold, surpluses, total = class_sums(dist, priced)
        for i, ((un, ud), f) in enumerate(zip(unused, dist.masses)):
            if un:
                raise PlausibilityError(i, f, f - Fraction(un, ud))
        self._set_surpluses_and_revenue(unsold, surpluses, total)

    @classmethod
    def efficient(cls, dist: ValueDistribution, entries, surpluses, total) -> "SignalingScheme":
        """The scheme of entries their maker summed to the prior, to
        ``surpluses`` and their ``total`` through `class_sums`, each sold
        at its lowest support so that no class is unsold.  It skips the
        constructor's mixture check and the `class_sums` that re-derives
        the sums; its one maker, `splitmatch.DecomposedScheme.to_signaling_scheme`,
        has them done already: the stage fills every unused mass with a
        singleton and raises on an oversubscribed value, and each binary's
        signal is checked to be priced at its giver."""
        scheme = object.__new__(cls)
        object.__setattr__(scheme, "dist", dist)
        object.__setattr__(scheme, "entries", entries)
        scheme._set_surpluses_and_revenue((), surpluses, total)
        return scheme

    def _set_surpluses_and_revenue(self, unsold, surpluses, total) -> None:
        """Set the derived fields, revenue as `scheme_revenue` states it;
        ``unsold`` holds reduced pairs, one per class, or none if all sell."""
        dist = self.dist
        ev = dist.expected_value
        revenue = pair_sum(ev.numerator, ev.denominator, -total.numerator, total.denominator)
        for v, (un, ud) in zip(dist.values, unsold):
            if un:
                revenue = pair_sum(*revenue, *pair_product(-v.numerator, v.denominator, un, ud))
        object.__setattr__(self, "surpluses", surpluses)
        object.__setattr__(self, "total_surplus", total)
        object.__setattr__(self, "revenue", reduced_fraction(*revenue))

    @property
    def signals(self) -> tuple[Signal, ...]:
        return tuple(s for s, _ in self.entries)


def scheme_revenue(scheme: SignalingScheme) -> Fraction:
    """Expected revenue, the whole pie less what is not sold and what the
    buyers keep: a unit of class i that sells pays v_i less its buyer's
    surplus, so revenue is E[v] - sum_i v_i unsold_i - CS, with unsold_i
    the class's mass in signals priced above v_i and CS = sum_i f_i s_i
    the total consumer surplus.  An efficient scheme sells everything, so
    its revenue is E[v] - CS."""
    return scheme.revenue


def is_efficient(scheme: SignalingScheme) -> bool:
    """True iff every signal's optimal price is its lowest support value."""
    return all(s.optimal_price_index == s.lowest_index for s in scheme.signals)


def scheme_from_rows(
    dist: ValueDistribution, rows: Iterable[Sequence[tuple[int, tuple[int, int]]]]
) -> SignalingScheme:
    """One signal per non-empty row of (value index, positive mass) pairs,
    each mass a reduced int pair, in row order and weighted by its total:
    the signal's posterior is the row divided by its total, on pairs."""
    entries = []
    for row in rows:
        if not row:
            continue
        wn, wd = 0, 1
        for _, mass in row:
            wn, wd = pair_sum(wn, wd, *mass)
        shares = tuple((i, pair_product(mn, md, wd, wn)) for i, (mn, md) in row)
        entries.append((Signal(dist, shares), (wn, wd)))
    return SignalingScheme(dist, tuple(entries))


def full_revelation(dist: ValueDistribution) -> SignalingScheme:
    """Reveal the exact value: one singleton signal per value."""
    masses = enumerate(dist.masses)
    return scheme_from_rows(dist, ([(i, f.as_integer_ratio())] for i, f in masses))


def no_signal(dist: ValueDistribution) -> SignalingScheme:
    """Reveal nothing: the prior itself as a single signal."""
    masses = enumerate(dist.masses)
    return scheme_from_rows(dist, [[(i, f.as_integer_ratio()) for i, f in masses]])


class _Time(tuple):
    """A time as a reduced int pair, ordered as the rational it is; equal
    times are equal tuples, so a heap of (time, index) breaks ties by index."""

    __slots__ = ()

    def __lt__(self, other):
        return self[0] * other[1] < other[0] * self[1]


def buyer_optimal_scheme(dist: ValueDistribution) -> SignalingScheme:
    """Scheme maximizing total consumer surplus, E[v] - R* in all.

    Equal-revenue peeling (Bergemann, Brooks and Morris, AER 2015): a round
    subtracts from the residual, as far as it allows, t times the segment
    with tail mass s_1 / s_j at each live value s_1 < ... < s_k.  A segment
    costs every live price the same revenue, so R* is spent exactly, tied
    Myerson prices stay live and every segment sells at its lowest support.
    The rounds sharing a lowest support make one row and one signal.  A
    mixture, efficiency or total that fails its re-check is a bug.

    The rounds run as events on reduced int pairs.  As time tau grows by
    t * s_1 per round, a live value v_i loses mass at the constant rate
    1/v_i - 1/v_j, v_j its live successor (1/v_i at the top), until it runs
    out.  The rate reads only v_i's successor, so a value that leaves
    changes the rate and leave time of its live predecessor alone.  A heap
    pops leave times, and the values with an equal one leave together, as
    one round's minimum drops them together: none stays live with nothing
    left, to give a zero share or an empty row.  When the lowest live value
    leaves, its row closes, and each value live at its opening gets what it
    lost since.  Each leaver pushes at most one time, so the work is
    O(n log n) plus the size of the scheme.
    """
    n = dist.n
    inv = [(v.denominator, v.numerator) for v in dist.values]  # 1/v_i
    # the live values as a ring through n, whose successor is the lowest
    prev, succ = [n, *range(n)], [*range(1, n + 1), 0]
    rate, leave, heap = [(1, 1)] * n, [None] * (n + 1), []  # None once gone, and at n

    def left_at(i, tau):  # the mass live value i has left at tau
        return pair_product(*rate[i], *pair_sum(*leave[i], -tau[0], tau[1]))

    def rerate(i, tau, left):  # from its mass left at tau and its live successor
        j = succ[i]
        rate[i] = rn, rd = inv[i] if j == n else pair_sum(*inv[i], -inv[j][0], inv[j][1])
        leave[i] = _Time(pair_sum(*tau, *pair_product(*left, rd, rn)))
        heapq.heappush(heap, (leave[i], i))

    opened = [f.as_integer_ratio() for f in dist.masses]  # left as the row opened
    for i in range(n):
        rerate(i, (0, 1), opened[i])
    row, rows = [], []  # the open row, the closed rows
    while heap:
        tau, low, group = heap[0][0], succ[n], []
        while heap and heap[0][0] == tau:
            t, j = heapq.heappop(heap)
            if leave[j] is t:  # else re-rated since t was pushed
                leave[j] = None
                group.append(j)
        for j in reversed(group):  # from the top, so a predecessor is re-rated once
            p, s = prev[j], succ[j]
            succ[p], prev[s] = s, p
            if leave[p] is not None:
                rerate(p, tau, left_at(p, tau))
        row += [(j, opened[j]) for j in group]
        if succ[n] != low:  # the row's lowest value is gone
            j = succ[n]
            while j < n:
                left = left_at(j, tau)
                row.append((j, pair_sum(*opened[j], -left[0], left[1])))
                opened[j], j = left, succ[j]
            rows.append(row)
            row = []
    try:
        scheme = scheme_from_rows(dist, rows)
    except PlausibilityError as e:
        raise InvariantViolation(f"buyer-optimal mixture: {e}") from e
    total = scheme.total_surplus
    best = dist.expected_value - dist.myerson[1]
    if total != best or not is_efficient(scheme):
        raise InvariantViolation(f"buyer-optimal surplus {total} != {best} or inefficient")
    return scheme
