"""Core market model: value distributions, signals, schemes, posted prices.

All quantities are exact rationals (`fractions.Fraction`).  A signal is a
posterior over a subset of the value grid; a signaling scheme is a weighted
collection of signals whose mixture reproduces the prior exactly.  The
seller best-responds to each posterior with a posted price, breaking revenue
ties toward the lowest price.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

RationalLike = Union[Fraction, int, str, float]

# Longest numerator or denominator, in decimal digits, read from outside.
# The CLI raises Python's int/str conversion limit to the same figure, so
# every rational it reads can also be printed.
MAX_INT_DIGITS = 100_000
# 2**bits < 10**MAX_INT_DIGITS for any int of at most this many bits
_MAX_RATIONAL_BITS = MAX_INT_DIGITS * 3_321_928 // 1_000_000


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


def as_fraction(x: RationalLike) -> Fraction:
    """Convert to an exact Fraction.

    Strings may be "p/q" or decimal literals; floats are converted via their
    shortest decimal representation so that 0.1 becomes exactly 1/10.
    Anything else, a string or float that names no finite rational, or a
    numerator or denominator longer than MAX_INT_DIGITS digits raises
    MarketError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise MarketError("bool is not a rational value")
    if isinstance(x, int):
        value = Fraction(x)
    elif isinstance(x, (float, str)):
        text = repr(x) if isinstance(x, float) else x.strip()
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise MarketError(f"cannot read {x!r} as a rational") from None
    else:
        raise MarketError(f"cannot interpret {type(x).__name__} as a rational")
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    if bits > _MAX_RATIONAL_BITS:
        raise MarketError(f"rational longer than {MAX_INT_DIGITS} digits")
    return value


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
            if v <= 0:
                raise InvalidDistribution(f"values must be positive, got {v}")
        for lo, hi in zip(self.values, self.values[1:]):
            if lo >= hi:
                raise InvalidDistribution("values must be strictly increasing")
        for f in self.masses:
            if f <= 0:
                raise InvalidDistribution(f"masses must be positive, got {f}")
        if sum(self.masses) != 1:
            raise InvalidDistribution(f"masses sum to {sum(self.masses)}, expected 1")

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
            if f < 0:
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
        kept = [(v, f) for v, f in zip(merged_v, merged_f) if f > 0]
        if not kept:
            raise InvalidDistribution("no value carries positive mass")
        return cls(tuple(v for v, _ in kept), tuple(f for _, f in kept))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def cdf(self) -> tuple[Fraction, ...]:
        """F(v_i) for each i; the last entry is exactly 1."""
        out = []
        acc = Fraction(0)
        for f in self.masses:
            acc += f
            out.append(acc)
        return tuple(out)

    def posted_revenues(self) -> tuple[Fraction, ...]:
        """Revenue v_i * G(v_i) for each candidate posted price."""
        out = []
        tail = Fraction(1)
        for v, f in zip(self.values, self.masses):
            out.append(v * tail)
            tail -= f
        return tuple(out)

    def expected_value(self) -> Fraction:
        return sum((v * f for v, f in zip(self.values, self.masses)), Fraction(0))


def myerson(dist: ValueDistribution) -> tuple[Fraction, Fraction]:
    """Optimal posted price without signaling and its revenue.

    Ties in revenue are broken toward the lowest price.
    """
    best_i = 0
    revenues = dist.posted_revenues()
    for i in range(1, dist.n):
        if revenues[i] > revenues[best_i]:
            best_i = i
    return dist.values[best_i], revenues[best_i]


@dataclass(frozen=True)
class Signal:
    """A posterior over the value grid, stored sparsely as (index, mass)."""

    dist: ValueDistribution
    support: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        if not self.support:
            raise MarketError("signal support must be nonempty")
        seen = set()
        total = Fraction(0)
        for i, f in self.support:
            if not 0 <= i < self.dist.n:
                raise MarketError(f"support index {i} out of range")
            if i in seen:
                raise MarketError(f"duplicate support index {i}")
            seen.add(i)
            if f <= 0:
                raise MarketError(f"support masses must be positive, got {f}")
            total += f
        if total != 1:
            raise MarketError(f"signal masses sum to {total}, expected 1")
        object.__setattr__(
            self, "support", tuple(sorted(self.support, key=lambda p: p[0]))
        )

    @classmethod
    def from_mapping(
        cls, dist: ValueDistribution, support: Mapping[int, RationalLike]
    ) -> "Signal":
        return cls(dist, tuple((i, as_fraction(f)) for i, f in support.items()))

    @classmethod
    def singleton(cls, dist: ValueDistribution, index: int) -> "Signal":
        return cls(dist, ((index, Fraction(1)),))

    @property
    def lowest_index(self) -> int:
        return self.support[0][0]

    def _posted_price(self) -> tuple[int, Fraction]:
        """Revenue-maximizing price index, lowest tie first, and its revenue."""
        best_i = None
        best_rev = Fraction(0)
        tail = Fraction(1)
        for i, f in self.support:
            rev = self.dist.values[i] * tail
            if best_i is None or rev > best_rev:
                best_i, best_rev = i, rev
            tail -= f
        return best_i, best_rev

    def optimal_price_index(self) -> int:
        return self._posted_price()[0]

    def revenue(self) -> Fraction:
        return self._posted_price()[1]


@dataclass(frozen=True)
class SignalingScheme:
    """Weighted signals whose mixture equals the prior exactly."""

    dist: ValueDistribution
    entries: tuple[tuple[Signal, Fraction], ...]

    def __post_init__(self):
        total = Fraction(0)
        mixture = [Fraction(0)] * self.dist.n
        for signal, weight in self.entries:
            if signal.dist is not self.dist and signal.dist != self.dist:
                raise MarketError("signal belongs to a different distribution")
            if weight <= 0:
                raise MarketError(f"signal weights must be positive, got {weight}")
            total += weight
            for i, f in signal.support:
                mixture[i] += weight * f
        if total != 1:
            raise MarketError(f"weights sum to {total}, expected 1")
        for i, f in enumerate(self.dist.masses):
            if mixture[i] != f:
                raise PlausibilityError(i, f, mixture[i])

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
            if cs < 0:
                raise MarketError(f"surpluses must be non-negative, got {cs}")

    def total(self) -> Fraction:
        """Mass-weighted total consumer surplus."""
        return sum(
            (f * cs for f, cs in zip(self.dist.masses, self.surpluses)), Fraction(0)
        )


def scheme_surplus(scheme: SignalingScheme) -> SurplusProfile:
    """Expected consumer surplus of each value class under the scheme."""
    dist = scheme.dist
    totals = [Fraction(0)] * dist.n
    for signal, weight in scheme.entries:
        k = signal.optimal_price_index()
        price = dist.values[k]
        for i, f in signal.support:
            if i > k:
                totals[i] += weight * f * (dist.values[i] - price)
    return SurplusProfile(
        dist, tuple(t / f for t, f in zip(totals, dist.masses))
    )


def scheme_revenue(scheme: SignalingScheme) -> Fraction:
    return sum((w * s.revenue() for s, w in scheme.entries), Fraction(0))


def is_efficient(scheme: SignalingScheme) -> bool:
    """True iff every signal's optimal price is its lowest support value."""
    return all(s.optimal_price_index() == s.lowest_index for s in scheme.signals)


def is_monotone(profile: SurplusProfile) -> bool:
    """True iff expected surplus is non-decreasing in buyer value."""
    return all(a <= b for a, b in zip(profile.surpluses, profile.surpluses[1:]))


def canonicalize(scheme: SignalingScheme) -> SignalingScheme:
    """Rewrite a scheme into an efficient one with distinct lowest supports.

    Two steps: (1) every signal drops the mass below its posted price, which
    becomes singleton mass on the dropped values; (2) signals sharing a
    lowest support are merged.  Per-buyer expected surplus is unchanged and
    at most n signals remain, each posting its lowest support as the price.
    """
    dist = scheme.dist
    rows: list[dict[int, Fraction]] = [dict() for _ in range(dist.n)]
    for signal, weight in scheme.entries:
        k = signal.optimal_price_index()
        for i, f in signal.support:
            if i < k:
                rows[i][i] = rows[i].get(i, Fraction(0)) + weight * f
            else:
                rows[k][i] = rows[k].get(i, Fraction(0)) + weight * f
    entries = []
    for k in range(dist.n):
        if not rows[k]:
            continue
        weight = sum(rows[k].values(), Fraction(0))
        signal = Signal(
            dist, tuple((i, m / weight) for i, m in sorted(rows[k].items()))
        )
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
    signal = Signal(dist, tuple(enumerate(dist.masses)))
    return SignalingScheme(dist, ((signal, Fraction(1)),))


def buyer_optimal_scheme(dist: ValueDistribution) -> tuple[SignalingScheme, Fraction]:
    """Scheme maximizing total consumer surplus, and that maximum E[v] - R*.

    Equal-revenue peeling (Bergemann, Brooks and Morris, AER 2015): subtract
    from the residual, as far as it allows, the segment with tail mass
    s_1 / s_j at each live value s_1 < ... < s_k, and drop the values that
    run out.  A segment costs every live price the same revenue, so R* is
    spent exactly, tied Myerson prices stay live and every segment sells at
    its lowest support (both re-checked); `canonicalize` merges segments.
    """
    residual = dict(enumerate(dist.masses))  # live index -> mass left
    entries = []
    while residual and len(entries) < dist.n:  # at most n rounds
        live = list(residual)
        tails = [dist.values[live[0]] / dist.values[i] for i in live] + [Fraction(0)]
        segment = tuple(zip(live, (a - b for a, b in zip(tails, tails[1:]))))
        t = min(residual[i] / q for i, q in segment)
        for i, q in segment:
            residual[i] -= t * q
            if residual[i] == 0:
                del residual[i]
        entries.append((Signal(dist, segment), t))
    peeled = SignalingScheme(dist, tuple(entries))
    scheme = canonicalize(peeled)
    total = scheme_surplus(scheme).total()
    best = dist.expected_value() - myerson(dist)[1]
    if total != best or not is_efficient(peeled):
        raise InvariantViolation(f"buyer-optimal surplus {total} != {best} or inefficient")
    return scheme, total
