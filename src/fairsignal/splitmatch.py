"""Greedy decomposition of a prior into equal-revenue binary signals.

Each value's mass is split into a giver half and a taker half.  The greedy
pass repeatedly pairs the lowest value with remaining giver budget to the
lowest higher value with remaining taker budget, emitting an equal-revenue
binary signal (shares `binary_shares`) that exhausts at least one of the
two budgets; the prior mass the binaries leave unused becomes singletons.
Every buyer pays the lowest value in their signal, so the item always
sells.  A `DecomposedScheme` is built from its binaries alone and accounts
for itself once, through `market.class_sums`.

The greedy's budgets and a binary's shares are reduced int pairs, kept in
lowest terms by `market.pair_product` and `market.pair_sum`; each binary's
weight is a `Fraction`, reduced once by its constructor.  A binary's
shares are made once, by whoever makes the binary, and travel with it
through every stage and into its `Signal`.
"""

from __future__ import annotations

from fractions import Fraction

from .market import (
    InvariantViolation,
    MarketError,
    Record,
    Signal,
    SignalingScheme,
    ValueDistribution,
    class_sums,
    pair_product,
    pair_sum,
    reduced_fraction,
)


def binary_shares(
    dist: ValueDistribution, g: int, t: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Shares of the equal-revenue binary on (v_g, v_t), g < t, as reduced
    pairs: 1 - v_g/v_t on the giver and v_g/v_t on the taker."""
    vg, vt = dist.values[g], dist.values[t]
    rn, rd = pair_product(vg.numerator, vg.denominator, vt.denominator, vt.numerator)
    return (rd - rn, rd), (rn, rd)


class BinarySignalEntry(Record):
    """Equal-revenue binary signal on (v_giver, v_taker), weighted.

    Its posterior's ``shares`` (on the giver, on the taker) are
    `binary_shares`, so both posted prices yield revenue v_g and the
    seller charges the giver value.  The taker class therefore gains
    v_t - v_g.  The shares follow from the pair of values, so they take
    no part in comparisons; whoever makes the binary computes them once
    (the greedy or `ironing.smooth`'s re-pairing), and a reweighted binary
    keeps them.
    """

    _compared = ("giver", "taker", "weight")
    giver: int
    taker: int
    weight: Fraction
    shares: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        if self.giver >= self.taker:
            raise MarketError("giver index must be below taker index")
        if self.weight.numerator <= 0:
            raise MarketError("weight must be positive")


class SingletonEntry(Record):
    """The singleton signal on value ``index``, weighted: it reveals the
    value, sells at it and leaves its buyers no surplus."""

    index: int
    weight: Fraction

    def __post_init__(self):
        if self.weight.numerator <= 0:
            raise MarketError("weight must be positive")


class DecomposedScheme(Record):
    """A scheme made of equal-revenue binaries and singletons only.

    Only the binaries are given, as a tuple in any order; the
    rest follows from their `class_sums` entries, one per binary: its
    weight and the shares it carries, priced at v_g.  Value i's singleton
    weight is the prior mass the binaries leave unused on i, so the mixture
    matches the prior exactly; a value on which the binaries place more
    than f_i is an invariant violation.  ``surpluses`` holds each class's
    expected surplus and ``total_surplus`` their mass-weighted total.
    """

    _derived = ("singletons", "surpluses", "total_surplus")
    dist: ValueDistribution
    binaries: tuple[BinarySignalEntry, ...]
    singletons: tuple[SingletonEntry, ...]
    surpluses: tuple[Fraction, ...]
    total_surplus: Fraction

    def __post_init__(self):
        dist = self.dist
        entries = (
            (b.weight.as_integer_ratio(), zip((b.giver, b.taker), b.shares), b.giver)
            for b in self.binaries
        )
        unused, _, surpluses, total = class_sums(dist, entries)
        singletons = []
        for i, (un, ud) in enumerate(unused):
            if un < 0:
                raise InvariantViolation(
                    f"value index {i} is oversubscribed by {Fraction(-un, ud)}"
                )
            if un > 0:
                singletons.append(SingletonEntry(i, reduced_fraction(un, ud)))
        object.__setattr__(self, "singletons", tuple(singletons))
        object.__setattr__(self, "surpluses", surpluses)
        object.__setattr__(self, "total_surplus", total)

    def to_signaling_scheme(self) -> SignalingScheme:
        """Its signals, each binary's from the shares it carries and each
        weight as a reduced pair, with the stage's own sums, which price
        each binary at its giver."""
        entries = []
        for b in self.binaries:
            on_giver, on_taker = b.shares
            signal = Signal(self.dist, ((b.giver, on_giver), (b.taker, on_taker)))
            if signal.optimal_price_index != b.giver:
                raise InvariantViolation(f"{b} is not priced at its giver value")
            entries.append((signal, b.weight.as_integer_ratio()))
        for s in self.singletons:
            entries.append((Signal.singleton(self.dist, s.index), s.weight.as_integer_ratio()))
        return SignalingScheme.efficient(
            self.dist, tuple(entries), self.surpluses, self.total_surplus
        )


def split_and_match(dist: ValueDistribution) -> DecomposedScheme:
    """Decompose the prior into equal-revenue binaries plus singletons.

    Greedy pairing: the smallest index s with giver budget left is matched
    to the smallest index l > s with taker budget left; the signal weight is
    the largest value both budgets allow, so at least one budget hits zero
    each round.  Budgets only fall, so s and l are forward-only pointers
    and the pass takes O(n) rounds and comparisons.  The binaries come out
    in the order the greedy pass emits them, so they are also its ledger.
    """
    # remaining giver and taker budgets, each starting at half the prior mass
    giver = [pair_product(f.numerator, f.denominator, 1, 2) for f in dist.masses]
    taker = list(giver)
    binaries: list[BinarySignalEntry] = []
    n = dist.n
    s = l = 0
    while True:
        while s < n and giver[s][0] <= 0:
            s += 1
        l = max(l, s + 1)
        while l < n and taker[l][0] <= 0:
            l += 1
        if l >= n:
            break
        (gn, gd), (tn, td) = giver[s], taker[l]
        shares = binary_shares(dist, s, l)
        (p, r), (q, _) = shares  # p/r on the giver, q/r on the taker
        # the weight is the smaller of gn/gd / (p/r) and tn/td / (q/r): the
        # budget that binds is spent exactly, the other loses weight * share
        if gn * td * q <= tn * gd * p:
            weight = Fraction(gn * r, gd * p)
            giver[s] = (0, 1)
            mn, md = pair_product(weight.numerator, weight.denominator, q, r)
            taker[l] = pair_sum(tn, td, -mn, md)
        else:
            weight = Fraction(tn * r, td * q)
            taker[l] = (0, 1)
            mn, md = pair_product(weight.numerator, weight.denominator, p, r)
            giver[s] = pair_sum(gn, gd, -mn, md)
        binaries.append(BinarySignalEntry(s, l, weight, shares))
    return DecomposedScheme(dist, tuple(binaries))


def truncated_upper_bound(dist: ValueDistribution, k: int) -> Fraction:
    """Largest surplus the k lowest value classes can jointly receive.

    Their total value minus the best revenue a posted price extracts from
    that sub-population alone; k is 1-based.
    """
    if not 1 <= k <= dist.n:
        raise MarketError(f"k must be in [1, {dist.n}], got {k}")
    total_value = sum(
        (dist.values[i] * dist.masses[i] for i in range(k)), Fraction(0)
    )
    best = Fraction(0)
    tail = Fraction(0)
    for i in range(k - 1, -1, -1):
        tail += dist.masses[i]
        rev = dist.values[i] * tail
        if rev > best:
            best = rev
    return total_value - best
