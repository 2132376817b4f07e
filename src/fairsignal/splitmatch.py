"""Greedy decomposition of a prior into equal-revenue binary signals.

Each value's mass is split into a giver half and a taker half.  The greedy
pass repeatedly pairs the lowest value with remaining giver budget to the
lowest higher value with remaining taker budget, emitting an equal-revenue
binary signal that exhausts at least one of the two budgets.  The prior
mass the binaries leave unused becomes singleton signals.  The resulting
scheme charges every buyer the lowest value in their signal, so the item
always sells.  A `DecomposedScheme` is built from its binaries alone and
accounts for itself through `market.class_sums`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .market import (
    InvariantViolation,
    MarketError,
    Signal,
    SignalingScheme,
    SurplusProfile,
    ValueDistribution,
    class_sums,
    pair_product,
    pair_sum,
)


@dataclass(frozen=True)
class BinarySignalEntry:
    """Equal-revenue binary signal on (v_giver, v_taker), weighted.

    The posterior puts mass 1 - v_g/v_t on the giver and v_g/v_t on the
    taker, so both posted prices yield revenue v_g and the seller charges
    the giver value.  The taker class therefore gains v_t - v_g.
    """

    giver: int
    taker: int
    weight: Fraction

    def __post_init__(self):
        if self.giver >= self.taker:
            raise MarketError("giver index must be below taker index")
        if self.weight <= 0:
            raise MarketError("weight must be positive")


@dataclass(frozen=True)
class SingletonEntry:
    index: int
    weight: Fraction

    def __post_init__(self):
        if self.weight <= 0:
            raise MarketError("weight must be positive")


@dataclass(frozen=True)
class DecomposedScheme:
    """A scheme made of equal-revenue binaries and singletons only.

    Only the binaries are given, in any sequence, stored as a tuple; the
    rest follows from their `class_sums` terms, two per binary, both priced
    at v_g: mass w - w * v_g/v_t on the giver and w * v_g/v_t on the taker.
    Value i's singleton weight is f_i minus the mass the binaries place on
    i, so the mixture matches the prior exactly; a value on which the
    binaries place more than f_i is an invariant violation.
    """

    dist: ValueDistribution
    binaries: tuple[BinarySignalEntry, ...]
    singletons: tuple[SingletonEntry, ...] = field(init=False, compare=False)
    surpluses: tuple[Fraction, ...] = field(init=False, compare=False)

    def __post_init__(self):
        dist = self.dist
        terms = []
        for b in self.binaries:
            g, t = b.giver, b.taker
            wn, wd = b.weight.numerator, b.weight.denominator
            vg, vt = dist.values[g], dist.values[t]
            ratio = pair_product(vg.numerator, vg.denominator, vt.denominator, vt.numerator)
            tn, td = pair_product(wn, wd, *ratio)
            terms += [(g, *pair_sum(wn, wd, -tn, td), g), (t, tn, td, g)]
        used, _, surpluses = class_sums(dist, terms)
        singletons = []
        for i, ((un, ud), f) in enumerate(zip(used, dist.masses)):
            wn, wd = pair_sum(f.numerator, f.denominator, -un, ud)
            if wn < 0:
                raise InvariantViolation(
                    f"value index {i} is oversubscribed by {Fraction(-wn, wd)}"
                )
            if wn > 0:
                singletons.append(SingletonEntry(i, Fraction(wn, wd)))
        object.__setattr__(self, "binaries", tuple(self.binaries))
        object.__setattr__(self, "singletons", tuple(singletons))
        object.__setattr__(self, "surpluses", surpluses)

    def surplus_profile(self) -> SurplusProfile:
        return SurplusProfile(self.dist, self.surpluses)

    def to_signaling_scheme(self) -> SignalingScheme:
        values = self.dist.values
        entries = []
        for b in self.binaries:
            ratio = values[b.giver] / values[b.taker]
            signal = Signal(self.dist, ((b.giver, 1 - ratio), (b.taker, ratio)))
            entries.append((signal, b.weight))
        for s in self.singletons:
            entries.append((Signal.singleton(self.dist, s.index), s.weight))
        return SignalingScheme(self.dist, tuple(entries))


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
    giver = [f / 2 for f in dist.masses]
    taker = list(giver)
    binaries: list[BinarySignalEntry] = []
    n = dist.n
    s = l = 0
    while True:
        while s < n and not giver[s] > 0:
            s += 1
        l = max(l, s + 1)
        while l < n and not taker[l] > 0:
            l += 1
        if l >= n:
            break
        ratio = dist.values[s] / dist.values[l]
        weight = min(giver[s] / (1 - ratio), taker[l] / ratio)
        binaries.append(BinarySignalEntry(s, l, weight))
        giver[s] -= weight * (1 - ratio)
        taker[l] -= weight * ratio
    return DecomposedScheme(dist, binaries)


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
