"""Shared fixtures and test oracles: reference instances and schemes, the
random corpus, adversary witnesses, the max-min surplus LP and the
round-by-round buyer-optimal peeling."""

from __future__ import annotations

import importlib.util
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import strategies as st

from fairsignal import oracles
from fairsignal.lp import LinearProgram, solve_lp
from fairsignal.market import (
    MarketError,
    Signal,
    SignalingScheme,
    ValueDistribution,
    as_fraction,
    scheme_from_rows,
)
from fairsignal.splitmatch import BinarySignalEntry, binary_shares

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def perfbench_module(name: str):
    """A module of the benchmark, which is a directory of scripts, not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def running_example() -> ValueDistribution:
    """Four equally likely values 1, 2, 5, 6."""
    return ValueDistribution.from_pairs([1, 2, 5, 6], ["1/4"] * 4)


@pytest.fixture
def fig3_instance() -> ValueDistribution:
    return ValueDistribution.from_pairs(
        [1, 2, 3, 4, 6], ["0.1", "0.3", "0.3", "0.1", "0.2"]
    )


@pytest.fixture
def lifted_instance() -> ValueDistribution:
    """Three values 5, 23, 25 whose greedy stage leaves class 25 so far
    below its ironed level that smoothing lifts it (the smallest such
    instance of the corpus)."""
    return ValueDistribution.from_pairs([5, 23, 25], ["2/3", "1/6", "1/6"])


@pytest.fixture
def nonmonotone_scheme(running_example) -> SignalingScheme:
    """Surplus-maximizing scheme with surplus profile (0, 3/5, 2/5, 3).

    Every signal is an equal-revenue posterior on a suffix of its support,
    priced at its lowest value; the first signal is (1/2, 3/10, 1/30, 1/6)
    with weight 1/2.
    """
    d = running_example
    s1 = Signal.from_support(
        d,
        ((0, Fraction(1, 2)), (1, Fraction(3, 10)), (2, Fraction(1, 30)), (3, Fraction(1, 6))),
    )
    s2 = Signal.from_support(d, ((1, Fraction(3, 5)), (2, Fraction(1, 15)), (3, Fraction(1, 3))))
    s3 = Signal.from_support(d, ((2, Fraction(2, 3)), (3, Fraction(1, 3))))
    return SignalingScheme(
        d, ((s1, Fraction(1, 2)), (s2, Fraction(1, 6)), (s3, Fraction(1, 3)))
    )


@pytest.fixture
def monotone_scheme(running_example) -> SignalingScheme:
    """Surplus-maximizing scheme with surplus profile (0, 1/7, 10/7, 17/7)."""
    d = running_example
    s1 = Signal.from_support(d, ((0, Fraction(7, 10)), (1, Fraction(1, 10)), (2, Fraction(1, 5))))
    s2 = Signal.from_support(d, ((1, Fraction(3, 5)), (2, Fraction(1, 15)), (3, Fraction(1, 3))))
    s3 = Signal.from_support(d, ((2, Fraction(13, 24)), (3, Fraction(11, 24))))
    return SignalingScheme(
        d, ((s1, Fraction(5, 14)), (s2, Fraction(5, 14)), (s3, Fraction(2, 7)))
    )


def write_instance(dist: ValueDistribution, path) -> None:
    """An instance file as the CLI reads it, rationals as "p/q" strings."""
    payload = {"values": list(map(str, dist.values)), "masses": list(map(str, dist.masses))}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def binary(
    dist: ValueDistribution, giver: int, taker: int, weight: Fraction
) -> BinarySignalEntry:
    """The equal-revenue binary on (v_giver, v_taker) with its shares made
    here, for a test that builds a stage by hand."""
    return BinarySignalEntry(giver, taker, weight, binary_shares(dist, giver, taker))


def taker_fraction(dist: ValueDistribution, binary) -> Fraction:
    """v_g / v_t: the posterior mass an equal-revenue binary puts on its
    taker; the giver holds the rest.

    This restates `splitmatch.binary_shares` as a `Fraction` on purpose:
    the greedy's invariant check and `reference_smooth` use it as
    references written independently of the code they check.  Other tests
    read `binary_shares`."""
    return dist.values[binary.giver] / dist.values[binary.taker]


def random_distribution(rng: random.Random, max_n: int = 8) -> ValueDistribution:
    """Small random instance with integer or half-integer values."""
    n = rng.randint(1, max_n)
    values = rng.sample(range(1, 41), n)
    values.sort()
    halves = rng.random() < 0.3
    vals = [Fraction(v, 2) if halves else Fraction(v) for v in values]
    weights = [rng.randint(1, 9) for _ in range(n)]
    total = sum(weights)
    return ValueDistribution(
        tuple(vals), tuple(Fraction(w, total) for w in weights)
    )


def random_scheme(rng: random.Random, dist: ValueDistribution) -> SignalingScheme:
    """Random Bayes-plausible scheme: split each value's mass over k pots."""
    k = rng.randint(1, dist.n + 2)
    pots = [[Fraction(0)] * dist.n for _ in range(k)]
    for i, f in enumerate(dist.masses):
        cuts = sorted(rng.randint(0, 24) for _ in range(k - 1))
        shares = []
        prev = 0
        for c in cuts + [24]:
            shares.append(c - prev)
            prev = c
        for q in range(k):
            pots[q][i] = f * Fraction(shares[q], 24)
    entries = []
    for pot in pots:
        weight = sum(pot, Fraction(0))
        if weight == 0:
            continue
        signal = Signal.from_support(
            dist,
            tuple((i, m / weight) for i, m in enumerate(pot) if m > 0),
        )
        entries.append((signal, weight))
    return SignalingScheme(dist, tuple(entries))


def mixture(scheme: SignalingScheme) -> tuple[Fraction, ...]:
    """Weighted sum of a scheme's posteriors, one mass per value."""
    out = [Fraction(0)] * scheme.dist.n
    for signal, weight in scheme.entries:
        for i, f in signal.support:
            out[i] += weight * f
    return tuple(out)


def scheme_from_point(dist: ValueDistribution, point: Sequence[Fraction]) -> SignalingScheme:
    """The canonical scheme of an LP point over `oracles._canonical_columns`
    (later columns are ignored): signal k posts v_k and holds x[k][i] of
    each value above it, plus the diagonal f_k - sum_{l<k} x[l][k]."""
    cols = oracles._canonical_columns(dist.n)
    x = dict(zip(cols, point))
    rows = []
    for k in range(dist.n):
        diagonal = dist.masses[k] - sum((x[(lower, k)] for lower in range(k)), Fraction(0))
        row = {k: diagonal} if diagonal > 0 else {}
        row.update((i, x[(k, i)]) for i in range(k + 1, dist.n) if x[(k, i)] > 0)
        rows.append(row)
    return scheme_from_rows(dist, pair_rows(rows))


def pair_rows(rows: Sequence[dict[int, Fraction]]) -> list[list[tuple[int, tuple[int, int]]]]:
    """Rows of `Fraction` masses (index -> mass) as `market.scheme_from_rows`
    takes them: (index, reduced pair) in index order."""
    return [[(i, (f.numerator, f.denominator)) for i, f in sorted(row.items())] for row in rows]


def reference_buyer_optimal_rows(dist: ValueDistribution) -> list[dict[int, Fraction]]:
    """Test oracle: the equal-revenue peeling round by round, in `Fraction`s,
    one row per lowest support (an empty row where no round starts).

    Each round takes the segment with tail mass s_1 / s_j at each live
    value s_1 < ... < s_k, subtracts t times it, the largest t the residual
    allows, and drops the values that run out; its masses go to the row of
    s_1.  At most n rounds and O(n^2) exact operations: the reference that
    `market.buyer_optimal_scheme`'s event-driven peeling must equal."""
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
            if not residual[i]:
                del residual[i]
    assert not residual, "peeling left mass after n rounds"
    return rows


def reference_buyer_optimal_scheme(dist: ValueDistribution) -> SignalingScheme:
    """The scheme of `reference_buyer_optimal_rows`, one signal per non-empty row."""
    return scheme_from_rows(dist, pair_rows(reference_buyer_optimal_rows(dist)))


def adversary_witnesses(
    dist: ValueDistribution, masses: Sequence[Fraction]
) -> list[tuple[Fraction, SignalingScheme]]:
    """Test oracle: the adversary sweep's value at each mass with the
    scheme that attains it, rebuilt from the optimal LP point recorded on
    the way through ``oracles.solve_lp``.  Building the scheme re-checks
    Bayes plausibility, which the sweep itself leaves to the certificate."""
    points = []
    solve = oracles.solve_lp

    def record(lp, start=None):
        result = solve(lp, start=start)
        points.append(result.point)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "solve_lp", record)
        values = oracles.adversary_sorted_prefix(dist, masses)
    assert len(points) == len(values)
    return [(value, scheme_from_point(dist, point)) for value, point in zip(values, points)]


@dataclass(frozen=True)
class MaxMinSurplusResult:
    value: Fraction
    point: dict[str, Fraction]


def max_min_surplus_lp(
    values: Sequence[Fraction], masses: Sequence[Fraction]
) -> MaxMinSurplusResult:
    """Reference for `lowerbound universal`: the best possible minimum
    surplus of the two upper classes over three-value canonical schemes.

    ``masses`` need not be normalized; surpluses are per buyer, so scaling
    the population leaves the optimum unchanged.  Signal masses are
    (x, y, z) priced at v1, (0, y', z') priced at v2 and (0, 0, z'') priced
    at v3.
    """
    if len(values) != 3 or len(masses) != 3:
        raise MarketError("exactly three values required")
    v1, v2, v3 = (as_fraction(v) for v in values)
    f1, f2, f3 = (as_fraction(f) for f in masses)
    if not v1 < v2 < v3 or v1 <= 0:
        raise MarketError("values must be positive and strictly increasing")
    if f1 < 0 or f2 <= 0 or f3 <= 0:
        # surpluses divide by f2 and f3; the low-value mass may vanish
        raise MarketError("masses must be positive (low value may be zero)")
    names = ("x", "y", "z", "yp", "zp", "zpp", "smin")

    def row(**entries: Fraction) -> tuple[Fraction, ...]:
        return tuple(entries.get(name, Fraction(0)) for name in names)

    lp = LinearProgram(objective=row(smin=Fraction(1)))
    lp.add(row(y=v1 - v2, smin=f2), Fraction(0))
    lp.add(row(z=v1 - v3, zp=v2 - v3, smin=f3), Fraction(0))
    lp.add(row(x=-v1, y=v2 - v1, z=v2 - v1), Fraction(0))
    lp.add(row(x=-v1, y=-v1, z=v3 - v1), Fraction(0))
    lp.add(row(yp=-v2, zp=v3 - v2), Fraction(0))
    lp.add(row(x=Fraction(1)), f1)
    lp.add(row(y=Fraction(1), yp=Fraction(1)), f2)
    lp.add(row(z=Fraction(1), zp=Fraction(1), zpp=Fraction(1)), f3)
    result = solve_lp(lp)
    return MaxMinSurplusResult(result.value, dict(zip(names, result.point)))


def universal_raw_masses(eps: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """The universal family's masses before normalization."""
    return (eps**2 + 2 * eps, 1 + (1 + eps) ** 2, (1 + eps) + (1 + eps) ** 3)


def universal_optimal_point(eps: Fraction) -> dict[str, Fraction]:
    """The closed-form optimum of `max_min_surplus_lp` on the universal
    family's raw masses."""
    f1, f2, f3 = universal_raw_masses(eps)
    y = (4 + 3 * eps + eps**2) / (2 + eps)
    yp = f2 - y
    return {
        "x": f1,
        "y": y,
        "z": eps / (2 + eps),
        "yp": yp,
        "zp": yp * (1 + eps),
        "zpp": f3 - eps / (2 + eps) - yp * (1 + eps),
        "smin": y * eps / f2,
    }


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
        ratio = draw(st.sampled_from([Fraction(11, 10), Fraction(3, 2), Fraction(2)]))
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
        tails = [Fraction(values[0], v) for v in values] + [Fraction(0)]
        masses = [a - b for a, b in zip(tails, tails[1:])]
    else:
        masses = [Fraction(w, sum(weights)) for w in weights]
    return family, ValueDistribution(tuple(map(Fraction, values)), tuple(masses))


CORPUS_SEED = 20250808
CORPUS_SIZE = 1000


@pytest.fixture(scope="session")
def corpus() -> list[ValueDistribution]:
    """Fixed corpus of 1000 random instances with support size at most 8."""
    rng = random.Random(CORPUS_SEED)
    return [random_distribution(rng) for _ in range(CORPUS_SIZE)]
