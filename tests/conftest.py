"""Shared fixtures: reference instances, reference schemes, random corpus."""

from __future__ import annotations

import importlib.util
import os
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from fairsignal.market import Signal, SignalingScheme, ValueDistribution

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
def nonmonotone_scheme(running_example) -> SignalingScheme:
    """Surplus-maximizing scheme with surplus profile (0, 3/5, 2/5, 3).

    Every signal is an equal-revenue posterior on a suffix of its support,
    priced at its lowest value; the first signal is (1/2, 3/10, 1/30, 1/6)
    with weight 1/2.
    """
    d = running_example
    s1 = Signal.from_mapping(
        d, {0: Fraction(1, 2), 1: Fraction(3, 10), 2: Fraction(1, 30), 3: Fraction(1, 6)}
    )
    s2 = Signal.from_mapping(
        d, {1: Fraction(3, 5), 2: Fraction(1, 15), 3: Fraction(1, 3)}
    )
    s3 = Signal.from_mapping(d, {2: Fraction(2, 3), 3: Fraction(1, 3)})
    return SignalingScheme(
        d, ((s1, Fraction(1, 2)), (s2, Fraction(1, 6)), (s3, Fraction(1, 3)))
    )


@pytest.fixture
def monotone_scheme(running_example) -> SignalingScheme:
    """Surplus-maximizing scheme with surplus profile (0, 1/7, 10/7, 17/7)."""
    d = running_example
    s1 = Signal.from_mapping(
        d, {0: Fraction(7, 10), 1: Fraction(1, 10), 2: Fraction(1, 5)}
    )
    s2 = Signal.from_mapping(
        d, {1: Fraction(3, 5), 2: Fraction(1, 15), 3: Fraction(1, 3)}
    )
    s3 = Signal.from_mapping(d, {2: Fraction(13, 24), 3: Fraction(11, 24)})
    return SignalingScheme(
        d, ((s1, Fraction(5, 14)), (s2, Fraction(5, 14)), (s3, Fraction(2, 7)))
    )


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
        signal = Signal(
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
