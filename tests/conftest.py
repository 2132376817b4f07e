"""Shared fixtures and test oracles: reference instances and schemes, the
random corpus, adversary witnesses, the certified factor between two step
functions, the max-min surplus LP, the round-by-round buyer-optimal
peeling and the eager Bareiss tableau."""

from __future__ import annotations

import copy
import importlib.util
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import pytest
from hypothesis import strategies as st

from fairsignal import lp as lp_module
from fairsignal import oracles
from fairsignal.cli import certify
from fairsignal.lp import LinearProgram, LPResult, solve_lp
from fairsignal.market import (
    MarketError,
    Signal,
    SignalingScheme,
    ValueDistribution,
    as_fraction,
    dot,
    scheme_from_rows,
)
from fairsignal.splitmatch import BinarySignalEntry, binary_shares
from fairsignal.steps import (
    StepFunction,
    SurplusProfile,
    certification_grid,
    merged,
    sorted_prefix,
)

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
    s1 = Signal(d, ((0, (1, 2)), (1, (3, 10)), (2, (1, 30)), (3, (1, 6))))
    s2 = Signal(d, ((1, (3, 5)), (2, (1, 15)), (3, (1, 3))))
    s3 = Signal(d, ((2, (2, 3)), (3, (1, 3))))
    return SignalingScheme(d, ((s1, (1, 2)), (s2, (1, 6)), (s3, (1, 3))))


@pytest.fixture
def monotone_scheme(running_example) -> SignalingScheme:
    """Surplus-maximizing scheme with surplus profile (0, 1/7, 10/7, 17/7)."""
    d = running_example
    s1 = Signal(d, ((0, (7, 10)), (1, (1, 10)), (2, (1, 5))))
    s2 = Signal(d, ((1, (3, 5)), (2, (1, 15)), (3, (1, 3))))
    s3 = Signal(d, ((2, (13, 24)), (3, (11, 24))))
    return SignalingScheme(d, ((s1, (5, 14)), (s2, (5, 14)), (s3, (2, 7))))


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
        signal = Signal(dist, tuple((i, pair(m / weight)) for i, m in enumerate(pot) if m > 0))
        entries.append((signal, pair(weight)))
    return SignalingScheme(dist, tuple(entries))


def pair(x: Fraction) -> tuple[int, int]:
    """A `Fraction` as the reduced int pair a scheme's weights and shares
    are held as."""
    return x.numerator, x.denominator


def hand_profile(dist: ValueDistribution, surpluses: Sequence[Fraction]) -> SurplusProfile:
    """A profile built by hand, with its mass-weighted total."""
    return SurplusProfile(dist, tuple(surpluses), dot(dist.masses, surpluses))


def support(signal: Signal) -> tuple[tuple[int, Fraction], ...]:
    """A signal's shares as (index, `Fraction`) pairs, by index."""
    return tuple((i, Fraction(n, d)) for i, (n, d) in signal.shares)


def mixture(scheme: SignalingScheme) -> tuple[Fraction, ...]:
    """Weighted sum of a scheme's posteriors, one mass per value."""
    out = [Fraction(0)] * scheme.dist.n
    for signal, weight in scheme.entries:
        for i, f in support(signal):
            out[i] += Fraction(*weight) * f
    return tuple(out)


def nonzeros(coeffs) -> tuple[tuple[int, Fraction], ...]:
    """A dense row's (column, coefficient) pairs, as `LinearProgram` takes it."""
    return tuple((j, a) for j, a in enumerate(coeffs) if a)


def dense(row, n: int) -> tuple[Fraction, ...]:
    """A row's n coefficients, the columns it leaves out 0."""
    coeffs = [Fraction(0)] * n
    for j, a in row:
        coeffs[j] = a
    return tuple(coeffs)


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


def alpha_against(f1: StepFunction, f2: StepFunction):
    """Smallest alpha with alpha * PF(f1, m) >= PF(f2, m) for every mass m:
    `cli.certify` on the merged grid of both, with f2's sorted prefixes as rival."""
    grid = merged(certification_grid(f1), certification_grid(f2))
    _, alpha = certify(f1, grid, [sorted_prefix(f2, m) for m in grid])
    return alpha


class EagerTableau:
    """Test oracle: the condensed Bareiss tableau with every row rewritten
    at every pivot, all over the one running den.

    Its pivot, pricing and pivot choice are the eager formulas that
    `lp._Tableau` follows, written without row stamps.  The integer rows,
    column units and objective are built here in `Fraction`s."""

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        rows = []
        for entries, rhs in lp.constraints:
            row = [Fraction(0)] * n + [Fraction(rhs)]
            for j, a in entries:
                row[j] = Fraction(a)
            scale = math.lcm(*(a.denominator for a in row))
            rows.append([int(a * scale) for a in row])
        self.units = [math.gcd(*(row[j] for row in rows)) or 1 for j in range(n)]
        for row in rows:
            row[:n] = [a // g for a, g in zip(row, self.units)]
        self.rows = rows + [[0] * (n + 1)]
        self.cols = list(range(n))
        self.basis = list(range(n, n + len(rows)))
        self.den = 1

    def copy(self) -> EagerTableau:
        return copy.deepcopy(self)

    def integer_objective(self, objective: Sequence[Fraction]) -> tuple[list[int], int]:
        """c_j / g_j over the lcm of their denominators, and that lcm."""
        scaled = [Fraction(c) / g for c, g in zip(objective, self.units)]
        scale = math.lcm(*(c.denominator for c in scaled))
        return [int(c * scale) for c in scaled], scale

    def price(self, objective: Sequence[int]) -> None:
        n = len(self.units)
        z = [-self.den * objective[b] if b < n else 0 for b in self.cols] + [0]
        for i, b in enumerate(self.basis):
            if b < n and objective[b]:
                z = [x + objective[b] * y for x, y in zip(z, self.rows[i])]
        self.rows[-1] = z

    def ratio_row(self, c: int) -> Optional[int]:
        """Least rhs_i / a_ic over a_ic > 0, ties to the lowest basis label."""
        ratios = [
            (Fraction(row[-1], row[c]), self.basis[i], i)
            for i, row in enumerate(self.rows[:-1])
            if row[c] > 0
        ]
        return min(ratios)[2] if ratios else None

    def choose_pivot(self) -> Optional[tuple[int, int]]:
        """(row, column) of the next pivot, or None at an optimum: the
        largest gain -z_j * rhs_r / a_rj, ties to the lowest label."""
        z = self.rows[-1]
        negative = sorted((b, j) for j, b in enumerate(self.cols) if z[j] < 0)
        if not negative:
            return None
        best = None
        for _, j in negative:
            r = self.ratio_row(j)
            gain = -z[j] * Fraction(self.rows[r][-1], self.rows[r][j])
            if best is None or gain > best[0]:
                best = gain, (r, j)
        return best[1]

    def pivot(self, r: int, c: int) -> None:
        prow = self.rows[r]
        piv, den = prow[c], self.den
        for k, row in enumerate(self.rows):
            if k != r:
                f = row[c]
                new = [(x * piv - f * y) // den for x, y in zip(row, prow)]
                new[c] = -f
                self.rows[k] = new
        self.rows[r] = prow[:c] + [den] + prow[c + 1 :]
        self.den = piv
        self.basis[r], self.cols[c] = self.cols[c], self.basis[r]

    def point_and_value(
        self, objective: Sequence[int], scale: int
    ) -> tuple[tuple[Fraction, ...], Fraction]:
        v = [0] * len(self.units)
        for i, b in enumerate(self.basis):
            if b < len(v):
                v[b] = self.rows[i][-1]
        point = tuple(Fraction(x, self.den * g) for x, g in zip(v, self.units))
        return point, Fraction(sum(c * x for c, x in zip(objective, v)), self.den * scale)


def assert_follows_eager(tab, twin: EagerTableau) -> None:
    """``tab`` has the eager twin's labels and den, and each of its rows at
    den, stored or derived, is the eager row integer for integer."""
    assert (tab.basis, tab.cols, tab.den) == (twin.basis, twin.cols, twin.den)
    assert len(tab.rows) == len(tab.stamps) == len(twin.rows)
    for i, eager in enumerate(twin.rows):
        assert tab.row_at_den(i) == eager


def eager_lockstep(patch: pytest.MonkeyPatch) -> Callable[..., LPResult]:
    """A `solve_lp` whose every pricing and pivot `lp._Tableau` makes is
    matched by an `EagerTableau` twin; ``patch`` routes the tableau's
    methods through the check.  The twin of a warm solve is a copy of the
    twin that ended its start, so one start can serve several solves.
    After pricing and after each pivot, `assert_follows_eager` holds; each
    pivot is the one the twin chooses, the twin finds no pivot at the end,
    and the result is the twin's point and value."""
    price, pivot = lp_module._Tableau.price, lp_module._Tableau.pivot
    ends: dict[int, tuple[LPResult, EagerTableau]] = {}
    running: list[tuple[EagerTableau, LinearProgram]] = []

    def checked_price(tab, objective):
        twin, lp = running[-1]
        eager, _ = twin.integer_objective(lp.objective)
        assert list(objective) == eager
        price(tab, objective)
        twin.price(eager)
        assert_follows_eager(tab, twin)

    def checked_pivot(tab, r, c):
        twin = running[-1][0]
        assert (r, c) == twin.choose_pivot()
        pivot(tab, r, c)
        twin.pivot(r, c)
        assert_follows_eager(tab, twin)

    def solve(lp: LinearProgram, start: Optional[LPResult] = None) -> LPResult:
        twin = EagerTableau(lp) if start is None else ends[id(start)][1].copy()
        running.append((twin, lp))
        result = solve_lp(lp, start=start)
        assert twin.choose_pivot() is None
        assert (result.point, result.value) == twin.point_and_value(
            *twin.integer_objective(lp.objective)
        )
        ends[id(result)] = (result, twin)  # the result is kept, so its id stays its own
        return result

    patch.setattr(lp_module._Tableau, "price", checked_price)
    patch.setattr(lp_module._Tableau, "pivot", checked_pivot)
    return solve


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
    x, y, z, yp, zp, zpp, smin = range(len(names))
    rows = (
        (((y, v1 - v2), (smin, f2)), 0),
        (((z, v1 - v3), (zp, v2 - v3), (smin, f3)), 0),
        (((x, -v1), (y, v2 - v1), (z, v2 - v1)), 0),
        (((x, -v1), (y, -v1), (z, v3 - v1)), 0),
        (((yp, -v2), (zp, v3 - v2)), 0),
        (((x, 1),), f1),
        (((y, 1), (yp, 1)), f2),
        (((z, 1), (zp, 1), (zpp, 1)), f3),
    )
    lp = LinearProgram((0,) * smin + (1,), rows)
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
