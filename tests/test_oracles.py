"""LP oracles: prefix adversary, hard families, and the buyer-optimal LP kept
as the exact reference for equal-revenue peeling."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from fairsignal import lp as lp_module
from fairsignal import oracles
from fairsignal.ironing import monotone_fair_scheme
from fairsignal.lp import EQ, GE, LE, LinearProgram, solve_lp
from fairsignal.market import (
    InvariantViolation,
    MarketError,
    SignalingScheme,
    ValueDistribution,
    buyer_optimal_scheme,
    is_efficient,
    myerson,
    scheme_surplus,
)
from fairsignal.oracles import (
    adversary_grid,
    adversary_sorted_prefix,
    buyer_optimal_lb_instance,
    max_min_surplus_lp,
    universal_lb_instance,
)
from fairsignal.steps import profile_step_function, sorted_prefix

from conftest import perfbench_module, random_distribution

F = Fraction


def solve_buyer_optimal_lp(dist: ValueDistribution):
    """Exact reference for `buyer_optimal_scheme`: the canonical LP that
    maximizes total consumer surplus, solved through ``oracles.solve_lp``.
    Returns the optimal LP result and the column map of its point."""
    cols = oracles._canonical_columns(dist.n)
    col = {kc: idx for idx, kc in enumerate(cols)}
    objective = tuple(dist.values[i] - dist.values[k] for k, i in cols)
    lp = LinearProgram(objective=objective)
    oracles._add_canonical_constraints(lp, dist, col)
    result = oracles.solve_lp(lp)
    if result.status != "optimal":
        raise InvariantViolation(f"buyer-optimal LP returned {result.status}")
    return result, col


def lp_buyer_optimal_scheme(
    dist: ValueDistribution,
) -> tuple[SignalingScheme, Fraction]:
    """The reference LP's optimal scheme and total."""
    result, col = solve_buyer_optimal_lp(dist)
    return oracles._scheme_from_point(dist, result.point, col), result.value


class TestBuyerOptimal:
    def test_running_example_total(self, running_example):
        scheme, total = buyer_optimal_scheme(running_example)
        assert total == F(1)
        assert is_efficient(scheme)
        assert scheme_surplus(scheme).total() == F(1)

    def test_single_value(self):
        d = ValueDistribution.from_pairs([4], [1])
        _, total = buyer_optimal_scheme(d)
        assert total == F(0)

    def test_five_value_instance(self, fig3_instance):
        _, total = buyer_optimal_scheme(fig3_instance)
        _, revenue = myerson(fig3_instance)
        assert total == fig3_instance.expected_value() - revenue == F(7, 5)

    def test_original_prices_stay_optimal_in_each_signal(self):
        # in a surplus-maximizing scheme, no signal can beat the old price
        rng = random.Random(101)
        for _ in range(40):
            dist = random_distribution(rng, max_n=6)
            scheme, _ = buyer_optimal_scheme(dist)
            revenues = dist.posted_revenues()
            best = max(revenues)
            tied = [i for i, r in enumerate(revenues) if r == best]
            for signal, _ in scheme.entries:
                rev = signal.revenue()
                for i in tied:
                    tail = sum(
                        (f for j, f in signal.support if j >= i), F(0)
                    )
                    assert dist.values[i] * tail == rev


class TestAdversary:
    def test_full_mass_equals_buyer_optimal(self, running_example):
        value, _ = adversary_sorted_prefix(running_example, F(1))
        _, total = buyer_optimal_scheme(running_example)
        assert value == total == F(1)

    def test_lowest_class_never_gains(self, running_example):
        value, _ = adversary_sorted_prefix(running_example, F(1, 4))
        assert value == F(0)

    def test_witness_matches_value(self, running_example):
        for m in (F(1, 2), F(3, 4), F(1)):
            value, witness = adversary_sorted_prefix(running_example, m)
            step = profile_step_function(scheme_surplus(witness))
            assert sorted_prefix(step, m) == value

    def test_convex_nondecreasing_in_mass(self):
        # a maximum of convex sorted prefix sums stays convex
        rng = random.Random(103)
        for _ in range(10):
            dist = random_distribution(rng, max_n=5)
            grid = [F(k, 8) for k in range(1, 9)]
            vals = [adversary_sorted_prefix(dist, m)[0] for m in grid]
            for a, b in zip(vals, vals[1:]):
                assert a <= b
            slopes = [
                (v1 - v0) / (m1 - m0)
                for (m0, v0), (m1, v1) in zip(
                    zip(grid, vals), zip(grid[1:], vals[1:])
                )
            ]
            for s0, s1 in zip(slopes, slopes[1:]):
                assert s0 <= s1

    def test_support_guard(self):
        rng = random.Random(107)
        values = sorted(rng.sample(range(1, 40), 9))
        d = ValueDistribution.from_pairs(values, [F(1, 9)] * 9)
        with pytest.raises(MarketError):
            adversary_sorted_prefix(d, F(1, 2))
        value, _ = adversary_sorted_prefix(d, F(1), max_support=9)
        _, total = buyer_optimal_scheme(d)
        assert value == total

    def test_matches_max_min_lp_on_three_values(self):
        # with the lowest class fixed at zero surplus and the heavy top
        # class, the sorted prefix through the middle class equals its
        # mass times the best attainable minimum surplus
        inst = universal_lb_instance(F(1, 100))
        result = max_min_surplus_lp(inst.values, inst.raw_masses)
        m_star = inst.dist.cdf[1]
        value, _ = adversary_sorted_prefix(inst.dist, m_star)
        assert value == inst.dist.masses[1] * result.value

    def test_grid_contains_cdf_points(self, running_example):
        profile = scheme_surplus(buyer_optimal_scheme(running_example)[0])
        grid = adversary_grid(profile)
        for m in running_example.cdf:
            assert m in grid


class TestMaxMinSurplus:
    def test_closed_form_small_epsilons(self):
        for eps in (F(1, 100), F(1, 1000)):
            inst = universal_lb_instance(eps)
            result = max_min_surplus_lp(inst.values, inst.raw_masses)
            assert result.value == inst.best_min_surplus

    def test_stated_point_is_feasible_and_tight(self):
        eps = F(1, 100)
        inst = universal_lb_instance(eps)
        p = inst.optimal_point
        v1, v2, v3 = inst.values
        f1, f2, f3 = inst.raw_masses
        assert p["y"] * (v2 - v1) / f2 == inst.best_min_surplus
        assert (p["z"] * (v3 - v1) + p["zp"] * (v3 - v2)) / f3 == inst.best_min_surplus
        assert v1 * (p["x"] + p["y"] + p["z"]) >= v2 * (p["y"] + p["z"])
        assert v1 * (p["x"] + p["y"] + p["z"]) >= v3 * p["z"]
        assert v2 * (p["yp"] + p["zp"]) >= v3 * p["zp"]
        assert p["x"] <= f1
        assert p["y"] + p["yp"] <= f2
        assert p["z"] + p["zp"] + p["zpp"] <= f3
        assert all(val >= 0 for val in p.values())

    def test_no_low_value_mass_means_no_surplus(self):
        result = max_min_surplus_lp((1, 2, 3), (0, 1, 1))
        assert result.value == F(0)

    def test_rejects_wrong_arity(self):
        with pytest.raises(MarketError):
            max_min_surplus_lp((1, 2), (1, 1))


class TestBuyerOptimalLowerBound:
    @pytest.mark.parametrize("n", [2, 5, 10, 100])
    def test_closed_forms(self, n):
        inst = buyer_optimal_lb_instance(n)
        N = F(n)
        denom = N**2 + 1
        profile_opt = scheme_surplus(inst.buyer_optimal)
        profile_alt = scheme_surplus(inst.alternative)
        assert profile_opt.surpluses == (F(0), (N - 1) / denom, (N + N**2) / denom)
        assert profile_alt.surpluses == (
            F(0),
            (N**2 - 1) / denom,
            (N**2 - N) / denom,
        )
        assert inst.cs_high_alternative / inst.cs_mid_optimal == N
        assert inst.ratio == N

    def test_reference_scheme_is_buyer_optimal(self):
        inst = buyer_optimal_lb_instance(3)
        _, best = buyer_optimal_scheme(inst.dist)
        assert scheme_surplus(inst.buyer_optimal).total() == best
        assert is_efficient(inst.buyer_optimal)
        assert is_efficient(inst.alternative)

    @pytest.mark.parametrize("n", [2, 5, 10, 100])
    def test_peeling_reproduces_unique_scheme(self, n):
        inst = buyer_optimal_lb_instance(n)
        scheme, _ = buyer_optimal_scheme(inst.dist)
        assert scheme.entries == inst.buyer_optimal.entries

    def test_rejects_degenerate_parameter(self):
        with pytest.raises(MarketError):
            buyer_optimal_lb_instance(1)


def test_lp_optimum_is_the_peeled_total_on_corpus(corpus):
    """The LP optimum is E[v] - R*, the total `buyer_optimal_scheme` returns
    only after re-checking it; c07 peels this same corpus, so the peeled and
    LP totals are equal on it without peeling each instance twice."""
    for dist in corpus:
        _, revenue = myerson(dist)
        assert solve_buyer_optimal_lp(dist)[0].value == dist.expected_value() - revenue


def reference_lp(dist: ValueDistribution, extra: int) -> tuple[LinearProgram, dict]:
    """Reference form of the canonical polytope: a column for every x[k][i]
    with k <= i, diagonal included, and one equality row per value.

    The equality and ``>= 0`` rows need artificial variables, so this
    formulation runs phase 1.  ``extra`` columns follow the x columns.
    """
    n = dist.n
    cols = [(k, i) for k in range(n) for i in range(k, n)]
    col = {kc: idx for idx, kc in enumerate(cols)}
    width = len(cols) + extra
    lp = LinearProgram(objective=(F(0),) * width)
    for i in range(n):
        coeffs = [F(0)] * width
        for k in range(i + 1):
            coeffs[col[(k, i)]] = F(1)
        lp.add(coeffs, EQ, dist.masses[i])
    for k in range(n):
        for j in range(k + 1, n):
            coeffs = [F(0)] * width
            for i in range(k, n):
                coeffs[col[(k, i)]] = dist.values[k] - (
                    dist.values[j] if i >= j else F(0)
                )
            lp.add(coeffs, GE, F(0))
    return lp, col


def reference_buyer_optimal_total(dist: ValueDistribution) -> Fraction:
    lp, col = reference_lp(dist, 0)
    lp.objective = tuple(dist.values[i] - dist.values[k] for k, i in col)
    return solve_lp(lp).value


def reference_adversary(dist: ValueDistribution, m: Fraction) -> Fraction:
    n = dist.n
    lp, col = reference_lp(dist, n + 1)
    nu0 = len(col)
    lam = nu0 + n
    objective = [F(0)] * lp.n_vars
    for i in range(n):
        objective[nu0 + i] = -dist.masses[i]
    objective[lam] = m
    lp.objective = tuple(objective)
    lp.free = frozenset({lam})
    for i in range(n):
        coeffs = [F(0)] * lp.n_vars
        coeffs[lam] = dist.masses[i]
        coeffs[nu0 + i] = -dist.masses[i]
        for k in range(i + 1):
            coeffs[col[(k, i)]] = -(dist.values[i] - dist.values[k])
        lp.add(coeffs, LE, F(0))
    return solve_lp(lp).value


def reference_instances() -> list:
    """Seeded random instances with n <= 6 and one of each benchmark family
    at n = 7, as pytest parameters."""
    rng = random.Random(113)
    params = [
        pytest.param(random_distribution(rng, max_n=6), id=f"random{k}")
        for k in range(30)
    ]
    instances = perfbench_module("instances")
    for family in instances.FAMILIES:
        payload = instances.make_instance(family, 7, random.Random(f"ref:{family}"))
        dist = ValueDistribution.from_pairs(payload["values"], payload["masses"])
        params.append(pytest.param(dist, id=f"{family}7"))
    return params


class TestReferenceFormulation:
    """The LPs without diagonal columns against the formulation with them."""

    @pytest.mark.parametrize("dist", reference_instances())
    def test_values_and_witnesses_match_reference(self, dist):
        scheme, total = lp_buyer_optimal_scheme(dist)
        assert total == reference_buyer_optimal_total(dist)
        assert total == buyer_optimal_scheme(dist)[1]
        assert is_efficient(scheme)
        assert scheme_surplus(scheme).total() == total
        SignalingScheme(dist, scheme.entries)
        grid = adversary_grid(
            scheme_surplus(monotone_fair_scheme(dist).final.to_signaling_scheme())
        )
        for m in sorted(set(grid) | {F(1)}):
            value, witness = adversary_sorted_prefix(dist, m)
            assert value == reference_adversary(dist, m)
            SignalingScheme(dist, witness.entries)
            step = profile_step_function(scheme_surplus(witness))
            assert sorted_prefix(step, m) == value


@pytest.mark.parametrize("name", ["running_example", "fig3_instance"])
def test_canonical_lps_start_at_full_revelation(name, request, monkeypatch):
    """Every canonical row keeps its slack basic at the origin, which is
    feasible, so the solver needs no artificial variable and no phase 1."""
    dist = request.getfixturevalue(name)
    captured = []

    def capture(lp):
        captured.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(oracles, "solve_lp", capture)
    adversary_sorted_prefix(dist, F(1, 2))
    lp_buyer_optimal_scheme(dist)
    assert len(captured) == 2
    for lp in captured:
        lp_module._verify(lp, (F(0),) * lp.n_vars)
        for _, sense, rhs in lp.constraints:
            assert (sense == LE and rhs >= 0) or (sense == GE and rhs <= 0)
