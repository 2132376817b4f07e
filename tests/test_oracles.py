"""LP oracles: prefix adversary, hard families, and the reference LPs kept
in the tests: the buyer-optimal LP for equal-revenue peeling and the
max-min surplus LP for the universal family."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from fairsignal import lp as lp_module
from fairsignal import oracles
from fairsignal.ironing import monotone_fair_scheme
from fairsignal.lp import LinearProgram, LPResult, solve_lp
from fairsignal.market import (
    MarketError,
    Signal,
    SignalingScheme,
    ValueDistribution,
    buyer_optimal_scheme,
    is_efficient,
    myerson,
)
from fairsignal.oracles import (
    adversary_grid,
    adversary_sorted_prefix,
    buyer_optimal_lb_instance,
    universal_lb_instance,
)
from fairsignal.steps import profile_step_function, scheme_surplus, sorted_prefix

from conftest import (
    adversary_witnesses,
    eager_lockstep,
    max_min_surplus_lp,
    perfbench_module,
    random_distribution,
    scheme_from_point,
    structured_priors,
    support,
    universal_optimal_point,
    universal_raw_masses,
)

F = Fraction


def solve_buyer_optimal_lp(dist: ValueDistribution):
    """Exact reference for `buyer_optimal_scheme`: the canonical LP that
    maximizes total consumer surplus, solved through ``oracles.solve_lp``.
    Returns the optimal LP result."""
    cols = oracles._canonical_columns(dist.n)
    col = {kc: idx for idx, kc in enumerate(cols)}
    objective = tuple(dist.values[i] - dist.values[k] for k, i in cols)
    rows = tuple(oracles._canonical_rows(dist, col))
    return oracles.solve_lp(LinearProgram(objective, rows))


def lp_buyer_optimal_scheme(
    dist: ValueDistribution,
) -> tuple[SignalingScheme, Fraction]:
    """The reference LP's optimal scheme and total."""
    result = solve_buyer_optimal_lp(dist)
    return scheme_from_point(dist, result.point), result.value


class TestBuyerOptimal:
    def test_running_example_total(self, running_example):
        scheme, total = buyer_optimal_scheme(running_example)
        assert total == F(1)
        assert is_efficient(scheme)
        assert scheme_surplus(scheme).total == F(1)

    def test_single_value(self):
        d = ValueDistribution.from_pairs([4], [1])
        _, total = buyer_optimal_scheme(d)
        assert total == F(0)

    def test_five_value_instance(self, fig3_instance):
        _, total = buyer_optimal_scheme(fig3_instance)
        _, revenue = myerson(fig3_instance)
        assert total == fig3_instance.expected_value - revenue == F(7, 5)

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
                k = signal.optimal_price_index
                rev = dist.values[k] * sum(f for j, f in support(signal) if j >= k)
                for i in tied:
                    tail = sum(
                        (f for j, f in support(signal) if j >= i), F(0)
                    )
                    assert dist.values[i] * tail == rev


class TestAdversary:
    def test_full_mass_equals_buyer_optimal(self, running_example):
        [value] = adversary_sorted_prefix(running_example, [F(1)])
        _, total = buyer_optimal_scheme(running_example)
        assert value == total == F(1)

    def test_lowest_class_never_gains(self, running_example):
        [value] = adversary_sorted_prefix(running_example, [F(1, 4)])
        assert value == F(0)

    def test_witness_matches_value(self, running_example):
        masses = (F(1, 2), F(3, 4), F(1))
        sweep = adversary_witnesses(running_example, masses)
        for m, (value, witness) in zip(masses, sweep):
            step = profile_step_function(scheme_surplus(witness))
            assert sorted_prefix(step, m) == value

    def test_convex_nondecreasing_in_mass(self):
        # a maximum of convex sorted prefix sums stays convex
        rng = random.Random(103)
        for _ in range(10):
            dist = random_distribution(rng, max_n=5)
            grid = [F(k, 8) for k in range(1, 9)]
            vals = adversary_sorted_prefix(dist, grid)
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
            adversary_sorted_prefix(d, [F(1, 2)])
        [value] = adversary_sorted_prefix(d, [F(1)], max_support=9)
        _, total = buyer_optimal_scheme(d)
        assert value == total

    def test_matches_max_min_lp_on_three_values(self):
        # with the lowest class fixed at zero surplus and the heavy top
        # class, the sorted prefix through the middle class equals its
        # mass times the best attainable minimum surplus
        eps = F(1, 100)
        inst = universal_lb_instance(eps)
        assert inst.dist.values[1] - 1 == eps
        result = max_min_surplus_lp(inst.dist.values, universal_raw_masses(eps))
        m_star = inst.dist.cdf[1]
        [value] = adversary_sorted_prefix(inst.dist, [m_star])
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
            result = max_min_surplus_lp(inst.dist.values, universal_raw_masses(eps))
            assert result.value == inst.best_min_surplus

    def test_stated_point_is_feasible_and_tight(self):
        eps = F(1, 100)
        inst = universal_lb_instance(eps)
        p = universal_optimal_point(eps)
        v1, v2, v3 = inst.dist.values
        f1, f2, f3 = universal_raw_masses(eps)
        assert p["y"] * (v2 - v1) / f2 == inst.best_min_surplus
        assert (p["z"] * (v3 - v1) + p["zp"] * (v3 - v2)) / f3 == inst.best_min_surplus
        assert v1 * (p["x"] + p["y"] + p["z"]) >= v2 * (p["y"] + p["z"])
        assert v1 * (p["x"] + p["y"] + p["z"]) >= v3 * p["z"]
        assert v2 * (p["yp"] + p["zp"]) >= v3 * p["zp"]
        assert p["x"] <= f1
        assert p["y"] + p["yp"] <= f2
        assert p["z"] + p["zp"] + p["zpp"] <= f3
        assert all(val >= 0 for val in p.values())

    @pytest.mark.parametrize("eps", [F(0), F(-1, 100), F(1, 99), F(1, 50), F(1)])
    def test_family_refuses_epsilon_outside_range(self, eps):
        with pytest.raises(MarketError, match=r"epsilon must lie in \(0, 1/100\], got "):
            universal_lb_instance(eps)

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
        assert profile_alt.surpluses[2] / profile_opt.surpluses[1] == N
        assert inst.ratio == N

    def test_reference_scheme_is_buyer_optimal(self):
        inst = buyer_optimal_lb_instance(3)
        _, best = buyer_optimal_scheme(inst.dist)
        assert scheme_surplus(inst.buyer_optimal).total == best
        assert is_efficient(inst.buyer_optimal)
        assert is_efficient(inst.alternative)

    @pytest.mark.parametrize("n", [2, 5, 10, 100])
    def test_peeling_reproduces_unique_scheme(self, n):
        # the family's unique buyer-optimal canonical scheme, by hand
        N = F(n)
        inst = buyer_optimal_lb_instance(n)
        dist = inst.dist
        s1 = Signal.from_support(
            dist,
            ((0, (N**2 - 1) / (N**2 + N)), (1, 1 / (N**2 + N)), (2, N / (N**2 + N))),
        )
        s2 = Signal.from_support(dist, ((1, 1 / (N + 1)), (2, N / (N + 1))))
        reference = ((s1, 1 / (N + 1)), (s2, N / (N + 1)))
        scheme, _ = buyer_optimal_scheme(dist)
        assert scheme.entries == reference
        assert inst.buyer_optimal.entries == reference

    def test_rejects_degenerate_parameter(self):
        with pytest.raises(MarketError):
            buyer_optimal_lb_instance(1)


def test_lp_optimum_is_the_peeled_total_on_corpus(corpus):
    """The LP optimum is E[v] - R*, the total `buyer_optimal_scheme` returns
    only after re-checking it; c07 peels this same corpus, so the peeled and
    LP totals are equal on it without peeling each instance twice."""
    for dist in corpus:
        _, revenue = myerson(dist)
        assert solve_buyer_optimal_lp(dist).value == dist.expected_value - revenue


def capture_lps(monkeypatch, solve=solve_lp) -> list[LinearProgram]:
    """Route ``oracles.solve_lp`` through ``solve``, recording every LP; an
    adversary sweep hands over one LP per mass."""
    captured = []

    def capture(lp, start=None):
        captured.append(lp)
        return solve(lp, start=start)

    monkeypatch.setattr(oracles, "solve_lp", capture)
    return captured


def reference_rows(dist: ValueDistribution, extra: int) -> tuple[list, dict]:
    """Reference form of the canonical polytope, as test data: a column for
    every x[k][i] with k <= i, diagonal included, one ``==`` mass row per
    value and the price-optimality rows as ``>= 0`` rows.  ``extra`` columns
    follow the x columns.  `solve_lp`'s standard form cannot express the
    mass equalities; `diagonal_substitution` maps this form onto the
    canonical LPs instead."""
    n = dist.n
    cols = [(k, i) for k in range(n) for i in range(k, n)]
    col = {kc: idx for idx, kc in enumerate(cols)}
    width = len(cols) + extra
    rows = []
    for i in range(n):
        coeffs = [F(0)] * width
        for k in range(i + 1):
            coeffs[col[(k, i)]] = F(1)
        rows.append((coeffs, "==", dist.masses[i]))
    for k in range(n):
        for j in range(k + 1, n):
            coeffs = [F(0)] * width
            for i in range(k, n):
                coeffs[col[(k, i)]] = dist.values[k] - (
                    dist.values[j] if i >= j else F(0)
                )
            rows.append((coeffs, ">=", F(0)))
    return rows, col


def reference_buyer_optimal(dist: ValueDistribution):
    rows, col = reference_rows(dist, 0)
    objective = [dist.values[i] - dist.values[k] for k, i in col]
    return objective, frozenset(), rows, col


def reference_adversary(dist: ValueDistribution, m: Fraction):
    n = dist.n
    rows, col = reference_rows(dist, n + 1)
    nu0 = len(col)
    lam = nu0 + n
    objective = [F(0)] * (lam + 1)
    for i in range(n):
        objective[nu0 + i] = -dist.masses[i]
    objective[lam] = m
    for i in range(n):
        coeffs = [F(0)] * (lam + 1)
        coeffs[lam] = dist.masses[i]
        coeffs[nu0 + i] = -dist.masses[i]
        for k in range(i + 1):
            coeffs[col[(k, i)]] = -(dist.values[i] - dist.values[k])
        rows.append((coeffs, "<=", F(0)))
    return objective, frozenset({lam}), rows, col


def diagonal_substitution(
    dist: ValueDistribution, objective, free, rows, col
) -> tuple[LinearProgram, frozenset]:
    """The reference program with x[i][i] = f_i - sum_{k<i} x[k][i], in
    standard form, and the columns the reference leaves free.

    Each mass equality becomes 0 == 0, and the sign restriction
    x[i][i] >= 0 becomes the row sum_{k<i} x[k][i] <= f_i, which is vacuous
    for the lowest value; both are asserted.  Each ``>=`` row is negated
    into a ``<=`` row.  The extra columns keep their coefficients and move
    down by the n diagonal columns.  Each row is given as its nonzeros, so
    it equals the solver's row only if every coefficient of the solver's
    is nonzero and in its own column."""
    n = dist.n
    canonical = [(k, i) for k in range(n) for i in range(k + 1, n)]
    nx = len(col)

    def substitute(coeffs, rhs):
        diagonal = [coeffs[col[(i, i)]] for i in range(n)]
        out = [coeffs[col[(k, i)]] - diagonal[i] for k, i in canonical]
        shift = sum((d * f for d, f in zip(diagonal, dist.masses)), F(0))
        return out + list(coeffs[nx:]), rhs - shift

    def nonzeros(coeffs):
        return tuple((j, a) for j, a in enumerate(coeffs) if a)

    costs, constant = substitute(objective, F(0))
    assert constant == 0
    standard = []
    for i in range(n):
        sign_row = [F(0)] * len(objective)
        sign_row[col[(i, i)]] = F(-1)  # -x[i][i] <= 0
        coeffs, rhs = substitute(sign_row, F(0))
        if i == 0:
            assert not any(coeffs) and rhs == dist.masses[0]
        else:
            row_i = [F(int(value == i)) for _, value in canonical]
            assert coeffs == row_i + [F(0)] * (len(objective) - nx)
            standard.append((nonzeros(coeffs), rhs))
    for coeffs, sense, rhs in rows:
        coeffs, rhs = substitute(coeffs, rhs)
        if sense == "==":
            assert not any(coeffs) and rhs == 0
        elif sense == ">=":
            standard.append((nonzeros([-a for a in coeffs]), -rhs))
        else:
            standard.append((nonzeros(coeffs), rhs))
    lp = LinearProgram(tuple(costs), tuple(standard))
    return lp, frozenset(j - n for j in free)


def certification_masses(dist: ValueDistribution) -> list[Fraction]:
    """The final scheme's certification grid, and m = 1."""
    grid = adversary_grid(
        scheme_surplus(monotone_fair_scheme(dist).final.to_signaling_scheme())
    )
    return sorted(set(grid) | {F(1)})


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
    def test_diagonal_substitution_gives_the_canonical_lps(self, dist, monkeypatch):
        """Substituting the diagonal out of the reference rows gives, row for
        row and right-hand side for right-hand side, the LPs `oracles` hands
        to the solver.  The only other difference is that the reference
        leaves lambda, the adversary's last column, free, where the solver
        keeps it non-negative (see `test_nonnegative_lambda_loses_nothing`).
        m enters both forms only as lambda's objective coefficient, so they
        are the same program at every m.  Nothing is solved: the capture
        answers with the origin, full revelation."""
        origin = lambda lp, start: LPResult(F(0), (F(0),) * lp.n_vars, None)
        captured = capture_lps(monkeypatch, solve=origin)
        m = F(1, 3)
        adversary_sorted_prefix(dist, [m])
        lp_buyer_optimal_scheme(dist)
        expected = [
            diagonal_substitution(dist, *reference_adversary(dist, m)),
            diagonal_substitution(dist, *reference_buyer_optimal(dist)),
        ]
        assert len(captured) == len(expected)
        for lp, (ref, _) in zip(captured, expected):
            assert lp.objective == ref.objective
            assert lp.constraints == ref.constraints
        lam = captured[0].n_vars - 1
        assert [free for _, free in expected] == [frozenset({lam}), frozenset()]

    @pytest.mark.parametrize("dist", reference_instances())
    def test_values_and_witnesses_match_reference(self, dist):
        scheme, total = lp_buyer_optimal_scheme(dist)
        assert total == buyer_optimal_scheme(dist)[1]
        assert is_efficient(scheme)
        assert scheme_surplus(scheme).total == total
        SignalingScheme(dist, scheme.entries)
        masses = certification_masses(dist)
        for m, (value, witness) in zip(masses, adversary_witnesses(dist, masses)):
            SignalingScheme(dist, witness.entries)
            step = profile_step_function(scheme_surplus(witness))
            assert sorted_prefix(step, m) == value


def highs_value(optimize, lp: LinearProgram) -> float:
    """Optimal value of ``lp`` by HiGHS in floating point, with its last
    column, the adversary's lambda, free."""
    a_ub = [[0.0] * lp.n_vars for _ in lp.constraints]
    for dense, (row, _) in zip(a_ub, lp.constraints):
        for j, a in row:
            dense[j] = float(a)
    b_ub = [float(rhs) for _, rhs in lp.constraints]
    bounds = [(0, None)] * (lp.n_vars - 1) + [(None, None)]
    c = [-float(a) for a in lp.objective]
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("dist", reference_instances())
def test_adversary_values_match_highs(dist, monkeypatch):
    """Independent optimality check: HiGHS, which shares no code with
    `solve_lp`, solves the same adversary rows at every grid mass, with
    lambda free as in the dual it comes from."""
    optimize = pytest.importorskip("scipy.optimize")
    captured = capture_lps(monkeypatch)
    masses = certification_masses(dist)
    sweep = adversary_sorted_prefix(dist, masses)
    assert [lp.objective[-1] for lp in captured] == masses
    for lp, value in zip(captured, sweep):
        assert math.isclose(value, highs_value(optimize, lp), rel_tol=1e-9)


@pytest.mark.parametrize("dist", reference_instances())
def test_nonnegative_lambda_loses_nothing(dist, monkeypatch):
    """Exact check that the adversary may keep lambda >= 0: one more column
    equal to lambda's negation, which lets lambda take any sign, leaves the
    optimum unchanged at every grid mass.  The free-lambda programs share
    their rows, so they are swept from mass to mass like the adversary's."""
    captured = capture_lps(monkeypatch)
    masses = certification_masses(dist)
    sweep = adversary_sorted_prefix(dist, masses)
    assert [lp.objective[-1] for lp in captured] == masses
    rows = captured[0].constraints
    lam = captured[0].n_vars - 1
    # lambda is each row's last entry, if the row has one
    free_rows = tuple(
        (row + ((lam + 1, -row[-1][1]),) if row[-1][0] == lam else row, rhs)
        for row, rhs in rows
    )
    result = None
    for lp, value in zip(captured, sweep):
        assert lp.constraints == rows
        free_lambda = LinearProgram(lp.objective + (-lp.objective[-1],), free_rows)
        result = solve_lp(free_lambda, start=result)
        assert result.value == value


@pytest.mark.parametrize("dist", reference_instances())
def test_sweep_matches_cold_solves(dist, monkeypatch):
    """Each mass of a warm-started sweep has the value of the same LP solved
    from the origin."""
    captured = capture_lps(monkeypatch)
    masses = certification_masses(dist)
    sweep = adversary_sorted_prefix(dist, masses)
    assert [lp.objective[-1] for lp in captured] == masses
    for lp, value in zip(captured, sweep):
        assert solve_lp(lp).value == value


# The pivot count of the sweeps in `test_sweep_pivots_stay_pinned`, as
# measured under the largest-gain rule.
SWEEP_PIVOTS = 430


def test_sweep_pivots_stay_pinned(monkeypatch):
    """The adversary sweeps over every reference instance's certification
    masses take at most SWEEP_PIVOTS pivots in all, so a change that costs
    pivots shows here, not only as time.  A change that raises the count on
    purpose updates the pin and says so in CHANGES.md; one that lowers it
    lowers the pin."""
    pivots = 0
    pivot = lp_module._Tableau.pivot

    def counting(tab, r, c):
        nonlocal pivots
        pivots += 1
        pivot(tab, r, c)

    monkeypatch.setattr(lp_module._Tableau, "pivot", counting)
    for param in reference_instances():
        (dist,) = param.values
        adversary_sorted_prefix(dist, certification_masses(dist))
    assert pivots <= SWEEP_PIVOTS


@given(structured_priors(max_n=10))
@settings(max_examples=15, deadline=None)
def test_sweeps_follow_the_eager_tableau(case):
    """Every pricing and pivot of a sweep over the certification masses
    matches `conftest.EagerTableau` row for row."""
    _, dist = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "solve_lp", eager_lockstep(patch))
        adversary_sorted_prefix(dist, certification_masses(dist), max_support=dist.n)


@pytest.mark.parametrize("name", ["running_example", "fig3_instance"])
def test_canonical_lps_start_at_full_revelation(name, request, monkeypatch):
    """Every canonical row holds at the origin, whose slack basis is
    therefore feasible, so the one-phase solver can start there."""
    dist = request.getfixturevalue(name)
    captured = capture_lps(monkeypatch)
    adversary_sorted_prefix(dist, [F(1, 2)])
    lp_buyer_optimal_scheme(dist)
    assert len(captured) == 2
    for lp in captured:
        assert all(rhs >= 0 for _, rhs in lp.constraints)
