"""LP oracles: prefix adversary, hard families, and the reference LPs kept
in the tests: the buyer-optimal LP for equal-revenue peeling and the
max-min surplus LP for the universal family."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings

from fairsignal import lp as lp_module
from fairsignal import oracles, splitmatch
from fairsignal.ironing import monotone_fair_scheme
from fairsignal.lp import LinearProgram, LPResult, solve_lp
from fairsignal.market import (
    MarketError,
    Signal,
    SignalingScheme,
    ValueDistribution,
    buyer_optimal_scheme,
    is_efficient,
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
    dense,
    eager_lockstep,
    max_min_surplus_lp,
    nonzeros,
    pair,
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
        scheme = buyer_optimal_scheme(running_example)
        total = scheme.total_surplus
        assert total == F(1)
        assert is_efficient(scheme)
        assert scheme_surplus(scheme).total == F(1)

    def test_single_value(self):
        d = ValueDistribution.from_pairs([4], [1])
        assert buyer_optimal_scheme(d).total_surplus == F(0)

    def test_five_value_instance(self, fig3_instance):
        total = buyer_optimal_scheme(fig3_instance).total_surplus
        _, revenue = fig3_instance.myerson
        assert total == fig3_instance.expected_value - revenue == F(7, 5)

    def test_original_prices_stay_optimal_in_each_signal(self):
        # in a surplus-maximizing scheme, no signal can beat the old price
        rng = random.Random(101)
        for _ in range(40):
            dist = random_distribution(rng, max_n=6)
            scheme = buyer_optimal_scheme(dist)
            revenues = dist.posted_revenues
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
        total = buyer_optimal_scheme(running_example).total_surplus
        assert value == total == F(1)

    @pytest.mark.parametrize("m", [F(0), F(-1, 2), F(5, 4)], ids=["zero", "negative", "above-1"])
    def test_mass_outside_unit_interval_refused(self, running_example, m):
        with pytest.raises(MarketError) as refused:
            adversary_sorted_prefix(running_example, [F(1, 2), m])
        assert str(refused.value) == f"prefix mass {m} outside (0, 1]"

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
        assert value == buyer_optimal_scheme(d).total_surplus

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
        profile = scheme_surplus(buyer_optimal_scheme(running_example))
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
        best = buyer_optimal_scheme(inst.dist).total_surplus
        assert scheme_surplus(inst.buyer_optimal).total == best
        assert is_efficient(inst.buyer_optimal)
        assert is_efficient(inst.alternative)

    @pytest.mark.parametrize("n", [2, 5, 10, 100])
    def test_peeling_reproduces_unique_scheme(self, n):
        # the family's unique buyer-optimal canonical scheme, by hand
        N = F(n)
        inst = buyer_optimal_lb_instance(n)
        dist = inst.dist
        den = N**2 + N
        s1 = Signal(dist, ((0, pair((N**2 - 1) / den)), (1, pair(1 / den)), (2, pair(N / den))))
        s2 = Signal(dist, ((1, pair(1 / (N + 1))), (2, pair(N / (N + 1)))))
        reference = ((s1, (1, n + 1)), (s2, (n, n + 1)))
        scheme = buyer_optimal_scheme(dist)
        assert scheme.entries == reference
        assert inst.buyer_optimal.entries == reference

    def test_rejects_degenerate_parameter(self):
        with pytest.raises(MarketError):
            buyer_optimal_lb_instance(1)


def test_lp_optimum_is_the_peeled_total_on_corpus(corpus):
    """The LP optimum is E[v] - R*, the total of the scheme
    `buyer_optimal_scheme` returns only after re-checking it; c07 peels this same corpus, so the peeled and
    LP totals are equal on it without peeling each instance twice."""
    for dist in corpus:
        _, revenue = dist.myerson
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


def reference_rows(dist: ValueDistribution, extra: int) -> tuple[list, dict, dict]:
    """Reference form of the canonical polytope, as test data: a column for
    every x[k][i] with k <= i, diagonal included, one ``==`` mass row per
    value and the price-optimality rows as ``>= 0`` rows.  ``extra`` columns
    follow the x columns.  `solve_lp`'s standard form cannot express the
    mass equalities; `diagonal_substitution` maps this form onto the
    canonical LPs instead.  Returns the rows, the column of each x[k][i]
    and the row index of each price-optimality row (k, j): signal k
    priced at v_k against v_j."""
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
    revenue = {}
    for k in range(n):
        for j in range(k + 1, n):
            coeffs = [F(0)] * width
            for i in range(k, n):
                coeffs[col[(k, i)]] = dist.values[k] - (
                    dist.values[j] if i >= j else F(0)
                )
            revenue[(k, j)] = len(rows)
            rows.append((coeffs, ">=", F(0)))
    return rows, col, revenue


def reference_buyer_optimal(dist: ValueDistribution):
    rows, col, _ = reference_rows(dist, 0)
    objective = [dist.values[i] - dist.values[k] for k, i in col]
    return objective, frozenset(), rows, col


def reference_adversary(dist: ValueDistribution, m: Fraction):
    n = dist.n
    rows, col, _ = reference_rows(dist, n + 1)
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


def substitute_diagonal(
    dist: ValueDistribution, col: dict, coeffs, rhs
) -> tuple[list[Fraction], Fraction]:
    """The reference row ``coeffs`` against ``rhs`` with each x[i][i]
    replaced by f_i - sum_{k<i} x[k][i]: its coefficients over the canonical
    columns, then the extra columns, and its new right-hand side."""
    n = dist.n
    diagonal = [coeffs[col[(i, i)]] for i in range(n)]
    out = [coeffs[col[(k, i)]] - diagonal[i] for k in range(n) for i in range(k + 1, n)]
    shift = sum((d * f for d, f in zip(diagonal, dist.masses)), F(0))
    return out + list(coeffs[len(col):]), rhs - shift


def sign_row(col: dict, width: int, i: int) -> list[Fraction]:
    """-x[i][i] <= 0 as a reference row's coefficients."""
    coeffs = [F(0)] * width
    coeffs[col[(i, i)]] = F(-1)
    return coeffs


def diagonal_row(dist: ValueDistribution, col: dict, width: int, i: int):
    """The sign restriction x[i][i] >= 0 after the substitution, for i > 0:
    sum_{k<i} x[k][i] <= f_i, as a ``(row, rhs)`` pair; its form is
    asserted."""
    coeffs, rhs = substitute_diagonal(dist, col, sign_row(col, width, i), F(0))
    n = dist.n
    canonical = [value for k in range(n) for value in range(k + 1, n)]
    assert coeffs == [F(int(value == i)) for value in canonical] + [F(0)] * (width - len(col))
    assert rhs == dist.masses[i]
    return nonzeros(coeffs), rhs


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
    costs, constant = substitute_diagonal(dist, col, objective, F(0))
    assert constant == 0
    standard = [diagonal_row(dist, col, len(objective), i) for i in range(1, n)]
    coeffs, rhs = substitute_diagonal(dist, col, sign_row(col, len(objective), 0), F(0))
    assert not any(coeffs) and rhs == dist.masses[0]
    for coeffs, sense, rhs in rows:
        coeffs, rhs = substitute_diagonal(dist, col, coeffs, rhs)
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


def implied_diagonal_rows(dist: ValueDistribution, extra: int) -> list:
    """The rows x[k][k] >= 0 for 0 < k < n - 1 after the substitution, with
    ``extra`` columns after the x columns, which the solver leaves out
    (`test_omitted_diagonal_rows_are_implied`)."""
    col = reference_rows(dist, 0)[1]
    width = len(col) + extra
    return [diagonal_row(dist, col, width, k) for k in range(1, dist.n - 1)]


def reduced(lp: LinearProgram, omitted: Sequence, source: Optional[int] = None):
    """``lp`` without the rows of ``omitted``, each asserted present once,
    and, given ``source``, with that column folded into the last one: its
    variable set equal to the last, so each row's and the objective's
    coefficient is added to the last column's and its column goes, the
    columns after it moving down by one.  A row the fold empties must hold
    at 0 <= rhs and goes."""
    rows = list(lp.constraints)
    for row in omitted:
        assert rows.count(row) == 1
        rows.remove(row)
    if source is None:
        return LinearProgram(lp.objective, tuple(rows))
    width = lp.n_vars

    def fold(coeffs):
        coeffs = list(coeffs)
        coeffs[-1] += coeffs.pop(source)
        return coeffs

    folded = []
    for row, rhs in rows:
        coeffs = fold(dense(row, width))
        if any(coeffs):
            folded.append((nonzeros(coeffs), rhs))
        else:
            assert rhs >= 0
    return LinearProgram(tuple(fold(lp.objective)), tuple(folded))


def unreduced_adversary(dist: ValueDistribution, m: Fraction) -> tuple[LinearProgram, frozenset]:
    """The reference adversary at mass m after the substitution, every
    diagonal row and nu_1 kept, and the columns it leaves free: lambda, its
    last."""
    return diagonal_substitution(dist, *reference_adversary(dist, m))


def with_free_columns(lp: LinearProgram, free: frozenset) -> LinearProgram:
    """``lp`` with one more column per free column j, j's negation, so that
    their difference takes any sign, as `solve_lp` can solve it."""
    free = sorted(free)
    width = lp.n_vars
    rows = []
    for row, rhs in lp.constraints:
        coeffs = dict(row)
        negated = tuple((width + t, -coeffs[j]) for t, j in enumerate(free) if j in coeffs)
        rows.append((row + negated, rhs))
    objective = lp.objective + tuple(-lp.objective[j] for j in free)
    return LinearProgram(objective, tuple(rows))


class TestReferenceFormulation:
    """The LPs without diagonal columns against the formulation with them."""

    @pytest.mark.parametrize("dist", reference_instances())
    def test_diagonal_substitution_gives_the_canonical_lps(self, dist, monkeypatch):
        """Substituting the diagonal out of the reference rows, leaving out
        the implied diagonal rows and folding nu_1 into lambda gives, row for
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
        adversary, free = unreduced_adversary(dist, m)
        buyer_optimal, none = diagonal_substitution(dist, *reference_buyer_optimal(dist))
        nu1 = len(oracles._canonical_columns(dist.n))
        expected = [
            reduced(adversary, implied_diagonal_rows(dist, dist.n + 1), source=nu1),
            reduced(buyer_optimal, implied_diagonal_rows(dist, 0)),
        ]
        assert len(captured) == len(expected)
        for lp, ref in zip(captured, expected):
            assert lp.objective == ref.objective
            assert lp.constraints == ref.constraints
        assert (free, none) == (frozenset({adversary.n_vars - 1}), frozenset())

    @pytest.mark.parametrize("dist", reference_instances())
    def test_values_and_witnesses_match_reference(self, dist):
        scheme, total = lp_buyer_optimal_scheme(dist)
        assert total == buyer_optimal_scheme(dist).total_surplus
        assert is_efficient(scheme)
        assert scheme_surplus(scheme).total == total
        SignalingScheme(dist, scheme.entries)
        masses = certification_masses(dist)
        for m, (value, witness) in zip(masses, adversary_witnesses(dist, masses)):
            SignalingScheme(dist, witness.entries)
            step = profile_step_function(scheme_surplus(witness))
            assert sorted_prefix(step, m) == value


@pytest.mark.parametrize("dist", reference_instances())
def test_omitted_diagonal_rows_are_implied(dist):
    """Each diagonal row the solver leaves out, sum_{l<k} x[l][k] <= f_k for
    0 < k < n - 1, is dominated coefficient for coefficient by class k's
    price-optimality row against v_{k+1} divided by v_k, whose right-hand
    side is f_k: for x >= 0 that row implies it.  Exact, and nothing is
    solved."""
    rows, col, revenue = reference_rows(dist, 0)
    omitted = implied_diagonal_rows(dist, 0)
    assert len(omitted) == max(dist.n - 2, 0)
    for k, (row, f) in enumerate(omitted, start=1):
        coeffs, sense, rhs = rows[revenue[(k, k + 1)]]
        assert sense == ">="
        price_row, bound = substitute_diagonal(dist, col, [-a for a in coeffs], -rhs)
        v = dist.values[k]
        assert bound / v == f
        assert all(a / v >= d for a, d in zip(price_row, dense(row, len(price_row))))


def highs_value(optimize, lp: LinearProgram, free: frozenset) -> float:
    """Optimal value of ``lp`` by HiGHS in floating point, with the columns
    of ``free`` free."""
    a_ub = [[0.0] * lp.n_vars for _ in lp.constraints]
    for dense_row, (row, _) in zip(a_ub, lp.constraints):
        for j, a in row:
            dense_row[j] = float(a)
    b_ub = [float(rhs) for _, rhs in lp.constraints]
    bounds = [(None, None) if j in free else (0, None) for j in range(lp.n_vars)]
    c = [-float(a) for a in lp.objective]
    res = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return -res.fun


def swept_objectives(dist: ValueDistribution, masses, captured) -> None:
    """The sweep handed over one LP per mass, lambda's coefficient m - f_1."""
    assert [lp.objective[-1] for lp in captured] == [m - dist.masses[0] for m in masses]


@pytest.mark.parametrize("dist", reference_instances())
def test_adversary_values_match_highs(dist, monkeypatch):
    """Independent optimality check: HiGHS, which shares no code with
    `solve_lp`, solves the unreduced reference program at every grid mass,
    every diagonal row and nu_1 kept and lambda free as in the dual it
    comes from, and agrees with the sweep."""
    optimize = pytest.importorskip("scipy.optimize")
    captured = capture_lps(monkeypatch)
    masses = certification_masses(dist)
    sweep = adversary_sorted_prefix(dist, masses)
    swept_objectives(dist, masses, captured)
    for m, value in zip(masses, sweep):
        expected = highs_value(optimize, *unreduced_adversary(dist, m))
        assert math.isclose(value, expected, rel_tol=1e-9)


@pytest.mark.parametrize("dist", reference_instances())
def test_nonnegative_lambda_loses_nothing(dist, monkeypatch):
    """Exact check that the adversary may keep lambda >= 0: the unreduced
    reference program, every diagonal row and nu_1 kept, has the sweep's
    value at every grid mass both with lambda >= 0 and with lambda free
    (one more column equal to lambda's negation).  Each form shares its
    rows from mass to mass, so each is swept like the adversary."""
    captured = capture_lps(monkeypatch)
    masses = certification_masses(dist)
    sweep = adversary_sorted_prefix(dist, masses)
    swept_objectives(dist, masses, captured)
    signed = free = None
    for m, value in zip(masses, sweep):
        lp, columns = unreduced_adversary(dist, m)
        signed = solve_lp(lp, start=signed)
        free = solve_lp(with_free_columns(lp, columns), start=free)
        assert signed.value == free.value == value


@pytest.mark.parametrize("dist", reference_instances())
def test_sweep_matches_cold_solves(dist, monkeypatch):
    """Each mass of a warm-started sweep has the value of the same LP solved
    from the origin, and of the unreduced reference program, lambda free,
    solved from the origin."""
    captured = capture_lps(monkeypatch)
    masses = certification_masses(dist)
    sweep = adversary_sorted_prefix(dist, masses)
    swept_objectives(dist, masses, captured)
    for m, lp, value in zip(masses, captured, sweep):
        assert solve_lp(lp).value == value
        assert solve_lp(with_free_columns(*unreduced_adversary(dist, m))).value == value


@pytest.mark.parametrize("dist", reference_instances())
def test_masses_within_the_lowest_class_take_no_pivot(dist, monkeypatch):
    """At m <= f_1 every prefix lies in the lowest class, which earns
    nothing, and lambda's coefficient m - f_1 is not positive: the origin
    is optimal, and the sweep takes no pivot."""
    def refuse(*args):
        raise AssertionError("pivoted")

    monkeypatch.setattr(lp_module._Tableau, "pivot", refuse)
    f1 = dist.masses[0]
    assert adversary_sorted_prefix(dist, [f1 / 3, f1 / 2, f1]) == [0, 0, 0]


# The pivot count of the sweeps in `test_sweep_pivots_stay_pinned`, as
# measured under the largest-gain rule.
SWEEP_PIVOTS = 351


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


# The row updates of the same sweeps in `test_sweep_row_updates_stay_pinned`,
# as measured with only the basic structurals' rows stored.
SWEEP_ROW_UPDATES = 2051


def test_sweep_row_updates_stay_pinned(monkeypatch):
    """The pivots of the sweeps in `test_sweep_pivots_stay_pinned` rewrite
    at most SWEEP_ROW_UPDATES rows in all, the objective row included and
    the pivot row not, so a change that stores or rewrites more rows shows
    here.  A change that raises the count on purpose updates the pin and
    says so in CHANGES.md; one that lowers it lowers the pin.  After every
    pivot, the row of each basic structural is stored and no basic slack's
    row is."""
    updates = 0
    pivot = lp_module._Tableau.pivot

    def counting(tab, r, c):
        nonlocal updates
        before = list(tab.rows)
        pivot(tab, r, c)
        updates += sum(
            new is not old and k != r for k, (old, new) in enumerate(zip(before, tab.rows))
        )
        for row, b in zip(tab.rows, tab.basis):
            assert (row is not None) == (b < tab.nvars)

    monkeypatch.setattr(lp_module._Tableau, "pivot", counting)
    for param in reference_instances():
        (dist,) = param.values
        adversary_sorted_prefix(dist, certification_masses(dist))
    assert updates <= SWEEP_ROW_UPDATES


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


def adversary_row_labels(n: int) -> list:
    """Labels of the adversary LP's rows, in `adversary_sorted_prefix`'s
    order: the top class's row, the revenue rows (k, j) of signal k against
    price v_j, then the capacity rows of classes 1..n-1."""
    revenue = [("revenue", k, j) for k in range(n) for j in range(k + 1, n)]
    return (["top"] if n > 1 else []) + revenue + [("capacity", i) for i in range(1, n)]


def hull_point_dual(dist: ValueDistribution, k: int) -> dict:
    """Dual multipliers, by row label, certifying that the adversary at
    m = F_k = f_0 + ... + f_{k-1} is at most U_k, the k lowest classes'
    value less the best revenue a posted price takes from them alone."""
    v, f, n = dist.values, dist.masses, dist.n
    # the lowest price that takes the k lowest classes' best revenue
    star = max(range(k), key=lambda j: (v[j] * sum(f[j:k]), -j))
    y = {("revenue", i, star): F(1) for i in range(star)}
    y.update({("revenue", i, i + 1): (v[i] - v[star]) / v[i] for i in range(star, min(k, n - 1))})
    if k == n > 1:  # one class has no top row, and its multiplier is 0
        y["top"] = v[n - 1] - v[star]
    y.update({("capacity", i): F(1) for i in range(1, k)})
    return y


def assert_hull_points_certified(dist: ValueDistribution) -> None:
    """At every CDF mass F_k, `hull_point_dual` is a feasible point of the
    dual of the LP `adversary_sorted_prefix` builds there (y >= 0 and
    y^T A >= c, so weak duality bounds the LP by b.y), and b.y is U_k."""
    with pytest.MonkeyPatch.context() as patch:
        # the programs only: nothing is solved
        lps = capture_lps(patch, solve=lambda lp, start=None: LPResult(None, None, None))
        adversary_sorted_prefix(dist, dist.cdf, max_support=dist.n)
    labels = adversary_row_labels(dist.n)
    for k, lp in enumerate(lps, 1):
        assert len(lp.constraints) == len(labels)
        y = hull_point_dual(dist, k)
        assert set(y) <= set(labels)
        assert all(weight >= 0 for weight in y.values())
        pushed = [F(0)] * len(lp.objective)
        for label, (row, _) in zip(labels, lp.constraints):
            for column, coefficient in row:
                pushed[column] += y.get(label, 0) * coefficient
        assert all(a >= c for a, c in zip(pushed, lp.objective)), (dist, k)
        bound = sum(y.get(label, 0) * rhs for label, (_, rhs) in zip(labels, lp.constraints))
        assert bound == splitmatch.truncated_upper_bound(dist, k), (dist, k)


def test_every_hull_point_is_certified_in_the_adversary_rows(corpus):
    """c04's lemma, A(F_k) <= U_k, as a certificate of the adversary LP
    itself, at every k of the first 200 corpus instances."""
    for dist in corpus[:200]:
        assert_hull_points_certified(dist)


@given(structured_priors(max_n=10))
@settings(max_examples=8, deadline=None)
def test_every_hull_point_is_certified_on_structured_priors(case):
    _, dist = case
    assert_hull_points_certified(dist)
