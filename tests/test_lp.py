"""Exact simplex solver: standard form, exactness, brute-force cross-checks."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from fairsignal import lp as lp_module
from fairsignal.lp import LinearProgram, LPResult, solve_lp
from fairsignal.market import InvariantViolation

F = Fraction


def test_single_bound():
    lp = LinearProgram(objective=(F(1),))
    lp.add((F(1),), F(3))
    res = solve_lp(lp)
    assert (res.value, res.point) == (F(3), (F(3),))


def test_rows_that_fail_at_the_origin_are_refused(monkeypatch):
    # no phase 1: each row must hold at x = 0, or nothing is pivoted
    def no_pivot(*args):
        raise AssertionError("pivoted")

    monkeypatch.setattr(lp_module._Tableau, "pivot", no_pivot)
    lp = LinearProgram(
        objective=(F(1),), constraints=[((F(1),), F(2)), ((F(1),), F(-1))]
    )
    with pytest.raises(ValueError):
        solve_lp(lp)


def test_unbounded():
    lp = LinearProgram(objective=(F(1), F(1)))
    lp.add((F(1), F(-1)), F(1))
    with pytest.raises(InvariantViolation):
        solve_lp(lp)


def test_degenerate_constraints():
    lp = LinearProgram(objective=(F(1), F(1)))
    for _ in range(3):
        lp.add((F(1), F(1)), F(1))
    lp.add((F(2), F(2)), F(2))
    assert solve_lp(lp).value == F(1)


def test_exact_rationals_survive():
    lp = LinearProgram(objective=(F(1, 3), F(1, 7)))
    lp.add((F(2, 5), F(1, 9)), F(22, 45))
    lp.add((F(1), F(1)), F(2))
    res = solve_lp(lp)
    assert res.value == F(1, 3) * res.point[0] + F(1, 7) * res.point[1]
    assert F(2, 5) * res.point[0] + F(1, 9) * res.point[1] <= F(22, 45)


def brute_force_2d(lp: LinearProgram) -> Fraction:
    """Optimal value by enumerating all constraint-pair vertices."""
    rows = [(F(-1), F(0), F(0)), (F(0), F(-1), F(0))]  # x >= 0, y >= 0
    rows += [(c[0], c[1], r) for c, r in lp.constraints]

    def feasible(x, y):
        return all(a * x + b * y <= r for a, b, r in rows)

    best = None
    for (a1, b1, r1), (a2, b2, r2) in itertools.combinations(rows, 2):
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        x = (r1 * b2 - r2 * b1) / det
        y = (a1 * r2 - a2 * r1) / det
        if feasible(x, y):
            val = lp.objective[0] * x + lp.objective[1] * y
            if best is None or val > best:
                best = val
    return best


def origin_row(rng: random.Random) -> tuple[tuple[Fraction, Fraction], Fraction]:
    """A random row that holds at the origin."""
    return (F(rng.randint(-3, 4)), F(rng.randint(-3, 4))), F(rng.randint(0, 8))


def bounded_program(rng: random.Random) -> LinearProgram:
    lp = LinearProgram(objective=random_objective(rng))
    box = F(rng.randint(2, 9))
    lp.add((F(1), F(0)), box)
    lp.add((F(0), F(1)), box)
    for _ in range(rng.randint(0, 4)):
        lp.add(*origin_row(rng))
    return lp


def homogeneous_program(rng: random.Random) -> LinearProgram:
    """"<= 0" rows, the shape of the adversary's capacity rows, mixed with a
    random row that holds at the origin, in a box."""
    lp = LinearProgram(objective=random_objective(rng))
    box = F(rng.randint(2, 9))
    lp.add((F(1), F(0)), box)
    lp.add((F(0), F(1)), box)
    for _ in range(rng.randint(1, 3)):
        lp.add((F(rng.randint(-3, 4)), F(rng.randint(-3, 4))), F(0))
    if rng.random() < 0.5:
        lp.add(*origin_row(rng))
    return lp


def random_objective(rng: random.Random) -> tuple[Fraction, Fraction]:
    return F(rng.randint(-4, 6)), F(rng.randint(-4, 6))


def test_random_bounded_programs_match_vertex_enumeration():
    rng = random.Random(97)
    for _ in range(120):
        lp = bounded_program(rng)
        assert solve_lp(lp).value == brute_force_2d(lp)


def test_random_homogeneous_programs_match_vertex_enumeration():
    rng = random.Random(131)
    for _ in range(120):
        lp = homogeneous_program(rng)
        assert solve_lp(lp).value == brute_force_2d(lp)


@pytest.mark.parametrize("program", [bounded_program, homogeneous_program])
def test_warm_start_matches_vertex_enumeration(program):
    """Solve for one objective, then warm-start the same rows for a second
    objective, with fractional coefficients so the objective scale changes."""
    rng = random.Random(137)
    for _ in range(120):
        first = program(rng)
        result = solve_lp(first)
        assert result.value == brute_force_2d(first)
        for _ in range(2):
            objective = tuple(c / rng.randint(1, 3) for c in random_objective(rng))
            second = LinearProgram(objective, first.constraints)
            result = solve_lp(second, start=result)
            assert result.value == brute_force_2d(second)


def test_start_from_other_rows_is_refused():
    rng = random.Random(139)
    lp = bounded_program(rng)
    other = bounded_program(rng)
    other.add((F(1), F(1)), F(20))
    with pytest.raises(ValueError):
        solve_lp(other, start=solve_lp(lp))
    # a result that carries no tableau cannot be continued either
    with pytest.raises(ValueError):
        solve_lp(lp, start=LPResult(F(0), (F(0), F(0))))


def box_program(objective) -> LinearProgram:
    """max objective.(x, y) over the box 0 <= x, y <= 1."""
    lp = LinearProgram(objective=objective)
    lp.add((F(1), F(0)), F(1))
    lp.add((F(0), F(1)), F(1))
    return lp


def test_early_stop_fails_dual_check(monkeypatch):
    """A run that stops after one pivot leaves a feasible vertex, which the
    primal check accepts; only the dual certificate proves it not optimal."""

    def one_pivot(tab):
        z = tab.rows[-1]
        entering = next(j for j in range(len(z) - 1) if z[j] < 0)
        tab.pivot(tab._choose_row(entering), entering)

    monkeypatch.setattr(lp_module._Tableau, "run", one_pivot)
    with pytest.raises(InvariantViolation, match="dual"):
        solve_lp(box_program((F(1), F(1))))


def test_stale_pricing_fails_dual_check(monkeypatch):
    """A warm start that keeps the previous objective row stops at once at the
    old optimum, (1, 0), which is feasible but not optimal for the new one."""
    first = solve_lp(box_program((F(1), F(0))))
    monkeypatch.setattr(lp_module._Tableau, "price", lambda tab, objective: None)
    with pytest.raises(InvariantViolation, match="dual"):
        solve_lp(box_program((F(0), F(1))), start=first)


@pytest.mark.parametrize(
    "x, message",
    [(0, "dual value"), (2, "violates row 0"), (-1, "negative variable")],
    ids=["feasible", "outside", "negative"],
)
def test_moved_point_fails_its_check(monkeypatch, x, message):
    """The optimum (1, 1) of max x + y over the unit box, with x moved after
    the run: to another feasible point, which only the duality gap tells
    from the optimum, past its bound, or below zero."""
    run = lp_module._Tableau.run

    def run_then_move(tab):
        run(tab)
        i = tab.basis.index(0)
        tab.rows[i] = tab.rows[i][:-1] + [x * tab.den]

    monkeypatch.setattr(lp_module._Tableau, "run", run_then_move)
    with pytest.raises(InvariantViolation, match=message):
        solve_lp(box_program((F(1), F(1))))
