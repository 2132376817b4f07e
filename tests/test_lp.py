"""Exact simplex solver: statuses, exactness, brute-force cross-checks."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from fairsignal import lp as lp_module
from fairsignal.lp import GE, LE, LinearProgram, solve_lp

F = Fraction


def test_single_bound():
    lp = LinearProgram(objective=(F(1),))
    lp.add((F(1),), LE, F(3))
    res = solve_lp(lp)
    assert (res.status, res.value, res.point) == ("optimal", F(3), (F(3),))


def test_rows_that_fail_at_the_origin_are_refused(monkeypatch):
    # no phase 1: each row must hold at x = 0, or nothing is pivoted
    def no_pivot(*args):
        raise AssertionError("pivoted")

    monkeypatch.setattr(lp_module._Tableau, "pivot", no_pivot)
    for row in [((F(1),), "==", F(1)), ((F(1),), GE, F(1)), ((F(1),), LE, F(-1))]:
        lp = LinearProgram(objective=(F(1),), constraints=[((F(1),), LE, F(2)), row])
        with pytest.raises(ValueError):
            solve_lp(lp)


def test_unbounded():
    lp = LinearProgram(objective=(F(1), F(1)))
    lp.add((F(1), F(-1)), LE, F(1))
    assert solve_lp(lp).status == "unbounded"


def test_free_variable():
    # max -y with y free and y >= -(x + 4) / 4 written as a row that holds at 0
    lp = LinearProgram(objective=(F(0), F(-1)), free=frozenset({1}))
    lp.add((F(-1), F(-4)), LE, F(4))
    lp.add((F(1), F(0)), LE, F(10))
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.point == (F(10), F(-7, 2))


def test_degenerate_constraints():
    lp = LinearProgram(objective=(F(1), F(1)))
    for _ in range(3):
        lp.add((F(1), F(1)), LE, F(1))
    lp.add((F(2), F(2)), LE, F(2))
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == F(1)


def test_exact_rationals_survive():
    lp = LinearProgram(objective=(F(1, 3), F(1, 7)))
    lp.add((F(2, 5), F(1, 9)), LE, F(22, 45))
    lp.add((F(1), F(1)), LE, F(2))
    res = solve_lp(lp)
    assert res.status == "optimal"
    assert res.value == F(1, 3) * res.point[0] + F(1, 7) * res.point[1]
    assert F(2, 5) * res.point[0] + F(1, 9) * res.point[1] <= F(22, 45)


def brute_force_2d(lp: LinearProgram) -> Fraction:
    """Optimal value by enumerating all constraint-pair vertices."""
    rows = [(F(1), F(0), GE, F(0)), (F(0), F(1), GE, F(0))]
    rows = [row for j, row in enumerate(rows) if j not in lp.free]
    rows += [(c[0], c[1], s, r) for c, s, r in lp.constraints]

    def feasible(x, y):
        for a, b, s, r in rows:
            lhs = a * x + b * y
            if s == LE and lhs > r:
                return False
            if s == GE and lhs < r:
                return False
        return True

    best = None
    for (a1, b1, _, r1), (a2, b2, _, r2) in itertools.combinations(rows, 2):
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


def origin_row(rng: random.Random) -> tuple[tuple[Fraction, Fraction], str, Fraction]:
    """A random row of either sense that holds at the origin."""
    coeffs = (F(rng.randint(-3, 4)), F(rng.randint(-3, 4)))
    sense = rng.choice((LE, GE))
    rhs = F(rng.randint(0, 8))
    return coeffs, sense, rhs if sense == LE else -rhs


def test_random_bounded_programs_match_vertex_enumeration():
    rng = random.Random(97)
    for _ in range(120):
        lp = LinearProgram(objective=(F(rng.randint(-4, 6)), F(rng.randint(-4, 6))))
        box = F(rng.randint(2, 9))
        lp.add((F(1), F(0)), LE, box)
        lp.add((F(0), F(1)), LE, box)
        for _ in range(rng.randint(0, 4)):
            lp.add(*origin_row(rng))
        res = solve_lp(lp)
        assert (res.status, res.value) == ("optimal", brute_force_2d(lp))


def test_homogeneous_rows_with_free_variable():
    # max 2y - x with y free: y <= x and 2y <= z as ">= 0" rows, x + z <= 4
    lp = LinearProgram(objective=(F(-1), F(2), F(0)), free=frozenset({1}))
    lp.add((F(1), F(-1), F(0)), GE, F(0))
    lp.add((F(0), F(-2), F(1)), GE, F(0))
    lp.add((F(1), F(0), F(1)), LE, F(4))
    res = solve_lp(lp)
    assert (res.status, res.value) == ("optimal", F(4, 3))
    assert res.point == (F(4, 3), F(4, 3), F(8, 3))
    # max -y: the free variable goes negative, down to y = -x/3 with x = 4
    lp.objective = (F(0), F(-1), F(0))
    lp.add((F(1), F(3), F(0)), GE, F(0))
    res = solve_lp(lp)
    assert (res.status, res.value) == ("optimal", F(4, 3))
    assert res.point == (F(4), F(-4, 3), F(0))


def test_random_homogeneous_programs_match_vertex_enumeration():
    # ">= 0" rows mixed with a row of either sense, x >= 0 and y free in a box
    rng = random.Random(131)
    for _ in range(120):
        lp = LinearProgram(
            objective=(F(rng.randint(-4, 6)), F(rng.randint(-4, 6))),
            free=frozenset({1}),
        )
        box = F(rng.randint(2, 9))
        lp.add((F(1), F(0)), LE, box)
        lp.add((F(0), F(1)), LE, box)
        lp.add((F(0), F(1)), GE, -box)
        for _ in range(rng.randint(1, 3)):
            lp.add((F(rng.randint(-3, 4)), F(rng.randint(-3, 4))), GE, F(0))
        if rng.random() < 0.5:
            lp.add(*origin_row(rng))
        res = solve_lp(lp)
        assert (res.status, res.value) == ("optimal", brute_force_2d(lp))
