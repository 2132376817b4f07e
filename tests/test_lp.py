"""Exact simplex solver: standard form, exactness, brute-force cross-checks."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from fairsignal import lp as lp_module
from fairsignal.lp import LinearProgram, solve_lp
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


def test_random_bounded_programs_match_vertex_enumeration():
    rng = random.Random(97)
    for _ in range(120):
        lp = LinearProgram(objective=(F(rng.randint(-4, 6)), F(rng.randint(-4, 6))))
        box = F(rng.randint(2, 9))
        lp.add((F(1), F(0)), box)
        lp.add((F(0), F(1)), box)
        for _ in range(rng.randint(0, 4)):
            lp.add(*origin_row(rng))
        assert solve_lp(lp).value == brute_force_2d(lp)


def test_random_homogeneous_programs_match_vertex_enumeration():
    # "<= 0" rows, the shape of the adversary's capacity rows, mixed with a
    # random row that holds at the origin, in a box
    rng = random.Random(131)
    for _ in range(120):
        lp = LinearProgram(objective=(F(rng.randint(-4, 6)), F(rng.randint(-4, 6))))
        box = F(rng.randint(2, 9))
        lp.add((F(1), F(0)), box)
        lp.add((F(0), F(1)), box)
        for _ in range(rng.randint(1, 3)):
            lp.add((F(rng.randint(-3, 4)), F(rng.randint(-3, 4))), F(0))
        if rng.random() < 0.5:
            lp.add(*origin_row(rng))
        assert solve_lp(lp).value == brute_force_2d(lp)
