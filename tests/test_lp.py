"""Exact simplex solver: standard form, exactness, brute-force cross-checks."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from fairsignal import lp as lp_module
from fairsignal.lp import LinearProgram, LPResult, solve_lp
from fairsignal.market import InvariantViolation

from conftest import dense, eager_lockstep, nonzeros

F = Fraction


def program(objective, rows) -> LinearProgram:
    """max objective.x over ``coeffs . x <= rhs`` for dense ``(coeffs, rhs)``."""
    return LinearProgram(tuple(objective), tuple((nonzeros(c), r) for c, r in rows))


def no_pivot(monkeypatch) -> None:
    """Fail the test if the solver pivots."""

    def refuse(*args):
        raise AssertionError("pivoted")

    monkeypatch.setattr(lp_module._Tableau, "pivot", refuse)


def test_single_bound():
    lp = LinearProgram((F(1),), ((((0, F(1)),), F(3)),))
    res = solve_lp(lp)
    assert (res.value, res.point) == (F(3), (F(3),))


def test_ints_are_exact_entries():
    lp = LinearProgram((1, F(1, 2)), ((((0, 1), (1, 2)), 3), (((0, F(1)),), F(5, 2))))
    res = solve_lp(lp)
    assert (res.value, res.point) == (F(21, 8), (F(5, 2), F(1, 4)))


@pytest.mark.parametrize(
    "objective, row, rhs, message",
    [
        ((F(1),), ((0, F(1)),), 0.1, "row 0"),
        ((F(1),), ((0, 0.5),), F(1), "row 0"),
        ((F(1), 0.0), ((0, F(1)), (1, F(1))), F(1), "objective entry 1"),
    ],
    ids=["rhs", "coefficient", "objective"],
)
def test_floats_are_refused(objective, row, rhs, message):
    """A float would carry its binary rounding into the exact program."""
    lp = LinearProgram(objective, ((row, rhs),))
    with pytest.raises(TypeError, match=message):
        solve_lp(lp)


@pytest.mark.parametrize(
    "objective, row, rhs, message",
    [
        ((1, 1), ((0, True), (1, 1)), 1, "row 0"),
        ((1, 1), ((0, 1), (1, 1)), True, "row 0"),
        ((True, 1), ((0, 1), (1, 1)), 1, "objective entry 0"),
        ((1, False), ((0, 1), (1, 1)), 1, "objective entry 1"),
    ],
    ids=["coefficient", "rhs", "objective", "false_objective"],
)
def test_bools_are_refused(objective, row, rhs, message):
    """A bool is an int to Python but no rational to the program, as
    `market.as_fraction` holds too."""
    lp = LinearProgram(objective, ((row, rhs),))
    with pytest.raises(TypeError, match=message):
        solve_lp(lp)


def test_rows_that_fail_at_the_origin_are_refused(monkeypatch):
    # no phase 1: each row must hold at x = 0, or nothing is pivoted
    no_pivot(monkeypatch)
    lp = LinearProgram((F(1),), ((((0, F(1)),), F(2)), (((0, F(1)),), F(-1))))
    with pytest.raises(ValueError):
        solve_lp(lp)


@pytest.mark.parametrize(
    "row",
    [
        ((1, F(1)), (0, F(1))),
        ((0, F(1)), (0, F(1))),
        ((-1, F(1)),),
        ((0, F(1)), (2, F(1))),
        ((3, F(1)),),
    ],
    ids=["out_of_order", "repeated", "negative", "past_the_last", "far_past"],
)
def test_misplaced_columns_are_refused(monkeypatch, row):
    """Columns must strictly increase within range(n_vars).  Unchecked,
    column -1 would land in the dense row's right-hand side, a repeated
    column would keep only its last coefficient, and a column past the
    last would raise IndexError or none at all.  The good row comes first,
    so the check is not just on the first row."""
    no_pivot(monkeypatch)
    lp = LinearProgram((F(1), F(1)), ((((0, F(1)), (1, F(1))), F(2)), (row, F(2))))
    with pytest.raises(ValueError, match="row 1"):
        solve_lp(lp)


@pytest.mark.parametrize(
    "row",
    [(F(1), F(1)), (0, 1), ((0, F(1), F(2)),), ((0,),)],
    ids=["dense_fractions", "dense_ints", "triple", "single"],
)
def test_rows_that_are_not_pairs_are_refused(monkeypatch, row):
    no_pivot(monkeypatch)
    lp = LinearProgram((F(1), F(1)), ((((0, F(1)),), F(1)), (row, F(2))))
    with pytest.raises(TypeError, match="row 1 is not a sequence of"):
        solve_lp(lp)


def test_unbounded():
    lp = program((F(1), F(1)), [((F(1), F(-1)), F(1))])
    with pytest.raises(InvariantViolation):
        solve_lp(lp)


def test_degenerate_constraints():
    rows = [((F(1), F(1)), F(1))] * 3 + [((F(2), F(2)), F(2))]
    assert solve_lp(program((F(1), F(1)), rows)).value == F(1)


def test_exact_rationals_survive():
    lp = program(
        (F(1, 3), F(1, 7)), [((F(2, 5), F(1, 9)), F(22, 45)), ((F(1), F(1)), F(2))]
    )
    res = solve_lp(lp)
    assert res.value == F(1, 3) * res.point[0] + F(1, 7) * res.point[1]
    assert F(2, 5) * res.point[0] + F(1, 9) * res.point[1] <= F(22, 45)


def brute_force_2d(lp: LinearProgram) -> Fraction:
    """Optimal value by enumerating all constraint-pair vertices."""
    rows = [(F(-1), F(0), F(0)), (F(0), F(-1), F(0))]  # x >= 0, y >= 0
    rows += [dense(row, 2) + (r,) for row, r in lp.constraints]

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
    objective = random_objective(rng)
    box = F(rng.randint(2, 9))
    rows = [((F(1), F(0)), box), ((F(0), F(1)), box)]
    rows += [origin_row(rng) for _ in range(rng.randint(0, 4))]
    return program(objective, rows)


def homogeneous_program(rng: random.Random) -> LinearProgram:
    """"<= 0" rows, the shape of the adversary's capacity rows, mixed with a
    random row that holds at the origin, in a box."""
    objective = random_objective(rng)
    box = F(rng.randint(2, 9))
    rows = [((F(1), F(0)), box), ((F(0), F(1)), box)]
    for _ in range(rng.randint(1, 3)):
        rows.append(((F(rng.randint(-3, 4)), F(rng.randint(-3, 4))), F(0)))
    if rng.random() < 0.5:
        rows.append(origin_row(rng))
    return program(objective, rows)


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


def brute_force_3d(lp: LinearProgram) -> Fraction:
    """Optimal value by enumerating the vertices of every triple of planes."""
    rows = [tuple(F(-(i == j)) for j in range(3)) + (F(0),) for i in range(3)]  # x >= 0
    rows += [dense(row, 3) + (r,) for row, r in lp.constraints]

    def det(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    best = None
    for planes in itertools.combinations(rows, 3):
        d = det([p[:3] for p in planes])
        if d == 0:
            continue
        # Cramer's rule: replace column k by the right-hand sides
        x = [
            det([p[:k] + (p[3],) + p[k + 1 : 3] for p in planes]) / d
            for k in range(3)
        ]
        if all(sum(a * v for a, v in zip(row, x)) <= row[3] for row in rows):
            val = sum(c * v for c, v in zip(lp.objective, x))
            if best is None or val > best:
                best = val
    return best


def random_ints(rng: random.Random, k: int, lo: int, hi: int) -> tuple[Fraction, ...]:
    return tuple(F(rng.randint(lo, hi)) for _ in range(k))


def box_rows(k: int, bound: Fraction) -> list:
    """x_j <= bound for each of k variables, as dense rows."""
    return [(tuple(F(i == j) for i in range(k)), bound) for j in range(k)]


def bounded_program_3d(rng: random.Random) -> LinearProgram:
    objective = random_ints(rng, 3, -4, 6)
    rows = box_rows(3, F(rng.randint(2, 9)))
    for _ in range(rng.randint(0, 4)):
        rows.append((random_ints(rng, 3, -3, 4), F(rng.randint(0, 8))))
    return program(objective, rows)


def homogeneous_program_nd(rng: random.Random, k: int = 3) -> LinearProgram:
    """"<= 0" rows through the origin, which make degenerate vertices, in a
    k-dimensional box, sometimes with a random row that holds at the origin."""
    objective = random_ints(rng, k, -4, 6)
    rows = box_rows(k, F(rng.randint(2, 9)))
    for _ in range(rng.randint(1, k + 1)):
        rows.append((random_ints(rng, k, -3, 4), F(0)))
    if rng.random() < 0.5:
        rows.append((random_ints(rng, k, -3, 4), F(rng.randint(0, 8))))
    return program(objective, rows)


@pytest.mark.parametrize("program", [bounded_program_3d, homogeneous_program_nd])
def test_three_variables_match_vertex_enumeration(program):
    """Beyond two variables: cold solves, then a warm chain of objectives
    with fractional coefficients over the same rows."""
    rng = random.Random(149)
    for _ in range(60):
        first = program(rng)
        result = solve_lp(first)
        assert result.value == brute_force_3d(first)
        for _ in range(3):
            objective = tuple(c / rng.randint(1, 3) for c in random_ints(rng, 3, -4, 6))
            second = LinearProgram(objective, first.constraints)
            result = solve_lp(second, start=result)
            assert result.value == brute_force_3d(second)


def tableau_state(result: LPResult) -> tuple:
    """Every row at den, stored or derived, labels and den."""
    tab = result._tableau
    rows = [tab.row_at_den(i) for i in range(len(tab.rows))]
    return rows, list(tab.basis), list(tab.cols), tab.den


@pytest.mark.parametrize("program", [bounded_program_3d, homogeneous_program_nd])
def test_one_start_serves_two_objectives_in_either_order(program):
    """Warm solves from one start agree with cold solves, give the same
    answer whichever objective goes first, and leave the start intact."""
    rng = random.Random(151)
    for _ in range(40):
        lp = program(rng)
        start = solve_lp(lp)
        before = tableau_state(start)
        seconds = [
            LinearProgram(random_ints(rng, 3, -4, 6), lp.constraints) for _ in range(2)
        ]
        forward = [solve_lp(second, start=start) for second in seconds]
        backward = [solve_lp(second, start=start) for second in reversed(seconds)]
        assert tableau_state(start) == before
        for second, a, b in zip(seconds, forward, reversed(backward)):
            assert a.value == b.value == solve_lp(second).value
            assert a.point == b.point


@pytest.mark.parametrize(
    "program",
    [
        bounded_program,
        homogeneous_program,
        bounded_program_3d,
        lambda rng: homogeneous_program_nd(rng, 5),
    ],
    ids=["bounded", "homogeneous", "bounded_3d", "homogeneous_5d"],
)
def test_deferred_rows_follow_the_eager_tableau(monkeypatch, program):
    """Every pricing and pivot, cold and warm, matches `conftest.EagerTableau`
    row for row, with one start serving two objectives and a warm chain."""
    solve = eager_lockstep(monkeypatch)
    rng = random.Random(167)
    for _ in range(40):
        lp = program(rng)

        def other():
            objective = tuple(F(rng.randint(-4, 6), rng.randint(1, 3)) for _ in lp.objective)
            return LinearProgram(objective, lp.constraints)

        start = solve(lp)
        solve(other(), start=solve(other(), start=start))
        solve(other(), start=start)


@pytest.mark.parametrize("k", [3**40, F(1, 7**25)], ids=["large", "small"])
@pytest.mark.parametrize("program", [bounded_program_3d, homogeneous_program_nd])
def test_a_column_in_other_units(program, k):
    """Multiplying one column, its coefficients and its objective entry, by
    k measures that variable in units of 1/k: the value stays, the
    variable's coordinate is divided by k and the others stay, cold and
    warm-started with a new objective.  The solver divides each column by
    the gcd of its integer entries, so this checks that the point comes
    back in the caller's units, and that an integer k leaves the tableau's
    integers as they were."""
    rng = random.Random(163)

    def rescaled(lp, j):
        def times(pairs):
            return tuple((i, a * k if i == j else a) for i, a in pairs)

        objective = tuple(a for _, a in times(enumerate(lp.objective)))
        return LinearProgram(objective, tuple((times(row), r) for row, r in lp.constraints))

    for _ in range(30):
        lp = program(rng)
        second = LinearProgram(random_ints(rng, 3, -4, 6), lp.constraints)
        j = rng.randrange(3)
        cold, scaled_cold = solve_lp(lp), solve_lp(rescaled(lp, j))
        warm = solve_lp(second, start=cold)
        scaled_warm = solve_lp(rescaled(second, j), start=scaled_cold)
        for result, scaled in [(cold, scaled_cold), (warm, scaled_warm)]:
            assert scaled.value == result.value
            assert scaled.point == tuple(x / k if i == j else x for i, x in enumerate(result.point))
            if isinstance(k, int):
                # no row's scale changes, so the column's gcd takes all of k
                assert tableau_state(scaled) == tableau_state(result)


def capped_pivots(monkeypatch, cap: int) -> list:
    """Record each pivot as (rows, column labels, basis labels, pivot row,
    entering column), taken before the pivot, and fail past ``cap`` pivots.
    The rows, every one at den, stored or derived, hold every candidate
    column's entries and the right-hand sides, enough to redo each
    candidate's ratio test."""
    pivot = lp_module._Tableau.pivot
    record = []

    def recording_pivot(tab, r, c):
        rows = [list(tab.row_at_den(i)) for i in range(len(tab.rows))]
        record.append((rows, list(tab.cols), list(tab.basis), r, c))
        if len(record) > cap:
            raise AssertionError(f"more than {cap} pivots: cycling?")
        pivot(tab, r, c)

    monkeypatch.setattr(lp_module._Tableau, "pivot", recording_pivot)
    return record


@pytest.mark.parametrize(
    "objective, rows, value",
    [
        # Beale (1955)
        (
            (F(3, 4), F(-20), F(1, 2), F(-6)),
            [
                ((F(1, 4), F(-8), F(-1), F(9)), F(0)),
                ((F(1, 2), F(-12), F(-1, 2), F(3)), F(0)),
                ((F(0), F(0), F(1), F(0)), F(1)),
            ],
            F(5, 4),
        ),
        # Chvatal, Linear Programming (1983), section 3
        (
            (F(10), F(-57), F(-9), F(-24)),
            [
                ((F(1, 2), F(-11, 2), F(-5, 2), F(9)), F(0)),
                ((F(1, 2), F(-3, 2), F(-1, 2), F(1)), F(0)),
                ((F(1), F(0), F(0), F(0)), F(1)),
            ],
            F(1),
        ),
    ],
    ids=["beale", "chvatal"],
)
def test_textbook_cycling_examples(monkeypatch, objective, rows, value):
    """Programs on which the textbook largest-coefficient rule cycles.  Here
    the integer rows are scaled, so Dantzig's rule alone does not cycle on
    them either, nor does the largest-gain rule; `test_pivot_rule` checks
    the tie-breaks that rule cycling out."""
    capped_pivots(monkeypatch, 20)
    assert solve_lp(program(objective, rows)).value == value


def tied_program() -> LinearProgram:
    """max 2x + y + z over x - z <= 1, -x + 2y <= 1 and the box x, z <= 2,
    y <= 1.  x enters (gain 2, tied with z), then z (gain 3); the third
    pivot chooses between y and the first row's slack, both of gain 1,
    with the slack's column first."""
    rows = [((F(1), F(0), F(-1)), F(1)), ((F(-1), F(2), F(0)), F(1))]
    for j, bound in enumerate((2, 1, 2)):
        rows.append((tuple(F(i == j) for i in range(3)), F(bound)))
    return program((F(2), F(1), F(1)), rows)


def ratio_test(rows, basis, j) -> tuple[Fraction, int]:
    """Column j's step rhs_r / a_rj and leaving row r: the least ratio over
    rows with a positive entry, ties to the lowest basis label."""
    candidates = [
        (F(row[-1], row[j]), basis[i], i) for i, row in enumerate(rows[:-1]) if row[j] > 0
    ]
    step, _, r = min(candidates)
    return step, r


def test_pivot_rule(monkeypatch):
    """Each entering column is the negative reduced cost whose own ratio
    test gives the largest gain -z_j * rhs_r / a_rj, ties to the lowest
    label, and the leaving row is its ratio test's, ties to the lowest
    basis label.  Gains are recomputed in `Fraction`s from the recorded
    rows.  Where every gain is 0, as at every pivot of a cycle, the
    entering column is therefore Bland's, the lowest-labelled negative one,
    and so is the leaving row: this is what rules cycling out (see `lp`).
    The programs must include pivots where the largest gain is not
    Dantzig's most negative reduced cost, nor Bland's lowest label; a
    positive gain tie broken by label, not by position; and pivots where
    every gain is 0 and the lowest label is not the first negative column."""
    record = capped_pivots(monkeypatch, 200)
    rng = random.Random(157)
    seen = dict.fromkeys(["gain not Dantzig", "gain not Bland", "tie", "zero, labels differ"], 0)
    for lp in [tied_program()] + [homogeneous_program_nd(rng, 5) for _ in range(80)]:
        del record[:]
        solve_lp(lp)
        for rows, cols, basis, leaving, entering in record:
            z = rows[-1]
            negative = [j for j in range(len(cols)) if z[j] < 0]
            gain = {j: -z[j] * ratio_test(rows, basis, j)[0] for j in negative}
            largest = min(negative, key=lambda j: (-gain[j], cols[j]))
            dantzig = min(negative, key=lambda j: (z[j], cols[j]))
            bland = min(negative, key=lambda j: cols[j])
            assert entering == largest
            assert leaving == ratio_test(rows, basis, entering)[1]
            if any(gain.values()):
                seen["gain not Dantzig"] += largest != dantzig
                seen["gain not Bland"] += largest != bland
                tie = min(negative, key=lambda j: -gain[j]) != largest
                seen["tie"] += tie and gain[largest] > 0
            else:
                assert entering == bland
                seen["zero, labels differ"] += min(negative) != bland
    assert all(seen.values()), seen


@pytest.mark.parametrize(
    "program",
    [bounded_program_3d, lambda rng: homogeneous_program_nd(rng, 5)],
    ids=["bounded_3d", "homogeneous_5d"],
)
def test_entries_read_alone_are_the_rows(monkeypatch, program):
    """The ratio tests and the gain bound read entries one at a time, a
    derived row's without deriving the row: `_entry` and `_rhs` for one
    row, `_positive` for one column.  After every pivot of cold and warm
    solves, each is the row at den, brought to the row's stamp if it is
    stored."""
    pivot = lp_module._Tableau.pivot

    def checked_pivot(tab, r, c):
        pivot(tab, r, c)
        scaled = []
        for i in range(tab.m):
            stamp = tab.den if tab.rows[i] is None else tab.stamps[i]
            scaled.append([x * stamp // tab.den for x in tab.row_at_den(i)])
            entries = [tab._entry(i, j) for j in range(len(tab.cols))]
            assert entries + [tab._rhs(i)] == scaled[i]
        for j in range(len(tab.cols)):
            positive = [(i, row[j], row[-1]) for i, row in enumerate(scaled) if row[j] > 0]
            assert sorted(tab._positive(j)) == positive

    monkeypatch.setattr(lp_module._Tableau, "pivot", checked_pivot)
    rng = random.Random(173)
    for _ in range(30):
        lp = program(rng)
        start = solve_lp(lp)
        second = LinearProgram(random_ints(rng, len(lp.objective), -4, 6), lp.constraints)
        solve_lp(second, start=start)


def test_start_from_other_rows_is_refused():
    rng = random.Random(139)
    lp = bounded_program(rng)
    other = LinearProgram(lp.objective, lp.constraints + ((((0, F(1)), (1, F(1))), F(20)),))
    with pytest.raises(ValueError):
        solve_lp(other, start=solve_lp(lp))
    # a result that carries no tableau cannot be continued either
    with pytest.raises(ValueError):
        solve_lp(lp, start=LPResult(F(0), (F(0), F(0)), None))


def box_program(objective) -> LinearProgram:
    """max objective.(x, y) over the box 0 <= x, y <= 1."""
    return program(objective, box_rows(2, F(1)))


def test_early_stop_fails_dual_check(monkeypatch):
    """A run that stops after one pivot leaves a feasible vertex, which the
    primal check accepts; only the dual certificate proves it not optimal."""

    def one_pivot(tab):
        z = tab.rows[-1]
        entering = next(j for j in range(len(z) - 1) if z[j] < 0)
        tab.pivot(tab._choose_row(entering)[0], entering)

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
        tab.stamps[i] = tab.den

    monkeypatch.setattr(lp_module._Tableau, "run", run_then_move)
    with pytest.raises(InvariantViolation, match=message):
        solve_lp(box_program((F(1), F(1))))


def test_negative_multiplier_fails_dual_check():
    """The optimum of max x subject to x <= 1, priced for max -x: the basis
    stays primal feasible, but the slack's multiplier is -1."""
    tab = solve_lp(program((F(1),), [((F(1),), F(1))]))._tableau.copy()
    tab.price([-1])
    with pytest.raises(InvariantViolation, match="^dual certificate has a negative multiplier$"):
        tab.certify([-1], 1)
