"""Exact rational linear programming: one-phase primal simplex, warm-startable.

A program is in standard form: maximize c.x subject to rows A x <= b with
b >= 0, and x >= 0.  The origin is then a feasible vertex: every row gets
one slack, the slacks form the starting basis, and there is no phase 1.
A row with a negative right-hand side raises ValueError before any pivot,
and an unbounded program raises InvariantViolation, since no caller builds
one.  The canonical LPs of `oracles` have this form because they start at
full revelation.  Coefficients, right-hand sides and objective entries are
ints or Fractions; a float raises TypeError when it is solved, since its
binary rounding would enter the program as an exact rational.

The tableau is kept as an integer matrix over a running denominator den
(the previous pivot), so every pivot is a fraction-free (Bareiss) update
and no floating point ever enters.  It is condensed, as in the integer
pivoting dictionary of Avis's lrs: it keeps one column per nonbasic
variable, since a basic variable's column is den in its own row and 0
elsewhere.  Variables are labelled structural first, then one slack per
row; ``cols`` labels the columns and ``basis`` the rows.  A pivot on row r
and column c updates every other row by the Bareiss formula, then puts the
leaving variable's column where the entering one was: -f in a row whose
column-c entry was f, and the old den in row r.  That is the eager form,
which every row follows; the rows are stored as follows.

Deferred scaling.  The eager update rewrites every row at every pivot,
even a row whose entry f in the entering column is 0: its true values do
not change, and its integers only follow the running den.  Here row i is
stored at its own stamp t_i, the den at which it was last written, and
its true entries are its integers over t_i; the eager integers are
x * den / t_i, which are integers because the eager update's are.  A pivot
on (r, c) brings row r to den, then leaves every row with f = 0 as it is
and writes each other row k at the stamp piv: (x * piv - f * y) / t_k is
the eager row's (x' * piv - f' * y) / den with x' = x * den / t_k and
f' = f * den / t_k, so it is the eager integer and the division is exact,
and so is its column-c entry -f' = -f * den / t_k.  The pivot row keeps
its integers, den in column c, at the stamp piv.  A row's stamp is a
positive factor common to all its entries, so every comparison made
within one row, or between the objective row and ratios within one row,
is unchanged: the ratio test's rhs_r / a_rj, the gain -z_j * rhs_r / a_rj
and the degeneracy test rhs_r = 0.  The pivots are therefore exactly the
eager tableau's.  Pricing and the certificate, which add rows or read
values, read them brought to den.

Units.  Scaling each row by the lcm of its denominators leaves common
factors in the columns: in the canonical LPs, the prior's mass
denominator D sits in every mass column.  Each structural column j is
therefore divided by the gcd g_j of its integer entries, so the tableau
measures variable j in units of 1/g_j.  Every solve, cold or warm,
divides c_j by the same g_j, and the point comes back in the caller's
units, x_j = v_j / (den * g_j) for the basic value v_j.  Bareiss's
integers are minors of the integer rows, so a factor left in a column
would lengthen the integers of every pivot.

Pricing is the largest-improvement rule: among the negative reduced costs
z_j, the column whose own ratio test gives the largest gain
-z_j * rhs_r / a_rj enters, gains compared by integer cross-multiplication
and tied ones to the lowest label.  The gain is the rise in the objective,
so unlike Dantzig's most negative z_j it does not depend on a column's
units.  After a degenerate pivot (the leaving row's right-hand side is 0)
Bland's rule takes over, the lowest-labelled negative column, until the
next nondegenerate pivot.  The ratio test breaks ties on the lowest basis
label throughout.  This terminates: Bland's rule cannot cycle from any
basis, so every degenerate stretch ends, and every nondegenerate pivot
strictly raises the objective, so no basis recurs after one.

Warm start.  ``solve_lp(lp, start=previous)`` continues from the final
basis of a previous solve over the same rows, with a new objective (the
parametric objective of Gass and Saaty, 1955).  Changing c keeps that basis
primal feasible, so only the objective row is rebuilt, as the sum over
basic rows of c_B times the row, less den times c, on the nonbasic columns;
that is the row pivoting to the basis from scratch gives, so later pivots
still divide exactly.  Its integers c_j / g_j, over the lcm of their
denominators, are built from the nonzero c_j alone.  Pivots replace rows
rather than edit them, so one result can start any number of solves.  A
cold solve is the same path from the slack basis.

Every answer is proved, cold or warm, against the integer rows built once
from the constraints, in the tableau's units: dividing column j and c_j by
g_j keeps every dual feasible at the same value, so the same duals prove
the caller's program.  The point is re-checked against every row and sign
restriction, and the final objective row gives the duals: y_r = z_r * s_r /
(den * s_c) if row r's slack is nonbasic with entry z_r, and 0 if it is
basic, with s_r a row's and s_c the objective's integer scale.  y >= 0,
y^T A >= c and b.y = c.x are checked exactly.  A feasible dual of equal
value proves the point optimal, so a solver defect cannot surface
silently.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from typing import Optional, Sequence

from .market import InvariantViolation, Record


class LinearProgram(Record):
    """max c.x subject to ``coeffs . x <= rhs`` for each constraint, x >= 0.

    Its fields are fixed, but ``add`` appends to its list of constraints,
    so it has no hash."""

    __hash__ = None
    objective: tuple[Fraction, ...]
    constraints: Optional[list[tuple[tuple[Fraction, ...], Fraction]]] = None

    def __post_init__(self):
        if self.constraints is None:  # a fresh list, so no two programs share one
            object.__setattr__(self, "constraints", [])

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    def add(self, coeffs: Sequence[Fraction], rhs: Fraction) -> None:
        if len(coeffs) != self.n_vars:
            raise ValueError("coefficient vector has wrong length")
        self.constraints.append((tuple(coeffs), rhs))


class LPResult(Record):
    """An optimal value and point, and the final tableau, which
    `solve_lp(..., start=)` continues from."""

    _compared = ("value", "point")
    value: Fraction
    point: tuple[Fraction, ...]
    _tableau: Optional[_Tableau] = None


def _integer_row(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[list[int], int]:
    """The row times its scale, the lcm of its denominators."""
    scale = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return (
        [c.numerator * (scale // c.denominator) for c in coeffs],
        rhs.numerator * (scale // rhs.denominator),
    )


def _integer_objective(
    objective: Sequence[Fraction], units: Sequence[int]
) -> tuple[list[int], int]:
    """c_j / g_j times the lcm of their denominators, and that lcm, built
    from the nonzero c_j only."""
    terms = []
    for j, c in enumerate(objective):
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"objective entry {j} is {c!r}, not an int or a Fraction")
        if c:
            # c_j is reduced, so only g_j can share a factor with its numerator
            p, g = c.numerator, units[j]
            common = math.gcd(p, g)
            terms.append((j, p // common, c.denominator * (g // common)))
    scale = math.lcm(*(q for _, _, q in terms))
    integer = [0] * len(objective)
    for j, p, q in terms:
        integer[j] = p * (scale // q)
    return integer, scale


class _Tableau:
    """Condensed integer simplex tableau; row i's true entries are its ints
    over ``stamps[i]``, and ``den`` is the running Bareiss denominator.

    Row i holds basic variable ``basis[i]``; column j holds nonbasic variable
    ``cols[j]``; the last entry of each row is its right-hand side, and the
    last row is the objective row.
    """

    def __init__(self, lp: LinearProgram):
        nvars = lp.n_vars
        self.constraints = tuple(lp.constraints)
        self.nvars = nvars
        rows = []
        for r, (coeffs, rhs) in enumerate(lp.constraints):
            try:
                row, int_rhs = _integer_row(coeffs, rhs)
            except AttributeError:  # no numerator and denominator: a float, say
                raise TypeError(f"row {r} has an entry that is not an int or a Fraction") from None
            if int_rhs < 0:
                raise ValueError(f"row {r} (<= {rhs}) does not hold at the origin")
            rows.append(row + [int_rhs])
        # variable j is measured in units of 1/units[j]: its column's gcd
        self.units = [math.gcd(*(row[j] for row in rows)) or 1 for j in range(nvars)]
        for row in rows:
            row[:nvars] = [a // g for a, g in zip(row, self.units)]
        # the integer rows, sparse, for the certificate
        self.program = [
            ([(j, a) for j, a in enumerate(row[:-1]) if a], row[-1]) for row in rows
        ]
        self.rows = rows + [[0] * (nvars + 1)]  # then the objective row
        self.stamps = [1] * len(self.rows)
        self.cols = list(range(nvars))
        self.basis = list(range(nvars, nvars + len(rows)))
        self.den = 1
        self.m = len(rows)

    def copy(self) -> _Tableau:
        # pivots and pricing replace rows rather than edit them, but they
        # rewrite the entries of stamps, cols and basis
        twin = copy.copy(self)
        twin.rows = list(self.rows)
        twin.stamps = list(self.stamps)
        twin.cols = list(self.cols)
        twin.basis = list(self.basis)
        return twin

    def row_at_den(self, i: int) -> list[int]:
        """Row i as the eager tableau stores it, over the running den."""
        row, stamp, den = self.rows[i], self.stamps[i], self.den
        if stamp == den:
            return row
        return [x * den // stamp for x in row]

    def price(self, objective: Sequence[int]) -> None:
        """Objective row of max objective.x at the current basis."""
        nvars = self.nvars
        z = [-self.den * objective[b] if b < nvars else 0 for b in self.cols] + [0]
        for i, b in enumerate(self.basis):
            if b < nvars and objective[b]:
                cb = objective[b]
                z = [x + cb * y for x, y in zip(z, self.row_at_den(i))]
        self.rows[-1] = z
        self.stamps[-1] = self.den

    def pivot(self, r: int, c: int) -> None:
        rows, stamps = self.rows, self.stamps
        den = self.den
        prow = self.row_at_den(r)
        piv = prow[c]  # positive: _choose_row takes only entries above 0
        for k in range(len(rows)):
            row = rows[k]
            f = row[c]
            if f == 0 or k == r:
                continue  # a row with no entry in column c keeps its true values
            stamp = stamps[k]
            new = [(x * piv - f * y) // stamp for x, y in zip(row, prow)]
            new[c] = -f * den // stamp
            rows[k] = new
            stamps[k] = piv
        prow = list(prow)
        prow[c] = den
        rows[r] = prow
        stamps[r] = piv
        self.den = piv
        self.basis[r], self.cols[c] = self.cols[c], self.basis[r]

    def _choose_row(self, c: int) -> Optional[int]:
        best = None
        best_num = best_den = 0
        for i in range(self.m):
            a = self.rows[i][c]
            if a <= 0:
                continue
            rhs = self.rows[i][-1]
            if best is None or rhs * best_den < best_num * a or (
                rhs * best_den == best_num * a and self.basis[i] < self.basis[best]
            ):
                best, best_num, best_den = i, rhs, a
        return best

    def _choose_pivot(self, bland: bool) -> Optional[tuple[int, int]]:
        """(row, column) of the next pivot, or None at an optimum.

        The entering column is the negative reduced cost whose own ratio
        test gives the largest gain -z_j * rhs_r / a_rj, ties to the lowest
        label; with ``bland``, the lowest-labelled negative one (Bland's
        rule).  Columns are visited in label order, so a strict comparison
        keeps the lowest label on a tie.
        """
        z = self.rows[-1]
        negative = sorted((b, j) for j, b in enumerate(self.cols) if z[j] < 0)
        best = None
        best_num, best_a = -1, 1
        for b, j in negative:
            r = self._choose_row(j)
            if r is None:
                raise InvariantViolation(f"LP unbounded along variable {b}")
            if bland:
                return r, j
            num, a = -z[j] * self.rows[r][-1], self.rows[r][j]
            if num * best_a > best_num * a:
                best, best_num, best_a = (r, j), num, a
        return best

    def run(self) -> None:
        """Primal simplex to optimality: the largest-gain rule, and Bland's
        rule after a degenerate pivot until the next nondegenerate one."""
        degenerate = False
        while True:
            chosen = self._choose_pivot(degenerate)
            if chosen is None:
                return
            leaving, entering = chosen
            degenerate = self.rows[leaving][-1] == 0
            self.pivot(leaving, entering)

    def certify(
        self, objective: Sequence[int], scale: int
    ) -> tuple[tuple[Fraction, ...], Fraction]:
        """The basic point and its value, proved optimal.

        x_j = v_j / (den * g_j) for the basic values v_j and the column
        units g_j, and the duals are y_r = z_r * s_r / (den * scale), z_r
        the objective row's entry in the column of row r's slack, or 0 if
        that slack is basic.
        Multiplied through by den (and scale), x >= 0, A x <= b, y >= 0,
        y^T A >= c and b.y = c.x are checks on the integer rows, v and z.
        """
        den = self.den
        nvars = self.nvars
        v = [0] * nvars
        for i, b in enumerate(self.basis):
            if b < nvars:
                v[b] = self.rows[i][-1] * den // self.stamps[i]
        if any(x < 0 for x in v):
            raise InvariantViolation("solver produced a negative variable")
        duals = [0] * self.m
        z = self.row_at_den(self.m)
        for j, b in enumerate(self.cols):
            if b >= nvars:
                duals[b - nvars] = z[j]
        if any(y < 0 for y in duals):
            raise InvariantViolation("dual certificate has a negative multiplier")
        lhs = [0] * nvars
        by = 0
        for r, (y, (row, rhs)) in enumerate(zip(duals, self.program)):
            if sum(a * v[j] for j, a in row) > den * rhs:
                raise InvariantViolation(f"solver point violates row {r}")
            if y:
                for j, a in row:
                    lhs[j] += y * a
                by += y * rhs
        for j, (s, c) in enumerate(zip(lhs, objective)):
            if s < den * c:
                raise InvariantViolation(f"dual certificate violates column {j}")
        cx = sum(c * x for c, x in zip(objective, v))
        if by != cx:
            raise InvariantViolation(
                f"dual value {Fraction(by, den * scale)} differs from "
                f"primal value {Fraction(cx, den * scale)}"
            )
        point = tuple(Fraction(x, den * g) for x, g in zip(v, self.units))
        return point, Fraction(cx, den * scale)


def solve_lp(lp: LinearProgram, start: Optional[LPResult] = None) -> LPResult:
    """Maximize, from the origin or from the final basis of ``start``.

    ``start`` must be a result of `solve_lp` over the same constraints, with
    any objective; ValueError refuses any other.  Raises ValueError, before
    any pivot, on a row with a negative right-hand side, and
    InvariantViolation on an unbounded program, or on an answer that fails
    its exact primal or dual check.
    """
    if start is None:
        tab = _Tableau(lp)
    else:
        tab = start._tableau
        if tab is None or tab.nvars != lp.n_vars or tab.constraints != tuple(
            lp.constraints
        ):
            raise ValueError("start was not solved over this program's constraints")
        tab = tab.copy()
    objective, scale = _integer_objective(lp.objective, tab.units)
    tab.price(objective)
    tab.run()
    point, value = tab.certify(objective, scale)
    return LPResult(value, point, tab)
