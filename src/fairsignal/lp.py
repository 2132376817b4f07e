"""Exact rational linear programming: one-phase primal simplex, warm-startable.

A program is in standard form: maximize c.x subject to rows A x <= b with
b >= 0, and x >= 0.  The origin is then a feasible vertex: every row gets
one slack, the slacks form the starting basis, and there is no phase 1.
The canonical LPs of `oracles` have this form because they start at full
revelation.  A row is given as its nonzeros, (column, coefficient) pairs
in strictly increasing column order.  A row with a negative right-hand
side, or whose columns do not so increase, raises ValueError before any
pivot, and an unbounded program raises InvariantViolation, since no caller
builds one.  Coefficients, right-hand sides and objective entries are ints
or Fractions; a float raises TypeError when it is solved, since its binary
rounding would enter the program as an exact rational, and so does a bool,
an int to Python but not a number of the program.

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
strictly raises the objective, so no basis recurs after one.  A column's
ratio test is skipped when one row already shows it cannot win: the
least ratio is at most rhs_h / a_hj for any row h with a_hj > 0, so
-z_j * rhs_h / a_hj bounds the column's gain, taken from the row that
won the variable's last ratio test.  A column whose bound does not beat
the best gain so far would not have entered, so the pivots are the same.

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
restriction, A x summed column by column over the nonzero basic values,
and the final objective row gives the duals: y_r = z_r * s_r / (den * s_c)
if row r's slack is nonbasic with entry z_r, and 0 if it is basic, with
s_r a row's and s_c the objective's integer scale.  y >= 0,
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
    """max c.x subject to ``row . x <= rhs`` for each ``(row, rhs)`` of
    ``constraints``, and x >= 0.  A row is a tuple of (column, coefficient)
    pairs in strictly increasing column order; a column it leaves out is 0."""

    objective: tuple[Fraction, ...]
    constraints: tuple[tuple[tuple[tuple[int, Fraction], ...], Fraction], ...]

    @property
    def n_vars(self) -> int:
        return len(self.objective)


class LPResult(Record):
    """An optimal value and point, and the final tableau, which
    `solve_lp(..., start=)` continues from."""

    _compared = ("value", "point")
    value: Fraction
    point: tuple[Fraction, ...]
    _tableau: Optional[_Tableau]


def _integer_row(
    r: int, row: Sequence[tuple[int, Fraction]], rhs: Fraction, gcds: list[int]
) -> tuple[list[tuple[int, int]], int]:
    """Row r's pairs and right-hand side times its scale, the lcm of their
    denominators, with each entry folded into its column's gcd in ``gcds``.
    A malformed row, or one that fails at the origin, raises."""
    try:
        scale = math.lcm(rhs.denominator, *(a.denominator for _, a in row))
    except AttributeError:  # no numerator and denominator: a float, say
        raise TypeError(f"row {r} has an entry that is not an int or a Fraction") from None
    except (TypeError, ValueError):  # an entry that does not unpack as a pair
        raise TypeError(f"row {r} is not a sequence of (column, coefficient) pairs") from None
    if isinstance(rhs, bool) or any(isinstance(a, bool) for _, a in row):
        raise TypeError(f"row {r} has a bool entry, not an int or a Fraction")
    if rhs < 0:
        raise ValueError(f"row {r} (<= {rhs}) does not hold at the origin")
    pairs, last = [], -1
    for j, a in row:
        if not last < j < len(gcds):
            raise ValueError(f"row {r}: column {j} after {last}, of {len(gcds)} variables")
        a = a.numerator * (scale // a.denominator)
        gcds[j] = math.gcd(gcds[j], a)
        pairs.append((j, a))
        last = j
    return pairs, rhs.numerator * (scale // rhs.denominator)


def _integer_objective(
    objective: Sequence[Fraction], units: Sequence[int]
) -> tuple[list[int], int]:
    """c_j / g_j times the lcm of their denominators, and that lcm, built
    from the nonzero c_j only."""
    terms = []
    for j, c in enumerate(objective):
        if not isinstance(c, (int, Fraction)) or isinstance(c, bool):
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
        self.constraints = lp.constraints
        self.nvars = nvars
        gcds = [0] * nvars
        rows = enumerate(lp.constraints)
        program = [_integer_row(r, row, rhs, gcds) for r, (row, rhs) in rows]
        # variable j is measured in units of 1/units[j]: its column's gcd
        self.units = units = [g or 1 for g in gcds]
        # the integer rows, sparse for the certificate and dense for the tableau
        self.program = [([(j, a // units[j]) for j, a in row], rhs) for row, rhs in program]
        self.rows = [[0] * nvars + [rhs] for _, rhs in self.program]
        # and, for the certificate's A x <= b, each column's (row, entry)s
        self.columns = [[] for _ in range(nvars)]
        for r, ((row, _), dense) in enumerate(zip(self.program, self.rows)):
            for j, a in row:
                dense[j] = a
                self.columns[j].append((r, a))
        self.m = len(program)
        self.rows.append([0] * (nvars + 1))  # then the objective row
        self.stamps = [1] * len(self.rows)
        self.cols = list(range(nvars))
        self.basis = list(range(nvars, nvars + self.m))
        self.den = 1
        # variable label -> the row that won its last ratio test
        self.bounding = {}

    def copy(self) -> _Tableau:
        # pivots and pricing replace rows rather than edit them, but they
        # rewrite the entries of stamps, cols and basis
        twin = copy.copy(self)
        twin.rows = list(self.rows)
        twin.stamps = list(self.stamps)
        twin.cols = list(self.cols)
        twin.basis = list(self.basis)
        twin.bounding = dict(self.bounding)
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
        keeps the lowest label on a tie.  A column whose one-row bound
        -z_j * rhs_h / a_hj, h the row that won its variable's last ratio
        test, does not beat the best gain so far cannot enter, and its
        ratio test is skipped; the chosen pivot is the same, ties included.
        """
        rows = self.rows
        z = rows[-1]
        negative = sorted((b, j) for j, b in enumerate(self.cols) if z[j] < 0)
        best = None
        best_num, best_a = -1, 1  # below every gain: the first column is tested
        for b, j in negative:
            h = None if bland else self.bounding.get(b)
            if h is not None:
                a, rhs = rows[h][j], rows[h][-1]
                if a > 0 and -z[j] * rhs * best_a <= best_num * a:
                    continue
            r = self._choose_row(j)
            if r is None:
                raise InvariantViolation(f"LP unbounded along variable {b}")
            self.bounding[b] = r
            if bland:
                return r, j
            num, a = -z[j] * rows[r][-1], rows[r][j]
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
        ax = [0] * self.m
        for i, b in enumerate(self.basis):
            if b < nvars:
                v[b] = x = self.rows[i][-1] * den // self.stamps[i]
                if x < 0:
                    raise InvariantViolation("solver produced a negative variable")
                if x:
                    for r, a in self.columns[b]:
                        ax[r] += a * x
        duals = [0] * self.m
        z = self.row_at_den(self.m)
        for j, b in enumerate(self.cols):
            if b >= nvars:
                duals[b - nvars] = z[j]
        if any(y < 0 for y in duals):
            raise InvariantViolation("dual certificate has a negative multiplier")
        lhs = [0] * nvars
        by = 0
        for r, (total, y, (row, rhs)) in enumerate(zip(ax, duals, self.program)):
            if total > den * rhs:
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
        zero = Fraction(0)
        point = tuple(Fraction(x, den * g) if x else zero for x, g in zip(v, self.units))
        return point, Fraction(cx, den * scale)


def solve_lp(lp: LinearProgram, start: Optional[LPResult] = None) -> LPResult:
    """Maximize, from the origin or from the final basis of ``start``.

    ``start`` must be a result of `solve_lp` over the same constraints, with
    any objective; ValueError refuses any other.  Raises, before any pivot,
    ValueError on a row with a negative right-hand side or misplaced columns
    and TypeError on a malformed one, and InvariantViolation on an unbounded
    program, or on an answer that fails its exact primal or dual check.
    """
    if start is None:
        tab = _Tableau(lp)
    else:
        tab = start._tableau
        if tab is None or tab.nvars != lp.n_vars or tab.constraints != lp.constraints:
            raise ValueError("start was not solved over this program's constraints")
        tab = tab.copy()
    objective, scale = _integer_objective(lp.objective, tab.units)
    tab.price(objective)
    tab.run()
    point, value = tab.certify(objective, scale)
    return LPResult(value, point, tab)
