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
an int to Python but not a number of the program.  ``solve_lp(lp,
start=previous)`` continues from the final basis of a previous solve over
the same rows, with a new objective (Gass and Saaty, 1955): a new c keeps
that basis primal feasible.

The README's LP paragraph describes the tableau: condensed integer
(Bareiss) rows over the running denominator den, each column in its own
units 1/g_j, each stored row at its own stamp, and a basic slack's row
derived from its constraint.  The code relies on these invariants:

- Every division is exact.  The eager Bareiss integers are minors of the
  integer rows.  A stored row's true entries are its ints over its stamp
  t, the den at which it was last written, so the eager row is x * den / t.
  A pivot on (r, c), y the pivot row at den, writes a row k whose
  column-c entry f is nonzero as (x * piv - f * y) / t_k.  That is
  (x' * piv - f' * y) / den, the eager update of its eager integers x' and
  f', so it is an integer, and so is its new column-c entry -f * den / t_k.
  A warm start rebuilds the objective row as the pivots from the slack
  basis to its basis would leave it, sum_B c_B * (row of B) - den * c, so
  later pivots divide exactly too.
- Every pivot is the eager tableau's.  A stamp is a positive factor
  common to one row, so the ratio test's rhs_r / a_rj and the gain
  -z_j * rhs_r / a_rj, compared within one row and against the objective
  row, are unchanged.  A basic slack's row is fixed by the basis, den on
  its own basic variable and 0 on the others, so the row derived from its
  constraint q, den * (a_q, b_q) - sum_b a_q[b] * (row of b) over the
  basic structurals b (Chvatal, 1983, ch. 7), is the eager row.  Pricing
  and the certificate read rows brought to den.
- Column units change no answer.  Dividing column j and c_j by g_j keeps
  every dual feasible at the same value, and the point comes back as
  x_j = v_j / (den * g_j) for the basic value v_j.

Pricing is the largest-improvement rule: among the negative reduced costs
z_j, the column whose own ratio test gives the largest gain
-z_j * rhs_r / a_rj enters, gains compared by integer cross-multiplication
and tied ones to the lowest label.  It leaves at its ratio test's row, tied
ones to the lowest basis label.  The gain is the rise in the objective, so
unlike Dantzig's most negative z_j it does not depend on a column's units.
A column's ratio test is skipped when one row already shows it cannot win:
the least ratio is at most rhs_h / a_hj for any row h with a_hj > 0, so
-z_j * rhs_h / a_hj bounds the column's gain, taken from the row that won
the variable's last ratio test.  A column whose bound does not beat the
best gain so far would not have entered, so the pivots are the same.

This rule terminates.  A pivot never lowers the objective, so a basis
that recurs does so in a cycle of pivots that leave the objective where
it is: each is degenerate, and its gain, the largest, is 0.  So every
negative column's gain is 0: a tested column's is at most the largest,
and a skipped column's at most its bound, which did not beat the best
gain so far.  No column then beats the first one tested, the
lowest-labelled negative one, so it enters, and the leaving variable is
the lowest-labelled among the rows that tie in the ratio test.  These are
Bland's choices at every pivot of the cycle, and Bland's rule cannot
cycle (Bland, "New finite pivoting rules for the simplex method", Math.
Oper. Res. 2(2), 1977).

Every answer is proved, cold or warm, against the integer rows built once
from the constraints.  The point is re-checked against every row and sign
restriction, and the final objective row gives the duals:
y_r = z_r * s_r / (den * s_c) if row r's slack is nonbasic with entry z_r,
and 0 if it is basic, with s_r a row's and s_c the objective's integer
scale.  y >= 0, y^T A >= c and b.y = c.x are checked exactly.  A feasible
dual of equal value proves the point optimal, so a solver defect cannot
surface silently.
"""

from __future__ import annotations

import copy
import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

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
    """Condensed integer simplex tableau over the running Bareiss
    denominator ``den``.

    Row i holds basic variable ``basis[i]``; column j holds nonbasic variable
    ``cols[j]``; the last entry of each row is its right-hand side, and the
    last row is the objective row.  Only the objective row and the rows of
    basic structurals are stored, row i's true entries its ints over
    ``stamps[i]``; ``rows[i]`` is None where a slack is basic, and
    `row_at_den` derives that row from the slack's constraint.
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
        # the integer rows, sparse for the certificate and dense for derived rows
        self.program = [([(j, a // units[j]) for j, a in row], rhs) for row, rhs in program]
        self.dense = [[0] * nvars for _ in program]
        # and each column's (row, entry)s, for A x <= b and for `basics`
        self.columns = [[] for _ in range(nvars)]
        for q, ((row, _), dense) in enumerate(zip(self.program, self.dense)):
            for j, a in row:
                dense[j] = a
                self.columns[j].append((q, a))
        self.m = m = len(program)
        # every slack is basic at the origin, so only the objective row is stored
        self.rows = [None] * m + [[0] * (nvars + 1)]
        self.stamps = [1] * (m + 1)
        self.cols = list(range(nvars))
        self.basis = list(range(nvars, nvars + m))
        self.den = 1
        # constraint q -> (row of b, a_q[b]) for each basic structural b in q
        self.basics = [()] * m
        # derived row -> its right-hand side at den; a pivot replaces the dict
        self.derived_rhs = {i: rhs for i, (_, rhs) in enumerate(self.program)}
        # variable label -> the row that won its last ratio test
        self.bounding = {}

    def copy(self) -> _Tableau:
        # pivots and pricing replace rows, pairs and derived_rhs rather than
        # edit them, but they rewrite the entries of these lists
        twin = copy.copy(self)
        twin.rows = list(self.rows)
        twin.stamps = list(self.stamps)
        twin.cols = list(self.cols)
        twin.basis = list(self.basis)
        twin.basics = list(self.basics)
        twin.bounding = dict(self.bounding)
        return twin

    def row_at_den(self, i: int) -> list[int]:
        """Row i as the eager tableau has it, over the running den: brought
        from its stamp if stored, derived from its slack's constraint q as
        den * (a_q, b_q) - sum of a_q[b] * (row of b) if not."""
        row, den = self.rows[i], self.den
        if row is None:
            q = self.basis[i] - self.nvars
            nvars, a_q = self.nvars, self.dense[q]
            row = [den * a_q[v] if v < nvars else 0 for v in self.cols]
            row.append(den * self.program[q][1])
            for k, a in self.basics[q]:
                row = [x - a * y for x, y in zip(row, self.row_at_den(k))]
            return row
        stamp = self.stamps[i]
        if stamp == den:
            return row
        return [x * den // stamp for x in row]

    def _entry(self, i: int, c: int) -> int:
        """Row i's column-c entry over its stamp, or over den if derived."""
        row = self.rows[i]
        if row is not None:
            return row[c]
        q, v = self.basis[i] - self.nvars, self.cols[c]
        rows, stamps, den = self.rows, self.stamps, self.den
        a = den * self.dense[q][v] if v < self.nvars else 0
        for k, aq in self.basics[q]:
            a -= aq * rows[k][c] * den // stamps[k]
        return a

    def _rhs(self, i: int) -> int:
        """Row i's right-hand side over its stamp, or over den if derived."""
        row = self.rows[i]
        return self.derived_rhs[i] if row is None else row[-1]

    def _derive_rhs(self) -> None:
        """Each derived row's right-hand side at den, once per pivot."""
        rows, stamps, den, nvars = self.rows, self.stamps, self.den, self.nvars
        values = {}  # stored row -> its right-hand side at den
        for k, row in enumerate(rows[: self.m]):
            if row is not None:
                values[k] = row[-1] if stamps[k] == den else row[-1] * den // stamps[k]
        self.derived_rhs = derived = {}
        for i, b in enumerate(self.basis):
            if b >= nvars:
                rhs = den * self.program[b - nvars][1]
                for k, a in self.basics[b - nvars]:
                    rhs -= a * values[k]
                derived[i] = rhs

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
        for k, row in enumerate(rows):
            if row is None or k == r:
                continue  # a derived row is derived again when read
            f = row[c]
            if f == 0:
                continue  # a row with no entry in column c keeps its true values
            stamp = stamps[k]
            new = [(x * piv - f * y) // stamp for x, y in zip(row, prow)]
            new[c] = -f * den // stamp
            rows[k] = new
            stamps[k] = piv
        leaving, entering = self.basis[r], self.cols[c]
        if entering < self.nvars:
            rows[r] = prow[:c] + [den] + prow[c + 1 :]
            stamps[r] = piv
        else:
            rows[r] = None
        self.den = piv
        self.basis[r], self.cols[c] = entering, leaving
        # only the constraints that hold the leaving or entering structural
        # change their basic structurals
        basics = self.basics
        if leaving < self.nvars:
            for q, _ in self.columns[leaving]:
                basics[q] = tuple(pair for pair in basics[q] if pair[0] != r)
        if entering < self.nvars:
            for q, a in self.columns[entering]:
                basics[q] += ((r, a),)
        self._derive_rhs()

    def _positive(self, c: int) -> Iterator[tuple[int, int, int]]:
        """(row, entry, right-hand side) of each constraint row whose
        column-c entry is positive, over the row's stamp if stored and over
        den if derived.  A derived row's entry is computed alone, from the
        stored rows' column-c entries brought to den."""
        rows, stamps, den = self.rows, self.stamps, self.den
        column = {}  # stored row -> its nonzero column-c entry at den
        for i in range(self.m):
            row = rows[i]
            if row is not None and row[c]:
                a, stamp = row[c], stamps[i]
                column[i] = a if stamp == den else a * den // stamp
                if a > 0:
                    yield i, a, row[-1]
        v, nvars, dense, basis = self.cols[c], self.nvars, self.dense, self.basis
        for i, rhs in self.derived_rhs.items():
            q = basis[i] - nvars
            a = den * dense[q][v] if v < nvars else 0
            for k, aq in self.basics[q]:
                y = column.get(k)
                if y:
                    a -= aq * y
            if a > 0:
                yield i, a, rhs

    def _choose_row(self, c: int) -> Optional[tuple[int, int, int]]:
        """Column c's ratio test: the row r with the least rhs_r / a_rc over
        a_rc > 0, ties to the lowest basis label, with a_rc and rhs_r as
        `_positive` gives them, or None if no entry is positive."""
        basis = self.basis
        best = None
        best_num = best_den = 0
        for i, a, rhs in self._positive(c):
            if best is None or rhs * best_den < best_num * a or (
                rhs * best_den == best_num * a and basis[i] < basis[best]
            ):
                best, best_num, best_den = i, rhs, a
        return None if best is None else (best, best_den, best_num)

    def _choose_pivot(self) -> Optional[tuple[int, int]]:
        """(row, column) of the next pivot, or None at an optimum.

        The entering column is the negative reduced cost whose own ratio
        test gives the largest gain -z_j * rhs_r / a_rj, ties to the lowest
        label.  Columns are visited in label order, so a strict comparison
        keeps the lowest label on a tie.  A column whose one-row bound
        -z_j * rhs_h / a_hj, h the row that won its variable's last ratio
        test, does not beat the best gain so far cannot enter, and its
        ratio test is skipped; the chosen pivot is the same, ties included.
        """
        z = self.rows[-1]
        negative = sorted((b, j) for j, b in enumerate(self.cols) if z[j] < 0)
        best = None
        best_num, best_a = -1, 1  # below every gain: the first column is tested
        for b, j in negative:
            h = self.bounding.get(b)
            if h is not None:
                a = self._entry(h, j)
                if a > 0 and -z[j] * self._rhs(h) * best_a <= best_num * a:
                    continue
            chosen = self._choose_row(j)
            if chosen is None:
                raise InvariantViolation(f"LP unbounded along variable {b}")
            r, a, rhs = chosen
            self.bounding[b] = r
            num = -z[j] * rhs
            if num * best_a > best_num * a:
                best, best_num, best_a = (r, j), num, a
        return best

    def run(self) -> None:
        """Primal simplex to optimality by `_choose_pivot`'s rule."""
        while True:
            chosen = self._choose_pivot()
            if chosen is None:
                return
            self.pivot(*chosen)

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
