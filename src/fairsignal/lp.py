"""Exact rational linear programming: one-phase primal simplex from the origin.

A program maximizes c.x subject to ``<=`` and ``>=`` rows, with x >= 0
except for the variables named free.  A ``>=`` row is negated into a
``<=`` row, which must then hold at the origin (non-negative right-hand
side): every row gets one slack, the slacks form the starting basis, and
there is no phase 1.  A row that fails at the origin raises ValueError
before any pivot.  The canonical LPs of `oracles` have this form because
they start at full revelation.  With every row owning a slack from the
first tableau, the optimal duals are the final objective row's entries in
the slack columns.

The tableau is kept as an integer matrix with a single running denominator
(the previous pivot), so every pivot is a fraction-free update and no
floating point ever enters.  Bland's rule picks pivots, which rules out
cycling, and the returned point is re-checked against every constraint
before it is reported, so a solver defect cannot surface silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .market import InvariantViolation

LE, GE = "<=", ">="


@dataclass
class LinearProgram:
    """max c.x subject to linear constraints, x >= 0 except ``free`` variables."""

    objective: tuple[Fraction, ...]
    free: frozenset[int] = frozenset()
    constraints: list[tuple[tuple[Fraction, ...], str, Fraction]] = field(
        default_factory=list
    )

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    def add(self, coeffs: Sequence[Fraction], sense: str, rhs: Fraction) -> None:
        if len(coeffs) != self.n_vars:
            raise ValueError("coefficient vector has wrong length")
        if sense not in (LE, GE):
            raise ValueError(f"unknown sense {sense!r}")
        self.constraints.append((tuple(coeffs), sense, Fraction(rhs)))


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded"
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None


def _integer_row(coeffs: Sequence[Fraction], rhs: Fraction) -> tuple[list[int], int]:
    scale = math.lcm(rhs.denominator, *(c.denominator for c in coeffs))
    return (
        [c.numerator * (scale // c.denominator) for c in coeffs],
        rhs.numerator * (scale // rhs.denominator),
    )


class _Tableau:
    """Integer simplex tableau; true entries are ints divided by self.den."""

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows  # m constraint rows, then the objective row
        self.basis = basis
        self.den = 1
        self.m = len(basis)

    def pivot(self, r: int, c: int) -> None:
        rows = self.rows
        prow = rows[r]
        piv = prow[c]
        if piv < 0:
            prow = [-x for x in prow]
            rows[r] = prow
            piv = -piv
        den = self.den
        for k in range(len(rows)):
            if k == r:
                continue
            row = rows[k]
            f = row[c]
            rows[k] = [(x * piv - f * y) // den for x, y in zip(row, prow)]
        self.den = piv
        self.basis[r] = c

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

    def run(self) -> str:
        """Primal simplex with Bland's rule; returns "optimal"/"unbounded"."""
        ncols = len(self.rows[0]) - 1
        while True:
            z = self.rows[-1]
            entering = None
            for j in range(ncols):
                if z[j] < 0:
                    entering = j
                    break
            if entering is None:
                return "optimal"
            leaving = self._choose_row(entering)
            if leaving is None:
                return "unbounded"
            self.pivot(leaving, entering)


def solve_lp(lp: LinearProgram) -> LPResult:
    """Maximize from the origin; statuses are values, never exceptions.

    Raises ValueError, before any pivot, if a row does not hold at the
    origin.  The reported point is verified against every constraint and
    sign restriction, guarding the fraction-free pivoting.
    """
    # one column per non-negative variable, two for each free variable
    col_of_var: list[list[tuple[int, int]]] = []
    col_signs: list[tuple[int, int]] = []  # (var, +1/-1) per decision column
    for j in range(lp.n_vars):
        cols = [(len(col_signs), 1)]
        col_signs.append((j, 1))
        if j in lp.free:
            cols.append((len(col_signs), -1))
            col_signs.append((j, -1))
        col_of_var.append(cols)
    ndec = len(col_signs)

    # decision columns, one slack column per row, right-hand side
    ncols = ndec + len(lp.constraints)
    rows = []
    for r, (coeffs, sense, rhs) in enumerate(lp.constraints):
        int_coeffs, int_rhs = _integer_row(coeffs, rhs)
        if sense == GE:
            int_coeffs = [-a for a in int_coeffs]
            int_rhs = -int_rhs
        elif sense != LE:
            raise ValueError(f"unknown sense {sense!r}")
        if int_rhs < 0:
            raise ValueError(f"row {r} ({sense} {rhs}) does not hold at the origin")
        row = [0] * (ncols + 1)
        for j, a in enumerate(int_coeffs):
            for col, s in col_of_var[j]:
                row[col] = a * s
        row[ndec + r] = 1
        row[-1] = int_rhs
        rows.append(row)

    obj_coeffs, _ = _integer_row(lp.objective, Fraction(0))
    objective = [0] * (ncols + 1)
    for j, a in enumerate(obj_coeffs):
        for col, s in col_of_var[j]:
            objective[col] = -a * s

    tab = _Tableau(rows + [objective], list(range(ndec, ncols)))
    if tab.run() == "unbounded":
        return LPResult("unbounded")

    point = [Fraction(0)] * lp.n_vars
    for i, b in enumerate(tab.basis):
        if b < ndec:
            var, s = col_signs[b]
            point[var] += s * Fraction(tab.rows[i][-1], tab.rows[i][b])
    value = sum(
        (c * x for c, x in zip(lp.objective, point)), Fraction(0)
    )
    _verify(lp, point)
    return LPResult("optimal", value, tuple(point))


def _verify(lp: LinearProgram, point: Sequence[Fraction]) -> None:
    for j, x in enumerate(point):
        if j not in lp.free and x < 0:
            raise InvariantViolation(f"solver produced negative variable x{j}={x}")
    support = [(j, x) for j, x in enumerate(point) if x]
    for coeffs, sense, rhs in lp.constraints:
        lhs = sum((coeffs[j] * x for j, x in support if coeffs[j]), Fraction(0))
        ok = lhs <= rhs if sense == LE else lhs >= rhs if sense == GE else lhs == rhs
        if not ok:
            raise InvariantViolation(
                f"solver point violates constraint {sense} {rhs} with lhs {lhs}"
            )
