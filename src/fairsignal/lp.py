"""Exact rational linear programming: one-phase primal simplex from the origin.

A program is in standard form: maximize c.x subject to rows A x <= b with
b >= 0, and x >= 0.  The origin is then a feasible vertex: every row gets
one slack, the slacks form the starting basis, and there is no phase 1.
A row with a negative right-hand side raises ValueError before any pivot,
and an unbounded program raises InvariantViolation, since no caller builds
one.  The canonical LPs of `oracles` have this form because they start at
full revelation.  With every row owning a slack from the first tableau,
the optimal duals are the final objective row's entries in the slack
columns.

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


@dataclass
class LinearProgram:
    """max c.x subject to ``coeffs . x <= rhs`` for each constraint, x >= 0."""

    objective: tuple[Fraction, ...]
    constraints: list[tuple[tuple[Fraction, ...], Fraction]] = field(
        default_factory=list
    )

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    def add(self, coeffs: Sequence[Fraction], rhs: Fraction) -> None:
        if len(coeffs) != self.n_vars:
            raise ValueError("coefficient vector has wrong length")
        self.constraints.append((tuple(coeffs), Fraction(rhs)))


@dataclass(frozen=True)
class LPResult:
    value: Fraction
    point: tuple[Fraction, ...]


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

    def run(self) -> None:
        """Primal simplex with Bland's rule, to optimality."""
        ncols = len(self.rows[0]) - 1
        while True:
            z = self.rows[-1]
            entering = None
            for j in range(ncols):
                if z[j] < 0:
                    entering = j
                    break
            if entering is None:
                return
            leaving = self._choose_row(entering)
            if leaving is None:
                raise InvariantViolation(f"LP unbounded along column {entering}")
            self.pivot(leaving, entering)


def solve_lp(lp: LinearProgram) -> LPResult:
    """Maximize from the origin.

    Raises ValueError, before any pivot, on a row with a negative right-hand
    side, and InvariantViolation on an unbounded program.  The reported
    point is verified against every constraint and sign restriction,
    guarding the fraction-free pivoting.
    """
    # decision columns, one slack column per row, right-hand side
    nvars = lp.n_vars
    ncols = nvars + len(lp.constraints)
    rows = []
    for r, (coeffs, rhs) in enumerate(lp.constraints):
        row, int_rhs = _integer_row(coeffs, rhs)
        if int_rhs < 0:
            raise ValueError(f"row {r} (<= {rhs}) does not hold at the origin")
        row += [0] * (ncols - nvars) + [int_rhs]
        row[nvars + r] = 1
        rows.append(row)
    obj_coeffs, _ = _integer_row(lp.objective, Fraction(0))
    objective = [-a for a in obj_coeffs] + [0] * (ncols - nvars + 1)

    tab = _Tableau(rows + [objective], list(range(nvars, ncols)))
    tab.run()

    point = [Fraction(0)] * nvars
    for i, b in enumerate(tab.basis):
        if b < nvars:
            point[b] = Fraction(tab.rows[i][-1], tab.rows[i][b])
    value = sum(
        (c * x for c, x in zip(lp.objective, point)), Fraction(0)
    )
    _verify(lp, point)
    return LPResult(value, tuple(point))


def _verify(lp: LinearProgram, point: Sequence[Fraction]) -> None:
    for j, x in enumerate(point):
        if x < 0:
            raise InvariantViolation(f"solver produced negative variable x{j}={x}")
    support = [(j, x) for j, x in enumerate(point) if x]
    for coeffs, rhs in lp.constraints:
        lhs = sum((coeffs[j] * x for j, x in support if coeffs[j]), Fraction(0))
        if lhs > rhs:
            raise InvariantViolation(
                f"solver point violates constraint <= {rhs} with lhs {lhs}"
            )
