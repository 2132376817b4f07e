"""Exact rational linear programming via primal simplex.

The tableau is kept as an integer matrix with a single running denominator
(the previous pivot), so every pivot is a fraction-free update and no
floating point ever enters.  Bland's rule picks pivots, which rules out
cycling, and the returned point is re-checked against every constraint
before it is reported, so a solver defect cannot surface silently.

Rows are normalized so that each ``<=`` row has a non-negative right-hand
side (a ``>= 0`` row becomes a ``<= 0`` row); its slack then starts basic.
Only equalities and ``>=`` rows with a positive right-hand side get an
artificial variable, and phase 1 runs only when one of them is present.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .market import InvariantViolation

LE, GE, EQ = "<=", ">=", "=="
_SENSES = (LE, GE, EQ)


@dataclass
class LinearProgram:
    """max (or min) c.x subject to linear constraints, x >= 0 by default."""

    objective: tuple[Fraction, ...]
    maximize: bool = True
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
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        self.constraints.append((tuple(coeffs), sense, Fraction(rhs)))


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
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
        self.rows = rows  # m constraint rows, then phase-1 and phase-2 rows
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

    def run(self, obj_row: int, enterable: Sequence[bool]) -> str:
        """Primal simplex with Bland's rule; returns "optimal"/"unbounded"."""
        ncols = len(self.rows[0]) - 1
        while True:
            z = self.rows[obj_row]
            entering = None
            for j in range(ncols):
                if enterable[j] and z[j] < 0:
                    entering = j
                    break
            if entering is None:
                return "optimal"
            leaving = self._choose_row(entering)
            if leaving is None:
                return "unbounded"
            self.pivot(leaving, entering)


def solve_lp(lp: LinearProgram) -> LPResult:
    """Solve exactly; statuses are values, never exceptions.

    The reported point is verified against every constraint and sign
    restriction, guarding the fraction-free pivoting.
    """
    sign = 1 if lp.maximize else -1
    objective = [sign * c for c in lp.objective]

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

    prepared = []  # (int coeffs over decision columns, sense, int rhs)
    for coeffs, sense, rhs in lp.constraints:
        int_coeffs, int_rhs = _integer_row(coeffs, rhs)
        expanded = [0] * ndec
        for j, a in enumerate(int_coeffs):
            for col, s in col_of_var[j]:
                expanded[col] = a * s
        if int_rhs < 0 or (int_rhs == 0 and sense == GE):
            # a <= row with rhs >= 0 starts with its slack basic
            expanded = [-a for a in expanded]
            int_rhs = -int_rhs
            sense = {LE: GE, GE: LE, EQ: EQ}[sense]
        prepared.append((expanded, sense, int_rhs))

    m = len(prepared)
    nslack = sum(1 for _, sense, _ in prepared if sense != EQ)
    nart = sum(1 for _, sense, _ in prepared if sense != LE)
    ncols = ndec + nslack + nart
    rows = []
    basis = []
    slack_at = ndec
    art_at = ndec + nslack
    for expanded, sense, rhs in prepared:
        row = list(expanded) + [0] * (nslack + nart) + [rhs]
        if sense != EQ:
            row[slack_at] = 1 if sense == LE else -1
            if sense == LE:
                basis.append(slack_at)
            slack_at += 1
        if sense != LE:
            row[art_at] = 1
            basis.append(art_at)
            art_at += 1
        rows.append(row)

    obj_coeffs, _ = _integer_row(objective, Fraction(0))
    phase2 = [0] * (ncols + 1)
    for j, a in enumerate(obj_coeffs):
        for col, s in col_of_var[j]:
            phase2[col] = -a * s
    phase1 = [0] * (ncols + 1)
    for row, b in zip(rows, basis):
        if b >= ndec + nslack:  # artificial is basic: price it out
            for j in range(ncols + 1):
                phase1[j] -= row[j]
    for j in range(ndec + nslack, ncols):
        phase1[j] += 1

    # with no artificials the all-slack basis is feasible: no phase-1 row
    tab = _Tableau(rows + ([phase1] if nart else []) + [phase2], basis)
    enterable = [True] * ncols
    for j in range(ndec + nslack, ncols):
        enterable[j] = False  # artificials may leave but never re-enter

    if nart:
        tab.run(tab.m, enterable)
        if tab.rows[tab.m][-1] != 0:
            return LPResult("infeasible")
        # pivot zero-level artificials out wherever the row is not redundant
        for i in range(tab.m):
            if tab.basis[i] >= ndec + nslack:
                col = next(
                    (j for j in range(ndec + nslack) if tab.rows[i][j] != 0), None
                )
                if col is not None:
                    tab.pivot(i, col)

    status = tab.run(len(tab.rows) - 1, enterable)
    if status == "unbounded":
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
