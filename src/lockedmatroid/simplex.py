"""Exact two-phase simplex with Bland's rule, in integer arithmetic.

Constraint rows are primitive integer vectors: every value is a ratio
inside one row, so a row needs no denominator.  The objective is one more
integer row whose last cell is its positive denominator.  ``_eliminate``
is the one row update: clear the pivot column, then divide by the gcd.
Rows are not rescaled to unit pivots: a basic variable's value is rhs
divided by its own column entry, whose positivity is a maintained
invariant.  Only the returned optimum and witness are Fractions.

Variables are nonnegative in ``nonneg`` mode and free (split into a
difference of nonnegative parts) otherwise.  Phase one minimizes the sum
of artificial variables; the resulting feasible tableau is kept so many
objectives can be maximized over one constraint set without repeating
phase one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from . import errors

Constraint = tuple[Sequence[int], str, int]  # (coefficients, relation, bound)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _primitive(nums: list[int]) -> list[int]:
    """nums divided by their gcd; an all-zero row stays as it is."""
    g = math.gcd(*nums)
    return [x // g for x in nums] if g > 1 else nums


def _eliminate(row: list[int], prow: list[int], c: int) -> list[int]:
    """row with column c cleared by the pivot row prow (prow[c] > 0), divided
    by its gcd.  Cells of row past the end of prow (the objective's
    denominator) are multiplied by prow[c]."""
    a = row[c]
    if a == 0:
        return row
    p = prow[c]
    return _primitive([x * p - a * y for x, y in zip(row, prow)]
                      + [x * p for x in row[len(prow):]])


class SimplexProgram:
    """A feasible constraint set ready to maximize arbitrary objectives."""

    def __init__(self, n_vars: int, constraints: Sequence[Constraint], nonneg: bool = True):
        self.n_vars = n_vars
        self.nonneg = nonneg
        self.n_struct = n_vars if nonneg else 2 * n_vars

        rows: list[list[int]] = []
        basis: list[int] = []

        normd = []
        for coeffs, rel, bound in constraints:
            coeffs = list(coeffs)
            if len(coeffs) != n_vars:
                raise errors.DimensionMismatch("constraint width mismatch")
            if bound < 0:
                coeffs = [-c for c in coeffs]
                bound = -bound
                rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
            normd.append((coeffs, rel, bound))

        n_slack = sum(1 for _, rel, _ in normd if rel in ("<=", ">="))
        n_art = sum(1 for _, rel, _ in normd if rel in (">=", "=="))
        ncols = self.n_struct + n_slack + n_art
        slack_at = self.n_struct
        art_at = self.n_struct + n_slack
        self.art_cols = frozenset(range(art_at, art_at + n_art))

        for coeffs, rel, bound in normd:
            row = [0] * (ncols + 1)
            for j, c in enumerate(coeffs):
                if c:
                    row[j] = c
                    if not nonneg:
                        row[n_vars + j] = -c
            row[-1] = bound
            if rel == "<=":
                row[slack_at] = 1
                basis.append(slack_at)
                slack_at += 1
            elif rel == ">=":
                row[slack_at] = -1
                slack_at += 1
                row[art_at] = 1
                basis.append(art_at)
                art_at += 1
            else:
                row[art_at] = 1
                basis.append(art_at)
                art_at += 1
            rows.append(row)

        self.ncols = ncols
        self._phase1(rows, basis)

    # -- pivoting ------------------------------------------------------------

    @staticmethod
    def _pivot(rows, basis, obj: list[int], r: int, c: int) -> list[int]:
        """Pivot row r on column c; returns the updated objective row."""
        prow = rows[r]
        if prow[c] < 0:
            rows[r] = prow = [-x for x in prow]
        for i, row in enumerate(rows):
            if i != r:
                rows[i] = _eliminate(row, prow, c)
        basis[r] = c
        return _eliminate(obj, prow, c)

    def _bland(self, rows, basis, obj: list[int], banned: frozenset[int]) -> tuple[str, list[int]]:
        ncols = self.ncols
        while True:
            enter = next((j for j in range(ncols) if j not in banned and obj[j] < 0), -1)
            if enter < 0:
                return OPTIMAL, obj
            leave = -1
            lb = la = 0  # numerator/denominator of the best ratio
            for i, row in enumerate(rows):
                a = row[enter]
                if a <= 0:
                    continue
                b = row[-1]
                if leave < 0 or b * la < lb * a or (b * la == lb * a and basis[i] < basis[leave]):
                    leave, lb, la = i, b, a
            if leave < 0:
                return UNBOUNDED, obj
            obj = self._pivot(rows, basis, obj, leave, enter)

    @staticmethod
    def _objective_row(rows, basis, c_vec: Sequence[int]) -> list[int]:
        """Row of z_j - c_j numerators, then z's numerator, then their
        positive denominator, for an integer objective: -c with every
        basic column cleared."""
        obj = [-c for c in c_vec] + [0, 1]
        for row, col in zip(rows, basis):
            obj = _eliminate(obj, row, col)
        return obj

    # -- phases ----------------------------------------------------------------

    def _phase1(self, rows, basis) -> None:
        if self.art_cols:
            c_vec = [0] * (self.ncols)
            for j in self.art_cols:
                c_vec[j] = -1
            obj = self._objective_row(rows, basis, c_vec)
            status, obj = self._bland(rows, basis, obj, frozenset())
            if status != OPTIMAL:  # -sum of artificials is bounded above by 0
                raise errors.LockedMatroidError("phase one of the simplex is unbounded")
            if obj[-2] != 0:  # optimum of -sum(artificials) below zero
                self.feasible = False
                return
            # drive residual artificials out of the basis (degenerate rows)
            drop: list[int] = []
            for i in range(len(rows)):
                if basis[i] in self.art_cols:
                    pivot_col = next((j for j in range(self.ncols)
                                      if j not in self.art_cols and rows[i][j] != 0), -1)
                    if pivot_col < 0:
                        drop.append(i)  # redundant constraint
                    else:
                        obj = self._pivot(rows, basis, obj, i, pivot_col)
            for i in reversed(drop):
                del rows[i], basis[i]
        self.feasible = True
        self._rows0 = [row[:] for row in rows]
        self._basis0 = basis[:]

    def maximize(self, objective: Sequence[int]) -> tuple[str, Optional[Fraction], Optional[tuple]]:
        """Maximize an integer objective over the constraint set.

        Returns (status, optimum, witness); the witness is the point in the
        original variables as exact Fractions.
        """
        if len(objective) != self.n_vars:
            raise errors.DimensionMismatch("objective width mismatch")
        if not self.feasible:
            return INFEASIBLE, None, None
        rows = [row[:] for row in self._rows0]
        basis = self._basis0[:]
        c_vec = [0] * self.ncols
        for j, w in enumerate(objective):
            c_vec[j] = w
            if not self.nonneg:
                c_vec[self.n_vars + j] = -w
        obj = self._objective_row(rows, basis, c_vec)
        status, obj = self._bland(rows, basis, obj, self.art_cols)
        if status != OPTIMAL:
            return status, None, None
        value = Fraction(obj[-2], obj[-1])
        point = [Fraction(0)] * self.n_vars
        for i, row in enumerate(rows):
            col = basis[i]
            val = Fraction(row[-1], row[col])
            if col < self.n_vars:
                point[col] += val
            elif not self.nonneg and col < 2 * self.n_vars:
                point[col - self.n_vars] -= val
        return OPTIMAL, value, tuple(point)
