"""Exact two-phase simplex with Bland's rule, in integer arithmetic.

Constraint rows are positive integer multiples of the rows a rational
tableau would hold: every value is a ratio inside one row, so a row needs
no denominator.  The objective is one more integer row whose last cell is
its positive denominator.  ``_eliminate`` is the one row update: clear the
pivot column, and when the pivot entry p is not 1, divide by the gcd.  It
reads only the pivot row's nonzero cells, and a pivot skips the rows that
are already zero in its column.

A unit pivot skips the gcd, because skipping it changes no decision.  The
row it leaves is a positive multiple of the row the gcd would leave, and
every later row built from it is the same positive multiple or, after a
pivot entry other than 1, the same primitive row.  Bland's entering test
reads only signs, the ratio test compares rhs/entry inside one row, and
the optimum and the witness are such ratios: every pivot and every answer
is the one the gcd path takes.  Numbers stay small, because a unit pivot
multiplies no row, and every other pivot still divides by the gcd.
Rows are not rescaled to unit pivots: a basic variable's value is rhs
divided by its own column entry, whose positivity is a maintained
invariant.

``maximize_integral`` is the integer result: the optimum as a (numerator,
denominator) pair, and the witness as integer numerators over one
denominator, the lcm of the basic structural columns' entries.
``maximize`` is its Fraction view, built only at the return.

Variables are nonnegative in ``nonneg`` mode and free (split into a
difference of nonnegative parts) otherwise.  Phase one minimizes the sum
of artificial variables.  After it no artificial is basic, so their
columns are cut off every row, and the resulting feasible tableau is kept
so many objectives can be maximized over one constraint set without
repeating phase one.  A pivot replaces rows and never changes one in
place, so each solve starts from a shallow copy of the stored rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from . import errors

Constraint = tuple[Sequence[int], str, int]  # (coefficients, relation, bound)
RELATIONS = ("<=", ">=", "==")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _primitive(nums: list[int]) -> list[int]:
    """nums divided by their gcd; an all-zero row stays as it is."""
    g = math.gcd(*nums)
    return [x // g for x in nums] if g > 1 else nums


def _cells(prow: list[int]) -> list[tuple[int, int]]:
    """The (column, value) pairs of a row's nonzero cells."""
    return [(j, y) for j, y in enumerate(prow) if y]


def _eliminate(row: list[int], c: int, p: int, cells: list[tuple[int, int]]) -> list[int]:
    """A new row: row with its nonzero cell at column c cleared by the pivot
    row whose nonzero cells are ``cells`` and whose entry at c is p > 0.
    Every cell of row is multiplied by p, including those past the end of
    the pivot row (the objective's denominator), and the result is divided
    by its gcd; a unit pivot does neither (see the module docstring)."""
    a = row[c]
    new = [x * p for x in row] if p != 1 else row[:]
    for j, y in cells:
        new[j] -= a * y
    return _primitive(new) if p != 1 else new


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
            if rel not in RELATIONS:
                raise errors.InvalidParams("unknown constraint relation %r" % (rel,))
            if bound < 0:
                coeffs = [-c for c in coeffs]
                bound = -bound
                rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
            normd.append((coeffs, rel, bound))

        n_slack = sum(1 for _, rel, _ in normd if rel in ("<=", ">="))
        n_art = sum(1 for _, rel, _ in normd if rel in (">=", "=="))
        ncols = self.n_struct + n_slack + n_art
        slack_at = self.n_struct
        art_at = width = self.n_struct + n_slack

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
        self._phase1(rows, basis, width)

    # -- pivoting ------------------------------------------------------------

    @staticmethod
    def _pivot(rows, basis, obj: list[int], r: int, c: int) -> list[int]:
        """Pivot row r on column c; returns the updated objective row."""
        prow = rows[r]
        if prow[c] < 0:
            rows[r] = prow = [-x for x in prow]
        p, cells = prow[c], _cells(prow)
        for i, row in enumerate(rows):
            if row[c] and i != r:
                rows[i] = _eliminate(row, c, p, cells)
        basis[r] = c
        return _eliminate(obj, c, p, cells) if obj[c] else obj

    def _bland(self, rows, basis, obj: list[int]) -> tuple[str, list[int]]:
        ncols = self.ncols
        while True:
            enter = next((j for j in range(ncols) if obj[j] < 0), -1)
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
            if obj[col]:
                obj = _eliminate(obj, col, row[col], _cells(row))
        return obj

    # -- phases ----------------------------------------------------------------

    def _phase1(self, rows, basis, width: int) -> None:
        """Columns from width on are the artificials."""
        if width < self.ncols:
            c_vec = [0] * width + [-1] * (self.ncols - width)
            obj = self._objective_row(rows, basis, c_vec)
            status, obj = self._bland(rows, basis, obj)
            if status != OPTIMAL:  # -sum of artificials is bounded above by 0
                raise errors.LockedMatroidError("phase one of the simplex is unbounded")
            if obj[-2] != 0:  # optimum of -sum(artificials) below zero
                self.feasible = False
                return
            # drive residual artificials out of the basis (degenerate rows)
            drop: list[int] = []
            for i in range(len(rows)):
                if basis[i] >= width:
                    pivot_col = next((j for j in range(width) if rows[i][j] != 0), -1)
                    if pivot_col < 0:
                        drop.append(i)  # redundant constraint
                    else:
                        obj = self._pivot(rows, basis, obj, i, pivot_col)
            for i in reversed(drop):
                del rows[i], basis[i]
            # no artificial is basic or may enter again: cut their columns
            rows = [row[:width] + row[-1:] for row in rows]
            self.ncols = width
        self.feasible = True
        self._rows0 = rows
        self._basis0 = basis

    def maximize_integral(self, objective: Sequence[int]) -> tuple[
            str, Optional[tuple[int, int]], Optional[tuple[tuple[int, ...], int]]]:
        """Maximize an integer objective over the constraint set.

        Returns (status, optimum, witness): the optimum as a (numerator,
        denominator) pair, and the witness as (numerators, denominator),
        the point in the original variables over one denominator, the lcm
        of the basic structural columns' entries.  Both denominators are
        positive; neither pair is reduced.
        """
        if len(objective) != self.n_vars:
            raise errors.DimensionMismatch("objective width mismatch")
        if not self.feasible:
            return INFEASIBLE, None, None
        rows = list(self._rows0)
        basis = self._basis0[:]
        c_vec = [0] * self.ncols
        for j, w in enumerate(objective):
            c_vec[j] = w
            if not self.nonneg:
                c_vec[self.n_vars + j] = -w
        obj = self._objective_row(rows, basis, c_vec)
        status, obj = self._bland(rows, basis, obj)
        if status != OPTIMAL:
            return status, None, None
        n = self.n_vars
        basic = [(col, row[-1], row[col]) for row, col in zip(rows, basis)
                 if col < self.n_struct]
        d = math.lcm(*[a for _, _, a in basic])
        x = [0] * n
        for col, b, a in basic:
            if col < n:
                x[col] += b * (d // a)
            else:
                x[col - n] -= b * (d // a)
        return OPTIMAL, (obj[-2], obj[-1]), (tuple(x), d)

    def maximize(self, objective: Sequence[int]) -> tuple[str, Optional[Fraction], Optional[tuple]]:
        """Maximize an integer objective over the constraint set.

        Returns (status, optimum, witness); the witness is the point in the
        original variables as exact Fractions.
        """
        status, value, witness = self.maximize_integral(objective)
        if value is None:
            return status, None, None
        x, d = witness
        return status, Fraction(*value), tuple(Fraction(a, d) for a in x)
