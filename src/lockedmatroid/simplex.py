"""Exact two-phase simplex with Bland's rule.

Constraint rows are primitive integer vectors: every value is a ratio
inside one row, so a row needs no denominator (the objective row keeps
one).  Pivoting is integer arithmetic with a gcd cleanup, and tableau rows
are not rescaled to unit pivots: a basic variable's value is rhs divided
by its own column entry, whose positivity is a maintained invariant.

Variables are nonnegative in ``nonneg`` mode and free (split into a
difference of nonnegative parts) otherwise.  Phase one minimizes the sum
of artificial variables; the resulting feasible tableau is kept so many
objectives can be maximized over one constraint set without repeating
phase one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import Optional, Sequence

from . import errors

Constraint = tuple[Sequence[int], str, int]  # (coefficients, relation, bound)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _primitive(nums: list[int]) -> list[int]:
    """nums divided by their gcd; an all-zero row stays as it is."""
    g = reduce(math.gcd, nums)
    return [x // g for x in nums] if g > 1 else nums


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
    def _pivot(rows, basis, obj, r: int, c: int) -> tuple[list[int], int]:
        """Pivot row r on column c; returns the updated objective row."""
        prow = rows[r]
        if prow[c] < 0:
            rows[r] = prow = [-x for x in prow]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            a = row[c]
            if a == 0:
                continue
            rows[i] = _primitive([x * p - a * y for x, y in zip(row, prow)])
        onums, oden = obj
        a = onums[c]
        if a != 0:
            *onums, oden = _primitive(
                [x * p - a * y for x, y in zip(onums, prow)] + [oden * p])
        basis[r] = c
        return onums, oden

    def _bland(self, rows, basis, obj, banned: frozenset[int]) -> tuple[str, tuple]:
        onums, oden = obj
        ncols = self.ncols
        while True:
            enter = -1
            for j in range(ncols):
                if j not in banned and onums[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL, (onums, oden)
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
                return UNBOUNDED, (onums, oden)
            onums, oden = self._pivot(rows, basis, (onums, oden), leave, enter)

    def _objective_row(self, rows, basis, c_vec: Sequence[int]) -> tuple[list[int], int]:
        """Row of z_j - c_j values (rhs cell carries z) for an integer objective."""
        vals = [Fraction(-c) for c in c_vec] + [Fraction(0)]
        for i, row in enumerate(rows):
            cb = c_vec[basis[i]]
            if cb:
                scale = Fraction(cb, row[basis[i]])
                for j, rv in enumerate(row):
                    if rv:
                        vals[j] += scale * rv
        den = reduce(lambda acc, f: acc * f.denominator // math.gcd(acc, f.denominator),
                     vals, 1)
        # den is the least common denominator: the row is already in lowest terms
        return [int(f * den) for f in vals], den

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
            onums, oden = obj
            if onums[-1] != 0:  # optimum of -sum(artificials) below zero
                self.feasible = False
                return
            # drive residual artificials out of the basis (degenerate rows)
            drop: list[int] = []
            for i in range(len(rows)):
                if basis[i] in self.art_cols:
                    pivot_col = -1
                    for j in range(self.ncols):
                        if j not in self.art_cols and rows[i][j] != 0:
                            pivot_col = j
                            break
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
        onums, oden = obj
        value = Fraction(onums[-1], oden)
        point = [Fraction(0)] * self.n_vars
        for i, row in enumerate(rows):
            col = basis[i]
            val = Fraction(row[-1], row[col])
            if col < self.n_vars:
                point[col] += val
            elif not self.nonneg and col < 2 * self.n_vars:
                point[col - self.n_vars] -= val
        return OPTIMAL, value, tuple(point)
