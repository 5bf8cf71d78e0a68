"""The structured inequality system of a locked structure and its polytope.

build_P assembles the rows

    x(E) = r(E)
    x(P) <= 1          for every parallel closure P
    x(S) >= |S| - 1    for every coparallel closure S
    x(L) <= rho(L)     for every locked subset L

without box rows: 0 <= x(e) <= 1 is implied by these rows and that
implication is something the test suite checks by LP rather than assumes.
Membership, 0/1 vertex extraction and exact LP optimization all run on
exact rationals with zero tolerance; greedy_max_basis supplies the
independent combinatorial optimum the LP answers are compared against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Optional, Sequence

from . import errors, simplex
from .locked import LockedStructure
from .matroid import MAX_N, Matroid


@dataclass(frozen=True)
class Row:
    support: tuple[int, ...]
    rel: str  # "<=", ">=", "=="
    bound: int
    tag: str  # eq1 | parallel | coparallel | locked | box


@dataclass(frozen=True)
class LinearSystem:
    dimension: int
    rows: tuple[Row, ...]


def build_P(s: LockedStructure) -> LinearSystem:
    full = tuple(range(s.ground_size))
    rows = [Row(full, "==", s.rank, "eq1")]
    for p in s.parallel:
        rows.append(Row(p, "<=", 1, "parallel"))
    for c in s.coparallel:
        rows.append(Row(c, ">=", len(c) - 1, "coparallel"))
    for l in s.locked:
        rows.append(Row(l, "<=", s.rho[l], "locked"))
    return LinearSystem(s.ground_size, tuple(rows))


def _integral(values: Sequence) -> tuple[list[int], int]:
    """Exact rationals over one common denominator d: values[i] == ints[i] / d,
    with d the lcm of the reduced denominators."""
    fracs = [Fraction(v) for v in values]
    d = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (d // f.denominator) for f in fracs], d


def member(sys: LinearSystem, point: Sequence) -> tuple[bool, Optional[Row]]:
    """Exact membership; on failure returns the first violated row in order."""
    x, d = _integral(point)
    if len(x) != sys.dimension:
        raise errors.DimensionMismatch(
            "point has %d coordinates, system has %d" % (len(x), sys.dimension))
    for row in sys.rows:
        total = sum(x[i] for i in row.support)
        bound = d * row.bound
        if row.rel == "==" and total != bound:
            return False, row
        if row.rel == "<=" and total > bound:
            return False, row
        if row.rel == ">=" and total < bound:
            return False, row
    return True, None


def member_Q(m: Matroid, point: Sequence) -> bool:
    """Exact check of x(E) = r(E), the unit box, and x(A) <= r(A) for every
    subset A.  Scans all 2^n subsets, so the ground set is capped at MAX_N."""
    if m.n > MAX_N:
        raise errors.TooLarge("member_Q scans 2^n subsets; |E| capped at %d" % MAX_N)
    x, d = _integral(point)
    if len(x) != m.n:
        raise errors.DimensionMismatch("point dimension mismatch")
    ranks = m._rank_table()
    if sum(x) != d * m.rank:
        return False
    if any(c < 0 or c > d for c in x):
        return False
    size = 1 << m.n
    sums = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + x[low.bit_length() - 1]
        if sums[mask] > d * ranks[mask]:
            return False
    return True


def zero_one_vertices(sys: LinearSystem, cardinality: int) -> tuple[tuple[int, ...], ...]:
    """All 0/1 points of the given cardinality satisfying the system,
    as subsets in canonical order."""
    out = []
    for comb in itertools.combinations(range(sys.dimension), cardinality):
        point = [0] * sys.dimension
        for i in comb:
            point[i] = 1
        if member(sys, point)[0]:
            out.append(comb)
    return tuple(out)


@lru_cache(maxsize=128)
def _program(sys: LinearSystem, add_box: bool) -> simplex.SimplexProgram:
    constraints = []
    for row in sys.rows:
        coeffs = [0] * sys.dimension
        for i in row.support:
            coeffs[i] = 1
        constraints.append((coeffs, row.rel, row.bound))
    if add_box:
        for i in range(sys.dimension):
            coeffs = [0] * sys.dimension
            coeffs[i] = 1
            constraints.append((coeffs, "<=", 1))
        # the lower half of the box is the nonnegativity of the variables
        return simplex.SimplexProgram(sys.dimension, constraints, nonneg=True)
    return simplex.SimplexProgram(sys.dimension, constraints, nonneg=False)


def lp_maximize(sys: LinearSystem, weights: Sequence, add_box: bool = True
                ) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact maximum of weights . x over the system.

    With add_box (the default) the unit box is appended so the program is
    bounded a priori; without it the variables are free and boundedness
    must come from the rows themselves (Unbounded is raised otherwise).
    """
    if len(weights) != sys.dimension:
        raise errors.DimensionMismatch("weight vector dimension mismatch")
    ints, scale = _integral(weights)
    status, value, point = _program(sys, add_box).maximize(ints)
    if status == simplex.INFEASIBLE:
        raise errors.Infeasible("system has no feasible point")
    if status == simplex.UNBOUNDED:
        raise errors.Unbounded("objective is unbounded over the system")
    value = Fraction(value, scale)
    ok, bad_row = member(sys, point)
    if not ok:
        raise errors.LockedMatroidError("LP witness violates %r" % (bad_row,))
    if sum(w * c for w, c in zip(ints, point)) != value * scale:
        raise errors.LockedMatroidError("LP witness does not attain the optimum")
    return value, point


def greedy_max_basis(m: Matroid, weights: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Max-weight basis by the classic greedy scan (decreasing weight, ties by
    index), extending whenever the element keeps the set independent."""
    if len(weights) != m.n:
        raise errors.DimensionMismatch("weight vector dimension mismatch")
    ranks = m._rank_table()
    current = 0
    chosen = []
    for e in sorted(range(m.n), key=lambda i: (-weights[i], i)):
        cand = current | (1 << e)
        if ranks[cand] == cand.bit_count():
            current = cand
            chosen.append(e)
    if len(chosen) != m.rank:
        raise errors.LockedMatroidError("greedy scan found %d elements, rank is %d"
                                        % (len(chosen), m.rank))
    return sum(weights[e] for e in chosen), tuple(sorted(chosen))


def sample_rational_points(n: int, target_sum: int, count: int, rng: Random,
                           max_denominator: int = 64) -> list[tuple[Fraction, ...]]:
    """Seeded rational sample points: coordinates with denominators up to
    max_denominator drawn in [0,1], then shifted onto the hyperplane
    x(E) = target_sum.  Points may leave the unit box; they are kept."""
    points = []
    for _ in range(count):
        coords = []
        for _ in range(n):
            den = rng.randint(1, max_denominator)
            coords.append(Fraction(rng.randint(0, den), den))
        shift = Fraction(target_sum - sum(coords), n)
        points.append(tuple(c + shift for c in coords))
    return points
