"""The structured inequality system of a locked structure and its polytope.

build_P assembles the rows

    x(E) = r(E)
    x(P) <= 1          for every parallel closure P
    x(S) >= |S| - 1    for every coparallel closure S
    x(L) <= rho(L)     for every locked subset L

without box rows.  Whether the rows imply 0 <= x(e) <= 1 is checked by
LP (polytope verify's box-implied line), not assumed: they need not, as on
U(1,2), where P = S = E and x = (2, -1) meets every row.
Membership, 0/1 vertex extraction and exact LP optimization all run with
zero tolerance.  The membership checks run on integers: ``_member`` and
``_member_Q`` read a point as numerators over one positive denominator,
``_sample_points`` draws points in that form, and ``zero_one_vertices``
counts each subset's elements in a row by ``bit_count``; ``member`` and
``member_Q`` are the Fraction-accepting wrappers.
``lp_maximize`` solves on integers too: it checks the simplex's integer
witness with ``_member`` and the objective identity, and builds its
Fractions only at the return.  greedy_max_basis supplies the independent
combinatorial optimum the LP answers are compared against.
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
from ._bits import mask_of
from .locked import LockedStructure
from .matroid import Matroid

MAX_DENOMINATOR = 64  # of a sample_rational_points coordinate
_DEN_BITS = MAX_DENOMINATOR.bit_length()  # of the words randint(1, MAX_DENOMINATOR) draws


@dataclass(frozen=True)
class Row:
    support: tuple[int, ...]
    rel: str  # "<=", ">=", "=="
    bound: int
    tag: str  # eq1 | parallel | coparallel | locked | box

    def __post_init__(self):
        if self.rel not in simplex.RELATIONS:
            raise errors.InvalidParams("unknown constraint relation %r" % (self.rel,))


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
    with d the lcm of the reduced denominators; InvalidParams on a value
    that Fraction cannot read, such as NaN, an infinity, None or "x", and on
    a str, bytes or bytearray, whose characters or bytes are not a vector."""
    if isinstance(values, (str, bytes, bytearray)):
        raise errors.InvalidParams("%r is not a list of rational numbers" % (values,))
    try:
        fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise errors.InvalidParams("%r is not a list of rational numbers" % (values,)) from None
    d = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (d // f.denominator) for f in fracs], d


def _member(sys: LinearSystem, x: Sequence[int], d: int) -> tuple[bool, Optional[Row]]:
    """member on the point x / d: integer numerators over one d > 0."""
    coord = x.__getitem__
    for row in sys.rows:
        total = sum(map(coord, row.support))
        rel, bound = row.rel, row.bound * d
        if total > bound if rel == "<=" else total < bound if rel == ">=" else total != bound:
            return False, row
    return True, None


def member(sys: LinearSystem, point: Sequence) -> tuple[bool, Optional[Row]]:
    """Exact membership; on failure returns the first violated row in order."""
    x, d = _integral(point)
    if len(x) != sys.dimension:
        raise errors.DimensionMismatch(
            "point has %d coordinates, system has %d" % (len(x), sys.dimension))
    return _member(sys, x, d)


def _member_Q(m: Matroid, x: Sequence[int], d: int) -> bool:
    """member_Q on the point x / d: integer numerators over one d > 0."""
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


def member_Q(m: Matroid, point: Sequence) -> bool:
    """Exact check of x(E) = r(E), the unit box, and x(A) <= r(A) for every
    subset A.  Scans all 2^n subsets against the rank table, which raises
    TooLarge past MAX_N elements."""
    x, d = _integral(point)
    if len(x) != m.n:
        raise errors.DimensionMismatch("point dimension mismatch")
    return _member_Q(m, x, d)


def zero_one_vertices(sys: LinearSystem, cardinality: int) -> tuple[tuple[int, ...], ...]:
    """All 0/1 points of the given cardinality satisfying the system,
    as subsets in canonical order.  A cardinality that is not a
    nonnegative int raises InvalidParams."""
    if not isinstance(cardinality, int) or cardinality < 0:
        raise errors.InvalidParams("cardinality must be a nonnegative int, got %r"
                                   % (cardinality,))
    rows = {"==": [], "<=": [], ">=": []}
    for row in sys.rows:
        rows[row.rel].append((mask_of(row.support), row.bound))
    eq, le, ge = rows["=="], rows["<="], rows[">="]
    bits = [1 << i for i in range(sys.dimension)]
    return tuple(comb for comb, c in zip(itertools.combinations(range(sys.dimension), cardinality),
                                         map(sum, itertools.combinations(bits, cardinality)))
                 if all((c & a).bit_count() == b for a, b in eq)
                 and all((c & a).bit_count() <= b for a, b in le)
                 and all((c & a).bit_count() >= b for a, b in ge))


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
    ints, scale = _integral(weights)
    if len(ints) != sys.dimension:
        raise errors.DimensionMismatch("weight vector dimension mismatch")
    status, value, witness = _program(sys, add_box).maximize_integral(ints)
    if status == simplex.INFEASIBLE:
        raise errors.Infeasible("system has no feasible point")
    if status == simplex.UNBOUNDED:
        raise errors.Unbounded("objective is unbounded over the system")
    x, d = witness
    ok, bad_row = _member(sys, x, d)
    if not ok:
        raise errors.LockedMatroidError("LP witness violates %r" % (bad_row,))
    num, den = value
    if sum(w * c for w, c in zip(ints, x)) * den != num * d:
        raise errors.LockedMatroidError("LP witness does not attain the optimum")
    return Fraction(num, den * scale), tuple(Fraction(a, d) for a in x)


def greedy_max_basis(m: Matroid, weights: Sequence) -> tuple[int | Fraction, tuple[int, ...]]:
    """Max-weight basis by the classic greedy scan (decreasing weight, ties by
    index), extending whenever the element keeps the set independent.  Weights
    are exact rationals, as for lp_maximize; the total is an int if they are
    integers."""
    ints, d = _integral(weights)
    if len(ints) != m.n:
        raise errors.DimensionMismatch("weight vector dimension mismatch")
    ranks = m._rank_table()
    current = 0
    chosen = []
    for e in sorted(range(m.n), key=lambda i: (-ints[i], i)):
        cand = current | (1 << e)
        if ranks[cand] == cand.bit_count():
            current = cand
            chosen.append(e)
    if len(chosen) != m.rank:
        raise errors.LockedMatroidError("greedy scan found %d elements, rank is %d"
                                        % (len(chosen), m.rank))
    total = sum(ints[e] for e in chosen)
    return total if d == 1 else Fraction(total, d), tuple(sorted(chosen))


def _sample_points(n: int, target_sum: int, count: int,
                   rng: Random) -> list[tuple[tuple[int, ...], int]]:
    """sample_rational_points as (numerators, denominator) pairs over the
    denominator lcm(dens) * n * q, with q the denominator of target_sum, and
    the same draws from rng.  Each draw is rng.randint's: words of k bits
    from getrandbits, the first one in range kept, with k the bit length of
    the range's size."""
    if not isinstance(n, int) or n < 1:
        raise errors.InvalidParams("sample points need at least one coordinate, got n=%r" % (n,))
    if not isinstance(count, int) or count < 0:
        raise errors.InvalidParams("count must be a nonnegative int, got %r" % (count,))
    if not isinstance(rng, Random):
        raise errors.InvalidParams("rng %r is not a random.Random" % (rng,))
    try:
        (target,), q = _integral((target_sum,))
    except errors.InvalidParams:
        raise errors.InvalidParams("target_sum %r is not a rational number" % (target_sum,)) from None
    scale = n * q
    getrandbits = rng.getrandbits
    points = []
    for _ in range(count):
        dens, nums = [], []
        for _ in range(n):
            den = getrandbits(_DEN_BITS)  # randint(1, MAX_DENOMINATOR)
            while den >= MAX_DENOMINATOR:
                den = getrandbits(_DEN_BITS)
            den += 1
            k = (den + 1).bit_length()  # randint(0, den)
            a = getrandbits(k)
            while a > den:
                a = getrandbits(k)
            dens.append(den)
            nums.append(a)
        lcm = math.lcm(*dens)
        nums = [a * (lcm // den) for a, den in zip(nums, dens)]
        shift = target * lcm - q * sum(nums)
        points.append((tuple(a * scale + shift for a in nums), lcm * scale))
    return points


def sample_rational_points(n: int, target_sum: int, count: int,
                           rng: Random) -> list[tuple[Fraction, ...]]:
    """Seeded rational sample points: coordinates with denominators up to
    MAX_DENOMINATOR drawn in [0,1], then shifted onto the hyperplane
    x(E) = target_sum, read as an exact rational.  Points may leave the unit
    box; they are kept."""
    return [tuple(Fraction(a, d) for a in x) for x, d in _sample_points(n, target_sum, count, rng)]
