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
zero tolerance.  The membership checks run on integers: ``_member`` reads a
point as numerators over one positive denominator, one row at a time, and
``_sample_points`` draws points in that form.  The exhaustive scans run on
lanes.  ``_lane_misses`` gives each point of a batch one wide lane, sums
x(A) for every subset A and every point at once, and reads both the rows
and every subset rank from that one table; ``_pq_disagreements`` runs it
over fixed-size batches, and ``member_Q`` makes its one-point call.
``zero_one_vertices`` gives each subset one byte lane of
``lane_constants(n)`` and checks a row on all of them with one biased
compare; it refuses a dimension above MAX_N = 16 with TooLarge.
``member`` and ``member_Q`` are the Fraction-accepting wrappers.
``_lp_maximize`` is the integer LP core: it solves integer weights on a
given ``_program`` of the system, checks the simplex's integer witness
with ``_member`` and the objective identity, and returns the optimum as
(numerator, denominator) and the witness as (numerators, d).
``lp_maximize`` is its Fraction view.  greedy_max_basis supplies the
independent combinatorial optimum the LP answers are compared against.
``verify_lines`` owns polytope verify's four checks and yields their lines,
which the CLI prints; each LP line looks its program up once (boxed for
lp-greedy, free for box-implied) and compares the optima on integers.
A LinearSystem holds only rows that every reader reads alike: supports of
distinct coordinates, int bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterator, Optional, Sequence

from . import errors, simplex
from ._bits import bits_of, lane_constants, mask_of
from .locked import LockedStructure
from .matroid import MAX_N, Matroid

MAX_DENOMINATOR = 64  # of a sample_rational_points coordinate
_DEN_BITS = MAX_DENOMINATOR.bit_length()  # of the words randint(1, MAX_DENOMINATOR) draws
# the most lanes one batch of _pq_disagreements' table holds: 2^n per point,
# so 256 points a batch at n = 6, and one point at n >= 14
_BATCH_LANES = 1 << 14


@dataclass(frozen=True)
class Row:
    support: tuple[int, ...]
    rel: str  # "<=", ">=", "=="
    bound: int
    tag: str  # eq1 | parallel | coparallel | locked | box

    def __post_init__(self):
        if self.rel not in simplex.RELATIONS:
            raise errors.InvalidParams("unknown constraint relation %r" % (self.rel,))
        support = self.support
        if (not isinstance(support, tuple) or not all(isinstance(e, int) for e in support)
                or len(set(support)) != len(support)):
            raise errors.InvalidParams("row support must be a tuple of distinct ints, got %r"
                                       % (support,))
        if not isinstance(self.bound, int):
            raise errors.InvalidParams("row bound must be an int, got %r" % (self.bound,))


@dataclass(frozen=True)
class LinearSystem:
    """Rows over the coordinates 0 .. dimension - 1: a dimension that is not
    a nonnegative int, or rows that are not a tuple of Row, raise
    InvalidParams, and a support element outside the coordinates OutOfRange,
    so every reader sees the same rows."""
    dimension: int
    rows: tuple[Row, ...]

    def __post_init__(self):
        n = self.dimension
        if not isinstance(n, int) or n < 0:
            raise errors.InvalidParams("dimension must be a nonnegative int, got %r" % (n,))
        if not isinstance(self.rows, tuple) or not all(isinstance(r, Row) for r in self.rows):
            raise errors.InvalidParams("rows must be a tuple of Row, got %r" % (self.rows,))
        for row in self.rows:
            for e in row.support:
                if not 0 <= e < n:
                    raise errors.OutOfRange("row support element %r not in 0..%d" % (e, n - 1))


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


def _pack(values, width: int, bias: int) -> int:
    """values as one integer of width-byte lanes, lane j holding values[j] + bias,
    which must lie in 0 .. 2^(8 width) - 1."""
    return int.from_bytes(b"".join(map(int.to_bytes, map(bias.__add__, values),
                                       itertools.repeat(width), itertools.repeat("little"))),
                          "little")


def _lane_misses(m: Matroid, rows: Sequence[Row],
                 points: Sequence[tuple[Sequence[int], int]]) -> tuple[bytes, bytes]:
    """Which of the points, each numerators over one d > 0, miss P (the rows)
    and which miss Q (member_Q's system): two strings of one byte per point,
    1 where it misses and 0 where it lies inside.

    Point j owns lane j, a field of W bits, of every packed integer.  The
    table holds x(A) for every subset A and every point at once, built by the
    low-bit recurrence, and both systems read it: a row is one table entry,
    read as the set of its support.  A check of v >= 0 is the top bit of
    2^(W-1) + v; W exceeds the bit length of n * max |x| + max(n, |bound|) *
    max d, which bounds every |v| compared, so no lane carries or borrows."""
    ranks = m._rank_table()
    cols = tuple(zip(*(x for x, _ in points)))
    dens = [d for _, d in points]
    k = (m.n * max((abs(a) for col in cols for a in col), default=0)
         + max(m.n, max((abs(row.bound) for row in rows), default=0)) * max(dens))
    width = (k.bit_length() + 8) // 8  # bytes per lane
    top = int.from_bytes((bytes(width - 1) + b"\x80") * len(points), "little")
    den = _pack(dens, width, 0)
    x = [_pack(col, width, 1 << 8 * width - 1) - top for col in cols]
    caps = [top + r * den for r in range(m.rank + 1)]
    sums = [0] * (1 << m.n)
    in_q = top
    for a in range(1, 1 << m.n):
        low = a & -a
        s = sums[a] = sums[a ^ low] + x[low.bit_length() - 1]
        in_q &= caps[ranks[a]] - s  # x(A) <= d r(A)
    # x(E) >= d r(E); with x(E - e) <= d r(E - e), it gives 0 <= x(e), and
    # x(e) <= d r(e) <= d, so the box needs no check of its own
    in_q &= top + sums[-1] - m.rank * den
    in_p = top
    for row in rows:
        s, bound = sums[mask_of(row.support)], row.bound * den
        if row.rel != ">=":
            in_p &= top + bound - s
        if row.rel != "<=":
            in_p &= top + s - bound
    size, shift = len(points) * width, 8 * width - 1
    return (((top ^ in_p) >> shift).to_bytes(size, "little")[::width],
            ((top ^ in_q) >> shift).to_bytes(size, "little")[::width])


def _pq_disagreements(sys: LinearSystem, m: Matroid,
                      points: Sequence[tuple[Sequence[int], int]]) -> int:
    """How many of the points, each numerators over one d > 0, lie in exactly
    one of P, cut out by sys's rows, and Q, member_Q's system: one lane pass
    per batch of at most _BATCH_LANES >> n points."""
    step = max(1, _BATCH_LANES >> m.n)
    bad = 0
    for i in range(0, len(points), step):
        miss_p, miss_q = _lane_misses(m, sys.rows, points[i:i + step])
        bad += sum(map(int.__ne__, miss_p, miss_q))
    return bad


def member_Q(m: Matroid, point: Sequence) -> bool:
    """Exact check of x(E) = r(E), the unit box, and x(A) <= r(A) for every
    subset A.  Scans all 2^n subsets against the rank table, which raises
    TooLarge past MAX_N elements."""
    x, d = _integral(point)
    if len(x) != m.n:
        raise errors.DimensionMismatch("point dimension mismatch")
    return not _lane_misses(m, (), ((x, d),))[1][0]


def zero_one_vertices(sys: LinearSystem, cardinality: int) -> tuple[tuple[int, ...], ...]:
    """All 0/1 points of the given cardinality satisfying the system,
    as subsets in canonical order.  A cardinality that is not a
    nonnegative int raises InvalidParams, and a dimension above MAX_N
    raises TooLarge.

    Subset X owns byte lane X of lane_constants(n): a row's count, the sum
    of its elements' HAS patterns, holds |X & row| <= n in lane X, and
    0x80 + b - count keeps its top bit exactly when count <= b.  A bound
    clamped to -1 .. n + 1 keeps every answer, and every lane in 0x6F ..
    0x91, so no lane borrows."""
    if not isinstance(cardinality, int) or cardinality < 0:
        raise errors.InvalidParams("cardinality must be a nonnegative int, got %r"
                                   % (cardinality,))
    n = sys.dimension
    if n > MAX_N:
        raise errors.TooLarge("0/1 vertices scan all 2^n subsets; dimension capped at %d, "
                              "got %d" % (MAX_N, n))
    if cardinality > n:
        return ()
    has, ones, pop = lane_constants(n)
    full = (1 << n) - 1
    ok = (ones << 7) & (pop + (0x80 - cardinality) * ones) & ((0x80 + cardinality) * ones - pop)
    for row in sys.rows:
        count = sum(map(has.__getitem__, row.support))
        bound = min(max(row.bound, -1), n + 1)
        if row.rel != ">=":
            ok &= (0x80 + bound) * ones - count
        if row.rel != "<=":
            ok &= count + (0x80 - bound) * ones
    kept = itertools.compress(range(full + 1), (ok >> 7).to_bytes(full + 1, "little"))
    return tuple(sorted(map(bits_of, kept)))


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


def _lp_maximize(sys: LinearSystem, program: simplex.SimplexProgram, weights: Sequence[int]
                 ) -> tuple[tuple[int, int], tuple[tuple[int, ...], int]]:
    """lp_maximize on integer weights over program, one of sys's _program
    results: the optimum as (numerator, denominator) and the witness as
    (numerators, d), both denominators positive, the witness checked
    against sys's rows and the objective on integers."""
    status, value, witness = program.maximize_integral(weights)
    if status == simplex.INFEASIBLE:
        raise errors.Infeasible("system has no feasible point")
    if status == simplex.UNBOUNDED:
        raise errors.Unbounded("objective is unbounded over the system")
    x, d = witness
    ok, bad_row = _member(sys, x, d)
    if not ok:
        raise errors.LockedMatroidError("LP witness violates %r" % (bad_row,))
    num, den = value
    if sum(w * c for w, c in zip(weights, x)) * den != num * d:
        raise errors.LockedMatroidError("LP witness does not attain the optimum")
    return value, witness


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
    (num, den), (x, d) = _lp_maximize(sys, _program(sys, add_box), ints)
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


def verify_lines(m: Matroid, system: LinearSystem, rng: Random, trials: int,
                 points: int) -> Iterator[str]:
    """polytope verify's four check lines for m and system, build_P of m's
    locked structure, each computed when the next one is asked for:
    lp-greedy draws trials weight vectors from rng, then pq-agreement
    draws points sample points, for n <= 6 only."""
    verts = zero_one_vertices(system, m.rank)
    yield ("vertices-match %s (%d bases)"
           % ("pass" if verts == m.bases else "FAIL", len(m._basis_masks)))
    # one program per line; its (num, den) optima are not reduced, so compare ratios
    program = _program(system, True)
    agree = 0
    for _ in range(trials):
        w = [rng.randint(-10, 10) for _ in range(m.n)]
        (num, den), _ = _lp_maximize(system, program, w)
        if num == greedy_max_basis(m, w)[0] * den:
            agree += 1
    yield "lp-greedy %s (%d/%d trials)" % ("pass" if agree == trials else "FAIL", agree, trials)
    program = _program(system, False)
    boxed = True
    try:
        for i in range(m.n):
            w = [0] * m.n
            w[i] = 1
            (hn, hd), _ = _lp_maximize(system, program, w)
            w[i] = -1
            (ln, _), _ = _lp_maximize(system, program, w)
            boxed = boxed and ln <= 0 and hn <= hd
    except errors.Unbounded:
        boxed = False  # some x(e) is unbounded over the rows, so they miss the box
    yield "box-implied %s" % ("pass" if boxed else "FAIL")
    if m.n <= 6:
        pts = _sample_points(m.n, m.rank, points, rng)
        bad = _pq_disagreements(system, m, pts)
        yield "pq-agreement %s (%d points)" % ("pass" if bad == 0 else "FAIL", len(pts))
    else:
        yield "pq-agreement skipped (n=%d)" % m.n
