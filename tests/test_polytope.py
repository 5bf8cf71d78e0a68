import dataclasses
import hashlib
import itertools
from fractions import Fraction
from random import Random

import pytest

import lockedmatroid as lm
from lockedmatroid import errors
from lockedmatroid import _bits
from lockedmatroid.polytope import (LinearSystem, Row, _integral, _lane_misses, _lp_maximize,
                                    _member, _pq_disagreements, _program, _sample_points,
                                    build_P, lp_maximize, member, member_Q,
                                    sample_rational_points)
from helpers import (exhaustive_max_basis, fraction_member, fraction_member_Q,
                     reference_lp_maximize, reference_sample_rational_points,
                     reference_zero_one_vertices, sparse_paving)
from test_stress_tier import STRESS_TIER

# the stress-tier inputs at n = 14, 15 and 16 that the vertex scans add
STRESS_VERTEX_INPUTS = ("mk4chain3", "mk6", "uniform(8,16)")


def system_for(m):
    return build_P(lm.locked_structure(m))


# -- build_P ------------------------------------------------------------------

def test_build_p_mk4_rows():
    sys = system_for(lm.mk4())
    assert len(sys.rows) == 1 + 6 + 6 + 4
    assert sys.rows[0].rel == "==" and sys.rows[0].bound == 3
    tags = [r.tag for r in sys.rows]
    assert tags.count("parallel") == 6
    assert tags.count("coparallel") == 6
    assert tags.count("locked") == 4
    assert "box" not in tags


def test_build_p_u24_rows():
    sys = system_for(lm.uniform(2, 4))
    assert len(sys.rows) == 1 + 4 + 4


def test_every_basis_vector_satisfies_rows(corpus):
    for m in corpus:
        sys = system_for(m)
        for b in m.bases:
            point = [0] * m.n
            for e in b:
                point[e] = 1
            ok, bad = member(sys, point)
            assert ok, (m.name, b, bad)


# -- member -------------------------------------------------------------------

def test_member_all_ones_violates_equality():
    sys = system_for(lm.mk4())
    ok, row = member(sys, [1] * 6)
    assert not ok and row.tag == "eq1"


def test_member_uniform_fractional_point():
    for (r, n) in ((2, 4), (2, 5), (3, 6)):
        sys = system_for(lm.uniform(r, n))
        point = [Fraction(r, n)] * n
        assert member(sys, point)[0]


def test_member_dimension_mismatch():
    sys = system_for(lm.uniform(2, 4))
    with pytest.raises(errors.DimensionMismatch):
        member(sys, [0, 0])


NOT_RATIONAL = [float("nan"), float("inf"), float("-inf"), None, "x", "1/0"]


@pytest.mark.parametrize("bad", NOT_RATIONAL)
def test_member_refuses_a_value_that_is_not_rational(bad):
    sys = system_for(lm.uniform(2, 4))
    with pytest.raises(errors.InvalidParams, match="is not a list of rational numbers$"):
        member(sys, [bad, 0, 0, 0])
    assert member(sys, ["1/2"] * 4) == (True, None)


# -- member_Q -------------------------------------------------------------------

def test_member_q_basics():
    m = lm.mk4()
    point = [0] * 6
    for e in m.bases[0]:
        point[e] = 1
    assert member_Q(m, point)
    bad = [Fraction(3, 2)] + [Fraction(3, 10)] * 5  # violates a box bound
    assert sum(bad) == 3
    assert not member_Q(m, bad)


@pytest.mark.parametrize("bad", NOT_RATIONAL)
def test_member_q_refuses_a_value_that_is_not_rational(bad):
    m = lm.uniform(2, 4)
    with pytest.raises(errors.InvalidParams, match="is not a list of rational numbers$"):
        member_Q(m, [bad, 0, 0, 0])
    assert member_Q(m, ["1/2"] * 4)


def test_member_q_too_large():
    # from_bases refuses 17 elements, so build without validation
    big = lm.Matroid(lm.GroundSet.default(17), [1 << e for e in range(17)])
    with pytest.raises(errors.TooLarge):
        member_Q(big, [0] * 17)


def test_p_equals_q_on_small_corpus(corpus):
    # 0/1 vectors and seeded rational points; exact agreement
    rng = Random(97)
    for m in corpus:
        if m.n > 6:
            continue
        sys = system_for(m)
        for bits in itertools.product((0, 1), repeat=m.n):
            assert member(sys, bits)[0] == member_Q(m, bits), (m.name, bits)
        for p in sample_rational_points(m.n, m.rank, 250, rng):
            assert member(sys, p)[0] == member_Q(m, p), (m.name, p)



def _typed(rng, f):
    """f as an int, str, float or Fraction coordinate, whichever is exact."""
    kinds = ["str", "fraction"]
    if f.denominator == 1:
        kinds.append("int")
    if f.denominator & (f.denominator - 1) == 0:
        kinds.append("float")
    kind = rng.choice(kinds)
    return {"int": int, "str": str, "float": float, "fraction": lambda v: v}[kind](f)


def test_member_and_member_q_match_fraction_oracle(corpus):
    # integer scaling over one common denominator against the Fraction
    # arithmetic it replaced, on points with negative coordinates, coordinates
    # above 1, mixed input types, and points shifted onto x(E) = r(E) so the
    # subset scan of member_Q runs
    rng = Random(2027)
    inside = 0
    for m in corpus:
        sys = system_for(m)
        for trial in range(60):
            den = rng.choice((1, 2, 3, 4, 7, 8, 12, 64))
            lo, hi = (0, den) if trial % 3 == 2 else (-den, 2 * den)
            coords = [Fraction(rng.randint(lo, hi), den) for _ in range(m.n)]
            if trial % 3:
                shift = Fraction(m.rank - sum(coords), m.n)
                coords = [c + shift for c in coords]
            point = [_typed(rng, c) for c in coords]
            assert member(sys, point) == fraction_member(sys, point), (m.name, point)
            assert member_Q(m, point) == fraction_member_Q(m, point), (m.name, point)
            inside += member_Q(m, point)
    assert inside > 100

# -- zero_one_vertices -------------------------------------------------------------

def test_vertices_equal_bases(corpus):
    for m in list(corpus) + [STRESS_TIER[name]() for name in STRESS_VERTEX_INPUTS]:
        sys = system_for(m)
        assert lm.zero_one_vertices(sys, m.rank) == m.bases, m.name


def test_vertices_u24():
    sys = system_for(lm.uniform(2, 4))
    assert lm.zero_one_vertices(sys, 2) == tuple(itertools.combinations(range(4), 2))


def _member_scan(sys, cardinality):
    """zero_one_vertices by one member call per 0/1 point."""
    out = []
    for comb in itertools.combinations(range(sys.dimension), cardinality):
        point = [int(i in comb) for i in range(sys.dimension)]
        if member(sys, point)[0]:
            out.append(comb)
    return tuple(out)


def _lowered(sys, i, by=1):
    """sys with the bound of row i lowered by `by`, raised if it is negative."""
    rows = list(sys.rows)
    rows[i] = dataclasses.replace(rows[i], bound=rows[i].bound - by)
    return LinearSystem(sys.dimension, tuple(rows))


def test_vertex_masks_match_the_member_scan(corpus):
    # row lanes and biased compares against one member call per point, on the
    # corpus systems and with each row's bound lowered by one, which leaves
    # some, or no, points; the stress-tier systems at n = 14..16 lower the
    # first row of each tag only, since the member scan takes ~1 s a system
    sizes = set()
    stress = [STRESS_TIER[name]() for name in STRESS_VERTEX_INPUTS]
    for m, every_row in [(m, True) for m in corpus] + [(m, False) for m in stress]:
        sys = system_for(m)
        assert lm.zero_one_vertices(sys, m.rank) == _member_scan(sys, m.rank), m.name
        first = {}
        for i, row in enumerate(sys.rows):
            first.setdefault(row.tag, i)
        for i in range(len(sys.rows)) if every_row else sorted(first.values()):
            low = _lowered(sys, i)
            for k in {m.rank, m.rank - 1}:
                got = lm.zero_one_vertices(low, k)
                assert got == _member_scan(low, k), (m.name, i, k)
                if k == m.rank:
                    sizes.add("empty" if not got else "all" if got == m.bases else "part")
    assert sizes == {"empty", "part", "all"}


def test_vertices_match_the_combinations_scan(corpus):
    # the byte lanes against the itertools.combinations scan they replaced:
    # lowered bounds, bounds far outside 0..n (clamped to -1..n+1 before the
    # byte compare), and every cardinality from 0 to n + 2
    rng = Random(33)
    seen = set()
    for m in list(corpus) + [lm.uniform(6, 12)]:
        sys = system_for(m)
        systems = [sys] + [_lowered(sys, i) for i in range(len(sys.rows))]
        for _ in range(18):
            by = rng.choice((-1, 1)) * rng.choice((m.n, m.n + 1, m.n + 2, 3 * m.n, 10**30))
            systems.append(_lowered(sys, rng.randrange(len(sys.rows)), by))
        for low in systems:
            for k in range(m.n + 3):
                got = lm.zero_one_vertices(low, k)
                assert got == reference_zero_one_vertices(low, k), (m.name, low, k)
                seen.add("some" if got else "none")
    # a row on no element, and rows whose every bound is far out of range
    for rel, bound in itertools.product(("<=", ">=", "=="), (-10**30, -5, -1, 0, 1, 4, 5, 6, 10**30)):
        for support in ((), (0, 2, 3), (0, 1, 2, 3, 4)):
            sys = LinearSystem(5, (Row(support, rel, bound, "x"),))
            for k in range(7):
                assert lm.zero_one_vertices(sys, k) == reference_zero_one_vertices(sys, k)
    assert lm.zero_one_vertices(LinearSystem(0, ()), 0) == ((),)
    assert lm.zero_one_vertices(LinearSystem(0, ()), 1) == ()
    assert seen == {"some", "none"}


def test_vertices_refuse_a_large_dimension_before_the_lane_constants():
    # the lane constants keep the largest n ever asked for, so a dimension
    # above MAX_N is refused before they are built
    before = _bits._lanes[0]
    for n in (17, 24):
        with pytest.raises(errors.TooLarge, match="^0/1 vertices scan all 2\\^n subsets; "
                                                  "dimension capped at 16, got %d$" % n):
            lm.zero_one_vertices(LinearSystem(n, (Row(tuple(range(n)), "==", 3, "eq1"),)), 3)
        assert _bits._lanes[0] == before
    for n in (-1, 2.0, "3", None):
        with pytest.raises(errors.InvalidParams, match="^dimension must be a nonnegative int"):
            lm.zero_one_vertices(LinearSystem(n, ()), 0)


def test_vertices_refuse_a_bad_cardinality():
    sys = system_for(lm.mk4())
    for k in (-1, -7, 1.0, 2.5, "3", None):
        with pytest.raises(errors.InvalidParams, match="^cardinality must be a nonnegative int"):
            lm.zero_one_vertices(sys, k)
    assert lm.zero_one_vertices(sys, 0) == lm.zero_one_vertices(sys, 7) == ()


# -- greedy ------------------------------------------------------------------------

def test_greedy_examples():
    value, basis = lm.greedy_max_basis(lm.uniform(2, 4), (4, 3, 2, 1))
    assert value == 7 and basis == (0, 1)
    value, basis = lm.greedy_max_basis(lm.uniform(2, 4), (0, 0, 0, 0))
    assert value == 0 and len(basis) == 2


def test_greedy_matches_exhaustive(corpus):
    rng = Random(1234)
    for m in corpus:
        for _ in range(30):
            w = [rng.randint(-8, 8) for _ in range(m.n)]
            value, basis = lm.greedy_max_basis(m, w)
            assert basis in m.bases
            assert value == exhaustive_max_basis(m, w), (m.name, w)


# -- LP ---------------------------------------------------------------------------

def test_lp_all_ones_gives_rank(corpus):
    for m in corpus[:8]:
        sys = system_for(m)
        opt, x = lm.lp_maximize(sys, [1] * m.n)
        assert opt == m.rank


def test_lp_matches_greedy_spot():
    m = lm.mk4()
    sys = system_for(m)
    opt, _ = lm.lp_maximize(sys, (5, 4, 3, 2, 1, 0))
    assert opt == lm.greedy_max_basis(m, (5, 4, 3, 2, 1, 0))[0]


def test_lp_seeded_agreement(corpus):
    rng = Random(77)
    for m in corpus:
        sys = system_for(m)
        for _ in range(15):
            w = [rng.randint(-10, 10) for _ in range(m.n)]
            opt, x = lm.lp_maximize(sys, w)
            assert opt == lm.greedy_max_basis(m, w)[0], (m.name, w)


def test_lp_fraction_weights():
    m = lm.uniform(2, 4)
    sys = system_for(m)
    opt, _ = lm.lp_maximize(sys, [Fraction(1, 2)] * 4)
    assert opt == 1  # rank 2 at weight 1/2 each


def test_lp_box_implication(corpus):
    # without box rows and with free variables, every coordinate still lands
    # in [0,1] over the row system
    for m in corpus:
        if m.n > 6:
            continue
        sys = system_for(m)
        for i in range(m.n):
            w = [0] * m.n
            w[i] = 1
            hi, _ = lm.lp_maximize(sys, w, add_box=False)
            w[i] = -1
            lo, _ = lm.lp_maximize(sys, w, add_box=False)
            assert Fraction(0) <= -lo and hi <= Fraction(1), (m.name, i)


def test_lp_subset_sums_bounded_by_rank():
    # max of x(A) over the polytope equals the rank of A
    for m in (lm.uniform(2, 4), lm.mk4(), lm.q6()):
        sys = system_for(m)
        for k in range(m.n + 1):
            for comb in itertools.combinations(range(m.n), k):
                w = [0] * m.n
                for e in comb:
                    w[e] = 1
                opt, _ = lm.lp_maximize(sys, w)
                assert opt == m.rank_of(comb), (m.name, comb)


@pytest.mark.parametrize("bad", NOT_RATIONAL)
def test_lp_maximize_refuses_a_weight_that_is_not_rational(bad):
    sys = system_for(lm.uniform(2, 4))
    with pytest.raises(errors.InvalidParams, match="is not a list of rational numbers$"):
        lp_maximize(sys, [bad, 0, 0, 0])
    assert lp_maximize(sys, ["1/2", 0, 0, 0])[0] == Fraction(1, 2)


def test_lp_infeasible_and_unbounded():
    from lockedmatroid.polytope import LinearSystem, Row
    bad = LinearSystem(2, (Row((0,), ">=", 2, "locked"), Row((0,), "<=", 1, "box")))
    with pytest.raises(errors.Infeasible):
        lm.lp_maximize(bad, [1, 0], add_box=False)
    free = LinearSystem(2, (Row((0,), "<=", 1, "parallel"),))
    with pytest.raises(errors.Unbounded):
        lm.lp_maximize(free, [0, 1], add_box=False)


def test_dimension_mismatches():
    m = lm.mk4()
    sys = system_for(m)
    for five in ([1] * 5, [Fraction(1, 2)] * 5, ["1/2"] * 5):
        for call in (lambda: member_Q(m, five), lambda: lp_maximize(sys, five),
                     lambda: lm.greedy_max_basis(m, five)):
            with pytest.raises(errors.DimensionMismatch, match="dimension mismatch"):
                call()


def test_lp_maximize_refuses_weights_that_are_not_a_collection():
    with pytest.raises(errors.InvalidParams, match="^5 is not a list of rational numbers$"):
        lp_maximize(system_for(lm.mk4()), 5)


def test_greedy_max_basis_refuses_weights_that_are_not_a_collection():
    with pytest.raises(errors.InvalidParams, match="^5 is not a list of rational numbers$"):
        lm.greedy_max_basis(lm.mk4(), 5)


@pytest.mark.parametrize("vector", ["101010", b"\0" * 6, b"\1" * 6, bytearray(6), "111000"])
def test_vectors_refuse_strings_and_bytes(vector):
    # the characters or bytes of a str, bytes or bytearray are not a point
    # or a weight vector, even where each one would read as a number
    m = lm.mk4()
    sys = system_for(m)
    for call in (lambda: member(sys, vector), lambda: member_Q(m, vector),
                 lambda: lp_maximize(sys, vector), lambda: lm.greedy_max_basis(m, vector)):
        with pytest.raises(errors.InvalidParams, match="is not a list of rational numbers$"):
            call()
    # a list of the same characters is still read value by value
    assert member(sys, list("111000")) == member(sys, [1, 1, 1, 0, 0, 0])


def test_greedy_max_basis_refuses_weights_that_are_not_rational():
    with pytest.raises(errors.InvalidParams, match="is not a list of rational numbers$"):
        lm.greedy_max_basis(lm.mk4(), ["x"] * 6)
    # accepted weights are summed by their exact values
    assert lm.greedy_max_basis(lm.mk4(), [0.5] * 6) == (1.5, (0, 1, 2))
    assert lm.greedy_max_basis(lm.mk4(), [Fraction(1, 3)] * 6) == (1, (0, 1, 2))


def test_greedy_max_basis_reads_weights_as_exact_rationals(corpus):
    # int, Fraction and rational-string weights of one value give one scan:
    # the same basis, and the same total, an int for int weights only
    m = lm.mk4()
    assert lm.greedy_max_basis(m, ["1/2"] * 6) == (Fraction(3, 2), (0, 1, 2))
    assert lm.greedy_max_basis(m, ["1/3", "-2", "5/6", "0", "1/2", "1"]) == \
        (Fraction(7, 3), (2, 4, 5))
    rng = Random(2801)
    for m in corpus:
        for _ in range(10):
            w = [rng.randint(-8, 8) for _ in range(m.n)]
            value, basis = lm.greedy_max_basis(m, w)
            assert type(value) is int
            for scaled in ([Fraction(x, 6) for x in w], ["%d/6" % x for x in w]):
                assert lm.greedy_max_basis(m, scaled) == (Fraction(value, 6), basis), (m.name, w)


def test_lp_against_sympy_reference():
    # independent exact LP oracle on random small systems
    sympy = pytest.importorskip("sympy")
    from sympy import Rational, symbols
    from sympy.solvers.simplex import lpmax

    rng = Random(501)
    for trial in range(40):
        n = rng.randint(2, 4)
        xs = symbols("x0:%d" % n)
        rows = []
        cons = [x >= 0 for x in xs]  # sympy does not use symbol assumptions
        for _ in range(rng.randint(1, 4)):
            support = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            bound = rng.randint(0, 3)
            rows.append((support, "<=", bound))
            cons.append(sum(xs[i] for i in support) <= bound)
        for i in range(n):
            rows.append(((i,), "<=", 3))
            cons.append(xs[i] <= 3)
        w = [rng.randint(-3, 3) for _ in range(n)]

        from lockedmatroid.simplex import SimplexProgram, OPTIMAL
        constraints = []
        for support, rel, bound in rows:
            coeffs = [0] * n
            for i in support:
                coeffs[i] = 1
            constraints.append((coeffs, rel, bound))
        status, opt, point = SimplexProgram(n, constraints, nonneg=True).maximize(w)
        assert status == OPTIMAL
        ref_opt, _ = lpmax(sum(Rational(c) * x for c, x in zip(w, xs)), cons)
        assert Rational(opt.numerator, opt.denominator) == ref_opt, (trial, rows, w)


def test_sample_points_on_hyperplane():
    rng = Random(9)
    pts = sample_rational_points(5, 2, 50, rng)
    assert len(pts) == 50
    for p in pts:
        assert sum(p) == 2
        assert all(isinstance(c, Fraction) for c in p)


def _k5_edges():
    return tuple(itertools.combinations(range(5), 2))


def test_lp_maximize_pinned(corpus):
    # sha256 over lp_maximize's (value, point), with and without the unit
    # box, for 30 seeded integer weights on the corpus, U(5,10) and M(K5);
    # computed when the simplex still carried per-row denominators
    ms = list(corpus) + [lm.uniform(5, 10), lm.graphic(5, _k5_edges(), name="mk5")]
    h = hashlib.sha256()
    for m in ms:
        sys = system_for(m)
        rng = Random(m.name)
        for _ in range(30):
            w = [rng.randint(-10, 10) for _ in range(m.n)]
            for add_box in (True, False):
                out = lp_maximize(sys, w, add_box=add_box)
                h.update(repr((m.name, w, add_box, out)).encode("utf-8"))
    assert h.hexdigest() == "438152661c529f5750f313e15f8fce8e60f4055c01268b42db9f7fde77b2158e"


def test_integer_sampler_matches_the_fraction_sampler():
    # same points and the same generator state afterwards, over 240 seeds
    for seed in range(240):
        rng = Random(seed)
        n = rng.randint(1, 7)
        target, count = rng.randint(0, n), rng.randint(0, 6)
        mine, ref = Random(seed * 7919), Random(seed * 7919)
        assert sample_rational_points(n, target, count, mine) == \
            reference_sample_rational_points(n, target, count, ref)
        assert mine.getstate() == ref.getstate()
        ints = _sample_points(n, target, count, ref)
        assert [tuple(Fraction(a, d) for a in x) for x, d in ints] == \
            sample_rational_points(n, target, count, mine)
        assert mine.getstate() == ref.getstate()


def test_sampler_refuses_an_empty_ground_set():
    # the shift onto x(E) = target divides by n
    for n in (0, -1):
        with pytest.raises(errors.InvalidParams, match="at least one coordinate"):
            sample_rational_points(n, 0, 1, Random(1))


def test_sampler_refuses_a_size_that_is_not_an_int():
    for n in ("x", 2.0, None, (1, 2)):
        with pytest.raises(errors.InvalidParams, match="^sample points need at least one coordinate"):
            sample_rational_points(n, 1, 1, Random(1))


def test_sampler_refuses_a_count_that_is_not_a_nonnegative_int():
    for count in ("x", 2.0, None, -1):
        with pytest.raises(errors.InvalidParams, match="^count must be a nonnegative int"):
            sample_rational_points(2, 1, count, Random(1))


def test_sampler_refuses_a_generator_that_is_not_a_random():
    for rng in (None, 5, "x", Random):
        with pytest.raises(errors.InvalidParams, match="^rng .* is not a random.Random$"):
            sample_rational_points(6, 5, 1, rng)


def test_sampler_refuses_a_target_that_is_not_rational():
    for target in ("x", None, float("nan")):
        with pytest.raises(errors.InvalidParams, match="^target_sum .* is not a rational number$"):
            sample_rational_points(2, target, 1, Random(1))


def test_sampler_reads_the_target_as_an_exact_rational():
    # a rational target lands on its hyperplane, with integer numerators; an
    # integral Fraction, string or float target draws the int target's points
    for target in (Fraction(3, 2), "3/2", 0.5):
        for p in sample_rational_points(3, target, 20, Random(5)):
            assert sum(p) == Fraction(target)
    for target in (Fraction(2), "2", 2.0):
        rng, ref = Random(7), Random(7)
        assert sample_rational_points(4, target, 10, rng) == \
            reference_sample_rational_points(4, 2, 10, ref)
        assert rng.getstate() == ref.getstate()
    for (x, d), p in zip(_sample_points(3, Fraction(3, 2), 20, Random(5)),
                         reference_sample_rational_points(3, Fraction(3, 2), 20, Random(5))):
        assert all(isinstance(a, int) for a in x) and tuple(Fraction(a, d) for a in x) == p


def _edge_points(m, rng):
    """Points on and next to the bounds, over a denominator of at least
    2^200: a basis vector, the midpoint of two bases, a basis moved by one
    unit from one element to another, and a point far off the box with
    negative coordinates; each lies on x(E) = r(E)."""
    d = (1 << 200) + rng.randrange(1 << 200)
    b1, b2 = rng.choice(m.bases), rng.choice(m.bases)
    v1 = [d * (e in b1) for e in range(m.n)]
    v2 = [d * (e in b2) for e in range(m.n)]
    moved = list(v1)
    moved[rng.randrange(m.n)] += 1
    moved[rng.randrange(m.n)] -= 1
    far = [rng.randint(-3 * d, 3 * d) for _ in range(m.n - 1)]
    far.append(m.rank * d - sum(far))
    return [(v1, d), ([a + b for a, b in zip(v1, v2)], 2 * d), (moved, d), (far, d)]


def _on_a_bound(sys, m, point):
    """Whether the point meets some row, or some x(A) <= r(A), with equality."""
    sums = {a: sum((point[e] for e in range(m.n) if a >> e & 1), Fraction(0))
            for a in range(1, 1 << m.n)}
    ranks = m._rank_table()
    return (any(sums[a] == ranks[a] for a in sums if a != (1 << m.n) - 1)
            or any(row.support and sums[_bits.mask_of(row.support)] == row.bound
                   for row in sys.rows if row.rel != "=="))


def test_integer_cores_match_the_fraction_oracles(corpus):
    # _member, member_Q's one-point lane pass and the batched lane kernel on the sampler's
    # (numerators, denominator) pairs, about a third of which leave the unit
    # box, and on points on and next to the bounds over denominators of at
    # least 2^200, some far off the box with negative coordinates; on odd
    # seeds one row's bound is lowered, so that P and Q differ
    small = [m for m in corpus if m.n <= 6]
    seen = {"outside box": 0, "negative": 0, "in Q": 0, "in P": 0, "on a bound": 0,
            "huge denominator": 0, "Q but not P": 0}
    for seed in range(200):
        rng = Random(seed)
        m = small[seed % len(small)]
        sys = system_for(m)
        if seed % 2:
            sys = _lowered(sys, rng.randrange(len(sys.rows)))
        batch = _sample_points(m.n, m.rank, 3, rng) + _edge_points(m, rng)
        want_p, want_q = [], []
        for x, d in batch:
            point = tuple(Fraction(a, d) for a in x)
            in_p = _member(sys, x, d)
            assert in_p == fraction_member(sys, point), (m.name, point)
            in_q = member_Q(m, point)
            assert in_q == fraction_member_Q(m, point), (m.name, point)
            want_p.append(not in_p[0])
            want_q.append(not in_q)
            seen["outside box"] += any(c < 0 or c > 1 for c in point)
            seen["negative"] += any(c < 0 for c in point)
            seen["in Q"] += in_q
            seen["in P"] += in_p[0]
            seen["on a bound"] += _on_a_bound(sys, m, point)
            seen["huge denominator"] += d >= 1 << 200
            seen["Q but not P"] += in_q and not in_p[0]
        assert _lane_misses(m, sys.rows, batch) == (bytes(want_p), bytes(want_q)), m.name
        assert _pq_disagreements(sys, m, batch) == sum(map(int.__ne__, want_p, want_q))
    assert min(seen.values()) > 50, seen


def test_lanes_hold_the_extreme_sums(corpus):
    # a lane is the bit length of the bound on every |v| compared, plus a sign
    # bit, in whole bytes; at bit lengths of whole bytes, coordinates of
    # -x and +x, or a row bound of 2^bits - 7 on 0/1 points, fill a lane but
    # for its sign bit, so a lane one bit narrower would borrow from its
    # neighbour
    m = next(m for m in corpus if m.name == "uniform(3,6)")
    inside = ((1, 1, 1, 0, 0, 0), 1)
    for bits in (8, 16, 64, 200):
        x = ((1 << bits) - 7) // m.n  # n * x + n * d < 2^bits <= 2 * (n * x - r)
        far = LinearSystem(m.n, (Row((0,), ">=", (1 << bits) - 7, "x"),))
        for sys in (system_for(m), far):
            for batch in ([((-x,) * 6, 1), inside, ((x,) * 6, 1), inside],
                          [inside, ((x, -x) * 3, 1), inside], [inside, ((0, 1, 1, 1, 0, 0), 1)]):
                want = (bytes(not fraction_member(sys, [Fraction(a, d) for a in p])[0]
                              for p, d in batch),
                        bytes(not fraction_member_Q(m, [Fraction(a, d) for a in p])
                              for p, d in batch))
                assert _lane_misses(m, sys.rows, batch) == want, (bits, batch)


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 1000])
def test_pq_disagreements_match_the_per_point_scan(corpus, count):
    # across batch boundaries (256 points a batch at n = 6, 1024 at n = 4):
    # the count of points in exactly one of P and Q, point by point
    for name in ("mk4", "uniform(2,4)", "p6"):
        m = next(m for m in corpus if m.name == name)
        sys = system_for(m)
        pts = _sample_points(m.n, m.rank, count, Random(count))
        want = sum(1 for x, d in pts
                   if fraction_member(sys, [Fraction(a, d) for a in x])[0]
                   != fraction_member_Q(m, [Fraction(a, d) for a in x]))
        assert _pq_disagreements(sys, m, pts) == want, (name, count)
    # a system whose first row is lowered disagrees with Q on some points
    m = next(m for m in corpus if m.name == "mk4")
    low = _lowered(system_for(m), 1)
    pts = _sample_points(m.n, m.rank, count, Random(count))
    want = sum(1 for x, d in pts
               if _member(low, x, d)[0] != member_Q(m, [Fraction(a, d) for a in x]))
    assert _pq_disagreements(low, m, pts) == want
    assert count < 200 or want > 0


def test_lp_maximize_matches_the_reference(corpus):
    # the same optimum and witness, or the same exception, as lp_maximize on
    # the simplex that divided every row by its gcd, on every corpus and
    # stress-tier system and a sparse paving one, with and without the box
    systems = [system_for(m) for m in corpus]
    systems += [system_for(build()) for build in STRESS_TIER.values()]
    systems.append(system_for(sparse_paving(12, 6, 1)))
    # U(1,3)'s x(E) = 1 with x(0) >= 0 is unbounded without the box, and
    # with x(0) >= 2 it is infeasible inside the box
    eq1 = systems[0].rows[:1]
    systems += [LinearSystem(3, eq1 + (Row((0,), ">=", b, "box"),)) for b in (0, 2)]
    rng = Random(23)
    outcomes = set()
    for sys in systems:
        for _ in range(3):
            w = [rng.randint(-10, 10) for _ in range(sys.dimension)]
            w[rng.randrange(sys.dimension)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for add_box in (True, False):
                try:
                    got = lp_maximize(sys, w, add_box=add_box)
                except errors.LockedMatroidError as exc:
                    with pytest.raises(type(exc)):
                        reference_lp_maximize(sys, w, add_box=add_box)
                    outcomes.add(type(exc).__name__)
                    continue
                assert got == reference_lp_maximize(sys, w, add_box=add_box), (sys.dimension, w)
                assert all(type(v) is Fraction for v in (got[0],) + got[1])
                outcomes.add("optimal")
    assert outcomes == {"optimal", "Unbounded", "Infeasible"}


def test_lp_maximize_is_the_fraction_view_of_the_integer_core(corpus):
    # on the battery of test_lp_maximize_matches_the_reference: the same
    # optimum and witness as (num, den) and (numerators, d) pairs over
    # positive denominators, or an exception of the same type
    systems = [system_for(m) for m in corpus]
    systems += [system_for(build()) for build in STRESS_TIER.values()]
    systems.append(system_for(sparse_paving(12, 6, 1)))
    eq1 = systems[0].rows[:1]
    systems += [LinearSystem(3, eq1 + (Row((0,), ">=", b, "box"),)) for b in (0, 2)]
    rng = Random(23)
    outcomes = set()
    for sys in systems:
        for _ in range(3):
            w = [rng.randint(-10, 10) for _ in range(sys.dimension)]
            w[rng.randrange(sys.dimension)] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            ints, scale = _integral(w)
            for add_box in (True, False):
                try:
                    got = lp_maximize(sys, w, add_box=add_box)
                except errors.LockedMatroidError as exc:
                    with pytest.raises(errors.LockedMatroidError) as core:
                        _lp_maximize(sys, _program(sys, add_box), ints)
                    assert type(core.value) is type(exc)
                    outcomes.add(type(exc).__name__)
                    continue
                (num, den), (x, d) = _lp_maximize(sys, _program(sys, add_box), ints)
                assert den > 0 and d > 0 and len(x) == sys.dimension
                assert got == (Fraction(num, den * scale), tuple(Fraction(a, d) for a in x))
                outcomes.add("optimal")
    assert outcomes == {"optimal", "Unbounded", "Infeasible"}


def test_a_system_refuses_rows_its_readers_cannot_read():
    # a repeated or out-of-range support element, a list, or a bound that is
    # not an int used to be read three ways by member, zero_one_vertices and
    # lp_maximize; the system refuses them when it is built
    for build in (lambda: LinearSystem(2, (Row((0, 0), "<=", 1, "x"),)),
                  lambda: LinearSystem(2, (Row([0, 1], "<=", 1, "x"),)),
                  lambda: LinearSystem(2, (Row(0, "<=", 1, "x"),)),
                  lambda: LinearSystem(2, (Row((0, 1.0), "<=", 1, "x"),)),
                  lambda: LinearSystem(2, (Row(("0",), "<=", 1, "x"),))):
        with pytest.raises(errors.InvalidParams, match="^row support must be a tuple of "
                                                       "distinct ints, got "):
            build()
    for bound in (0.5, Fraction(1, 2), Fraction(1), "1", None):
        with pytest.raises(errors.InvalidParams, match="^row bound must be an int, got "):
            LinearSystem(2, (Row((0, 1), "<=", bound, "x"),))
    row = Row((0, 1), "<=", 1, "x")
    for rows in ([row], (row, "x"), None, row):
        with pytest.raises(errors.InvalidParams, match="^rows must be a tuple of Row, got "):
            LinearSystem(2, rows)
    for n in (-1, 2.0, "3", None):
        with pytest.raises(errors.InvalidParams, match="^dimension must be a nonnegative int"):
            LinearSystem(n, ())
    for support, n in (((0, 2), 2), ((-1,), 2), ((0,), 0), ((5, 0), 3)):
        with pytest.raises(errors.OutOfRange, match="^row support element -?\\d+ not in 0\\.\\.%d$"
                                                    % (n - 1)):
            LinearSystem(n, (Row(support, "<=", 1, "x"),))
    # what the readers read stays readable, an empty support included
    sys = LinearSystem(3, (Row((), "<=", 0, "x"), Row((2, 0), ">=", -1, "x"), row))
    assert lm.member(sys, (1, 0, 1)) == (True, None)
    assert lm.zero_one_vertices(sys, 1) == ((0,), (1,), (2,))
    assert lm.lp_maximize(sys, (1, 1, 1))[0] == 2


def test_a_system_is_hashed_and_compiled_from_its_rows():
    # the dataclass hash reads the rows, so an equal system shares the LP
    # cache and an edited copy is checked against its own rows
    sys = system_for(lm.mk4())
    twin = LinearSystem(sys.dimension, tuple(sys.rows))
    assert twin == sys and hash(twin) == hash(sys) == hash((sys.dimension, sys.rows))
    assert _program(sys, True) is _program(twin, True)
    basis = [1, 1, 1, 0, 0, 0]
    assert _member(sys, basis, 1) == (True, None)
    row = sys.rows[0]
    low = dataclasses.replace(sys, rows=(dataclasses.replace(row, bound=2),) + sys.rows[1:])
    assert low != sys and _member(low, basis, 1) == (False, low.rows[0])
    assert _member(sys, basis, 1) == (True, None)


def test_row_refuses_an_unknown_relation():
    # a system holding such a row used to be built, and lp_maximize and
    # member read past the row as if it were not there
    with pytest.raises(errors.InvalidParams, match="^unknown constraint relation '<'$"):
        LinearSystem(2, (Row((0, 1), "<", 1, "x"),))
    for rel, top in (("<=", 1), (">=", 2), ("==", 1)):
        sys = LinearSystem(2, (Row((0, 1), rel, 1, "x"),))
        assert lm.member(sys, (1, 0))[0]
        assert lm.lp_maximize(sys, (1, 1))[0] == top
