import hashlib
import itertools
from fractions import Fraction
from random import Random

import pytest

import lockedmatroid as lm
from lockedmatroid import errors
from lockedmatroid.polytope import build_P, lp_maximize, member, member_Q, sample_rational_points
from helpers import exhaustive_max_basis, fraction_member, fraction_member_Q


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
    for m in corpus:
        sys = system_for(m)
        assert lm.zero_one_vertices(sys, m.rank) == m.bases, m.name


def test_vertices_u24():
    sys = system_for(lm.uniform(2, 4))
    assert lm.zero_one_vertices(sys, 2) == tuple(itertools.combinations(range(4), 2))


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


def test_lp_infeasible_and_unbounded():
    from lockedmatroid.polytope import LinearSystem, Row
    bad = LinearSystem(2, (Row((0,), ">=", 2, "locked"), Row((0,), "<=", 1, "box")))
    with pytest.raises(errors.Infeasible):
        lm.lp_maximize(bad, [1, 0], add_box=False)
    free = LinearSystem(2, (Row((0,), "<=", 1, "parallel"),))
    with pytest.raises(errors.Unbounded):
        lm.lp_maximize(free, [0, 1], add_box=False)


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
