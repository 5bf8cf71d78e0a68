import itertools
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import lockedmatroid as lm
from lockedmatroid import errors
from lockedmatroid._bits import bits_of, mask_of
from lockedmatroid.matroid import (GroundSet, Matroid, _check_exchange, components,
                                   is_cyclic_flat, separator)
from helpers import (naive_connected, naive_dual_bases, naive_is_cyclic_flat,
                     naive_minor_connected, naive_rank, shuffled_direct_sum, spanning_trees)

K4_EDGES = ((0, 2), (0, 1), (0, 3), (1, 2), (1, 3), (2, 3))


# -- from_bases ------------------------------------------------------------

def test_from_bases_u24():
    m = lm.from_bases(4, itertools.combinations(range(4), 2))
    assert m.rank == 2
    assert len(m.bases) == 6
    assert m == lm.uniform(2, 4)


def test_from_bases_rank_one():
    m = lm.from_bases(2, [(0,), (1,)])
    assert m.rank == 1 and len(m.bases) == 2


def test_from_bases_unequal_cardinality():
    with pytest.raises(errors.UnequalCardinality):
        lm.from_bases(3, [(0, 1), (2,)])


def test_from_bases_empty():
    with pytest.raises(errors.EmptyBases):
        lm.from_bases(3, [])


def test_from_bases_exchange_violation():
    # {{0,1},{2,3}} is not a matroid: no exchange between disjoint pairs
    with pytest.raises(errors.ExchangeViolation) as exc:
        lm.from_bases(4, [(0, 1), (2, 3)])
    assert exc.value.element in (0, 1, 2, 3)


def test_from_bases_out_of_range():
    with pytest.raises(errors.OutOfRange):
        lm.from_bases(3, [(0, 3)])


def _verdict(check):
    """None when check() passes, else the (B1, B2, e) it raises."""
    try:
        check()
    except errors.ExchangeViolation as exc:
        return exc.basis1, exc.basis2, exc.element
    return None


def _assert_same_verdict(n, family):
    # the old from_bases scanned the masks in integer order
    masks = sorted({mask_of(b) for b in family})
    expected = _verdict(lambda: _check_exchange(masks, set(masks)))
    assert _verdict(lambda: lm.from_bases(n, family)) == expected, (n, family)
    # the old validate() scanned them in canonical (lexicographic) order
    m = Matroid(GroundSet.default(n), masks)
    lex = m._basis_masks
    assert _verdict(m.validate) == _verdict(lambda: _check_exchange(lex, set(lex))), (n, family)
    return expected is None


def test_from_bases_agrees_with_exchange_scan_on_small_families():
    accepted = rejected = 0
    for n in range(1, 7):
        for r in range(n + 1):
            if comb(n, r) > 10:
                continue
            subsets = list(itertools.combinations(range(n), r))
            for k in range(1, len(subsets) + 1):
                for family in itertools.combinations(subsets, k):
                    if _assert_same_verdict(n, family):
                        accepted += 1
                    else:
                        rejected += 1
    assert (accepted, rejected) == (625, 1731)


def test_from_bases_agrees_with_exchange_scan_on_random_families():
    rng = Random(20171010)
    verdicts = set()
    for n, r in ((6, 2), (6, 3), (7, 3), (7, 4)):
        subsets = list(itertools.combinations(range(n), r))
        for i in range(150):
            if i % 2:  # near U(r, n): a few bases removed
                drop = set(rng.sample(subsets, rng.randint(1, 4)))
                family = [b for b in subsets if b not in drop]
            else:
                p = rng.random()
                family = [b for b in subsets if rng.random() < p] or subsets[:1]
            verdicts.add(_assert_same_verdict(n, family))
    assert verdicts == {True, False}


def test_from_bases_size_guard():
    assert lm.MAX_N == 16
    with pytest.raises(errors.TooLarge):
        lm.from_bases(17, [(0,), (16,)])
    with pytest.raises(errors.TooLarge):
        lm.uniform(1, 17)
    m = Matroid(GroundSet.default(17), [1, 1 << 16])
    with pytest.raises(errors.TooLarge):
        m.validate()
    assert m._ranks is None  # refused before any 2^n table


def test_size_guard_reads_no_basis():
    def bases():
        raise AssertionError("a basis was read")
        yield (0,)

    with pytest.raises(errors.TooLarge):
        lm.from_bases(22, bases())
    with pytest.raises(errors.TooLarge):
        lm.uniform(10, 20)  # C(20, 10) = 184,756 bases, none enumerated
    k10 = tuple(itertools.combinations(range(10), 2))
    with pytest.raises(errors.TooLarge):
        lm.graphic(10, k10)  # 45 edges; C(45, 9) edge subsets, none scanned


def test_graphic_connectivity_matches_search():
    # a multigraph is connected exactly when some edge subset is a spanning
    # tree: graphic's DisconnectedGraph must agree with a reachability search
    rng = Random(7)
    for _ in range(300):
        nv = rng.randint(1, 6)
        edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(1, 9))]
        reach, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for (u, v) in edges:
                for a, b in ((u, v), (v, u)):
                    if a == x and b not in reach:
                        reach.add(b)
                        frontier.append(b)
        try:
            m = lm.graphic(nv, edges)
        except errors.DisconnectedGraph as exc:
            assert len(reach) < nv and str(exc) == "input graph is not connected"
        else:
            assert len(reach) == nv
            assert set(m.bases) == set(spanning_trees(nv, edges))


def test_rank_zero_matroid():
    m = lm.uniform(0, 3)
    assert m.rank == 0
    assert m.bases == ((),)


# -- catalog ------------------------------------------------------------------

def test_mk4_matches_spanning_tree_enumeration():
    trees = spanning_trees(4, K4_EDGES)
    assert len(trees) == 16
    m = lm.mk4()
    assert m.bases == tuple(sorted(trees))
    assert m.rank == 3 and m.n == 6
    assert m.names == ("a", "b", "c", "d", "e", "f")


def test_vamos_counts():
    m = lm.vamos()
    assert m.n == 8 and m.rank == 4
    assert len(m.bases) == 65
    m.validate()


def test_whirl3_is_mk4_plus_rim():
    w = lm.whirl3()
    assert len(w.bases) == 17
    assert (3, 4, 5) in w.bases
    assert set(lm.mk4().bases) < set(w.bases)


def test_q6_p6_nonbasis_counts():
    # regression: number of non-basis 3-sets, from the construction
    assert 20 - len(lm.q6().bases) == 2
    assert 20 - len(lm.p6().bases) == 1
    for m in (lm.q6(), lm.p6()):
        assert m.rank == 3 and lm.is_connected(m)
        m.validate()


def test_q6_p6_relaxation_chain():
    # whirl3 -> q6 -> p6 -> U(3,6) by successive circuit-hyperplane relaxations
    w = lm.whirl3()
    nb = [b for b in itertools.combinations(range(6), 3) if b not in set(w.bases)]
    q = lm.relax(w, nb[0])
    assert lm.mip_bruteforce(q, lm.q6()).answer
    nb = [b for b in itertools.combinations(range(6), 3) if b not in set(q.bases)]
    p = lm.relax(q, nb[0])
    assert lm.mip_bruteforce(p, lm.p6()).answer
    nb = [b for b in itertools.combinations(range(6), 3) if b not in set(p.bases)]
    u = lm.relax(p, nb[0])
    assert u == lm.uniform(3, 6, name=u.name) or len(u.bases) == 20



def test_relax_refuses_every_basis(corpus):
    # relax asks the rank table whether the set is a basis
    for m in corpus:
        for b in m.bases:
            with pytest.raises(errors.InvalidParams, match="set is already a basis"):
                lm.relax(m, b)

def test_catalog_dispatch():
    assert lm.catalog("uniform", 0, 3).rank == 0
    assert lm.catalog("mk4") == lm.mk4()
    with pytest.raises(errors.UnknownName):
        lm.catalog("nope")
    with pytest.raises(errors.InvalidParams):
        lm.catalog("uniform", 4, 3)
    with pytest.raises(errors.DisconnectedGraph):
        lm.catalog("graphic", 4, ((0, 1), (2, 3)))


# -- rank ------------------------------------------------------------------------

def test_rank_examples():
    u = lm.uniform(2, 4)
    assert u.rank_of((0, 1, 2)) == 2
    assert u.rank_of(()) == 0
    mk4 = lm.mk4()
    assert mk4.rank_of((0, 1, 3)) == 2  # a triangle
    with pytest.raises(errors.OutOfRange):
        u.rank_of((7,))


def test_rank_table_matches_naive(corpus):
    for m in corpus:
        if m.n > 7:
            continue
        ranks = m._rank_table()
        for k in range(m.n + 1):
            for comb in itertools.combinations(range(m.n), k):
                assert ranks[sum(1 << e for e in comb)] == naive_rank(m.bases, comb)


def test_is_independent_matches_bases(corpus):
    for m in corpus:
        fresh = Matroid(m.ground, m._basis_masks)  # no rank table yet
        for x in range(1 << m.n):
            want = any(x & ~b == 0 for b in m._basis_masks)
            assert fresh.is_independent(bits_of(x)) == want, (m.name, x)


def test_rank_monotone_submodular(corpus):
    for m in corpus:
        if m.n > 6:
            continue
        ranks = m._rank_table()
        size = 1 << m.n
        for x in range(size):
            for y in range(size):
                assert ranks[x | y] + ranks[x & y] <= ranks[x] + ranks[y]
                if x & ~y == 0:
                    assert ranks[x] <= ranks[y]


# -- dual ----------------------------------------------------------------------

def test_dual_examples():
    u = lm.uniform(2, 4)
    assert u.dual() == u  # complements of 2-subsets of a 4-set
    assert lm.mk4().dual().rank == 3
    v = lm.vamos()
    assert v.dual().dual() == v


def test_dual_rank_formula(corpus):
    for m in corpus:
        if m.n > 7:
            continue
        d = m.dual()
        for k in range(m.n + 1):
            for comb in itertools.combinations(range(m.n), k):
                rest = tuple(e for e in range(m.n) if e not in comb)
                assert d.rank_of(comb) == m.rank_of(rest) + len(comb) - m.rank


def test_dual_bases_naive(corpus):
    for m in corpus:
        assert set(m.dual().bases) == set(naive_dual_bases(m.n, m.bases))


# -- minors -----------------------------------------------------------------------

def test_minor_examples():
    u = lm.uniform(2, 4)
    assert lm.minor(u, delete=(3,)) == lm.uniform(2, 3)
    # restriction of mk4 to a triangle: rank 2, all 2-subsets are bases
    r = lm.restriction(lm.mk4(), (0, 1, 3))
    assert r.n == 3 and r.rank == 2
    assert r.bases == ((0, 1), (0, 2), (1, 2))
    assert r.index_map == {0: 0, 1: 1, 3: 2}
    assert lm.minor(u) == u


def test_minor_errors():
    u = lm.uniform(2, 4)
    with pytest.raises(errors.OverlappingSets):
        lm.minor(u, delete=(0,), contract=(0,))
    with pytest.raises(errors.EmptyResult):
        lm.minor(u, delete=(0, 1), contract=(2, 3))


def test_minor_contraction_against_naive():
    m = lm.mk4()
    c = lm.minor(m, contract=(0,))
    assert c.n == 5 and c.rank == 2
    c.validate()
    # contracting an edge of K4 merges two vertices: a multigraph on 3 vertices
    assert lm.is_connected(c)


# -- connectivity ---------------------------------------------------------------

def test_is_connected_examples(corpus):
    assert lm.is_connected(lm.uniform(2, 4))
    assert lm.is_connected(lm.mk4())
    for m in corpus:
        assert lm.is_connected(m) == naive_connected(m.n, m.bases)


def test_separator_matches_minor_definition(corpus):
    # every disjoint pair (X, C): element e is outside both, in X or in C
    for m in corpus:
        if m.n > 6:
            continue
        ranks = m._rank_table()
        for place in itertools.product(range(3), repeat=m.n):
            xs = [e for e in range(m.n) if place[e] == 1]
            cs = [e for e in range(m.n) if place[e] == 2]
            x, c = mask_of(xs), mask_of(cs)
            a = separator(ranks, x, c)
            assert (a is None) == naive_minor_connected(m.bases, xs, cs), (m.name, xs, cs)
            if a is not None:
                part = [e for e in xs if a >> e & 1]
                rest = [e for e in xs if not a >> e & 1]
                assert part[0] == xs[0] and rest, (m.name, xs, cs)
                assert (naive_rank(m.bases, part + cs) + naive_rank(m.bases, rest + cs)
                        == naive_rank(m.bases, xs + cs) + naive_rank(m.bases, cs))


def test_is_cyclic_flat_matches_definition(corpus):
    # every subset of every component of every corpus matroid, its dual and
    # a shuffled direct sum of three parts
    u12 = (2, [(0,), (1,)])
    parts = (u12, (4, list(itertools.combinations(range(4), 2))), (6, list(lm.mk4().bases)))
    ms = [m for c in corpus for m in (c, c.dual())]
    ms.append(lm.from_bases(*shuffled_direct_sum(parts, Random(3))))
    for m in ms:
        ranks = m._rank_table()
        for comp in components(ranks, m.full_mask):
            ground = bits_of(comp)
            for k in range(len(ground) + 1):
                for sub in itertools.combinations(ground, k):
                    assert (is_cyclic_flat(ranks, comp, mask_of(sub))
                            == naive_is_cyclic_flat(m.bases, ground, sub)), (m.name, sub)


def _first_separator(m):
    full = set(range(m.n))
    for k in range(1, m.n):
        for a in itertools.combinations(range(m.n), k):
            if naive_rank(m.bases, a) + naive_rank(m.bases, full - set(a)) == m.rank:
                return a
    return None


def test_disconnected_witness():
    # direct sum of two rank-1 two-element matroids
    m = lm.from_bases(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    sep = lm.find_separator(m)
    assert sep == (0, 1)
    assert not lm.is_connected(m)
    # loops, coloops and three or more components, against the first
    # (cardinality, lex) separator found by brute force
    loop, coloop = (1, [()]), (1, [(0,)])
    u12, u13, u24 = ((n, list(itertools.combinations(range(n), r)))
                     for r, n in ((1, 2), (1, 3), (2, 4)))
    k4 = (6, list(lm.mk4().bases))
    sums = [(loop, coloop), (loop, loop, u13), (coloop, u12, u13), (u12, u12, u13),
            (u13, u24, loop), (u12, k4), (k4, loop, coloop), (u24, u13, u12),
            (u12, u12, u12, u12), (u13, coloop, u24), (loop, coloop, u12, u13)]
    rng = Random(11)
    for parts in sums:
        for _ in range(4):
            m = lm.from_bases(*shuffled_direct_sum(parts, rng))
            assert lm.find_separator(m) == _first_separator(m), (parts, m.bases)
            assert not lm.is_connected(m)


# -- closures ----------------------------------------------------------------------

def test_closures_examples():
    p, s = lm.closures(lm.mk4())
    assert len(p) == 6 and len(s) == 6
    assert all(len(x) == 1 for x in p + s)
    p, s = lm.closures(lm.uniform(1, 3))
    assert p == ((0, 1, 2),)
    assert s == ((0,), (1,), (2,))
    p, s = lm.closures(lm.uniform(2, 3))
    assert p == ((0,), (1,), (2,))
    assert s == ((0, 1, 2),)


def test_closures_reject_loops_coloops():
    with pytest.raises(errors.LoopPresent):
        lm.closures(lm.uniform(0, 3))
    with pytest.raises(errors.ColoopPresent):
        lm.closures(lm.uniform(3, 3))


def test_closures_partition_and_l3(corpus):
    for m in corpus:
        p, s = lm.closures(m)
        for fam in (p, s):
            elems = sorted(e for x in fam for e in x)
            assert elems == list(range(m.n))
        for x in p:
            for y in s:
                if set(x) & set(y):
                    assert len(x) == 1 or len(y) == 1


# -- 2-sums ---------------------------------------------------------------------------

def test_two_sum_sizes():
    a = lm.uniform(2, 4)
    b = lm.uniform(2, 4, prefix="f")
    t = lm.two_sum(a, b, 0, 0)
    assert t.n == 6 and t.rank == 3
    assert lm.is_connected(t)
    t.validate()


def test_two_sum_side_rank():
    a = lm.uniform(2, 4)
    b = lm.uniform(2, 4, prefix="f")
    t = lm.two_sum(a, b, 3, 0)
    left = lm.restriction(t, (0, 1, 2))
    assert left.rank == a.rank


def test_two_sum_errors():
    with pytest.raises(errors.TooSmall):
        lm.two_sum(lm.uniform(1, 2), lm.uniform(2, 4), 0, 0)
    disc = lm.from_bases(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(errors.Disconnected):
        lm.two_sum(disc, lm.uniform(2, 4), 0, 0)
    loopy = lm.from_bases(3, [(0, 1)])  # 2 is a loop
    with pytest.raises(errors.BasepointIsLoopOrColoop):
        lm.two_sum(loopy, lm.uniform(2, 4), 2, 0)


def test_two_sum_name_collision_resolved():
    a = lm.uniform(2, 4)
    t = lm.two_sum(a, a, 0, 0)
    assert len(set(t.names)) == t.n


# -- relabel / validate ---------------------------------------------------------------

def test_relabel_roundtrip():
    m = lm.mk4()
    perm = [3, 0, 5, 1, 4, 2]
    r = lm.relabel(m, perm)
    inv = [0] * 6
    for i, p in enumerate(perm):
        inv[p] = i
    assert lm.relabel(r, inv) == lm.with_names(m, m.names)


def test_corpus_validates(corpus):
    for m in corpus:
        m.validate()


# -- text format ------------------------------------------------------------------------

def test_text_roundtrip(corpus):
    for m in corpus:
        again = lm.from_text(lm.to_text(m))
        assert again == m and again.name == m.name


def test_text_reader_canonicalizes():
    text = "matroid x\nelements a,b,c\nbasis c b\nbasis b a\nbasis c a\n"
    m = lm.from_text(text)
    assert m.bases == ((0, 1), (0, 2), (1, 2))
    assert lm.to_text(m) == "matroid x\nelements a,b,c\nbasis a b\nbasis a c\nbasis b c\n"


_NAME = st.sampled_from(("a", "b", "c", "d", "e", "f", "g", "h", "\u00e9", "", "x y"))


@st.composite
def _matroid_files(draw):
    """Equicardinal basis lines over a few names; one in four files gets
    one foreign line: a basis of another size, an unknown element or junk."""
    names = draw(st.lists(_NAME, min_size=1, max_size=6, unique=True))
    r = draw(st.integers(0, len(names)))
    bases = draw(st.lists(st.lists(st.sampled_from(names), min_size=r, max_size=r, unique=True),
                          min_size=1, max_size=12))
    lines = ["matroid " + draw(st.text(max_size=4)), "elements " + ",".join(names)]
    lines += [" ".join(["basis", *b]) for b in bases]
    if draw(st.integers(0, 3)) == 0:
        foreign = st.one_of(
            st.lists(st.sampled_from(names), max_size=len(names)).map(
                lambda b: " ".join(["basis", *b])),
            st.just("basis zz"),
            st.text(max_size=8))
        lines.insert(draw(st.integers(0, len(lines))), draw(foreign))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_matroid_files(), st.text(max_size=40)))
def test_from_text_fuzz_returns_matroid_or_package_error(text):
    try:
        m = lm.from_text(text)
    except errors.LockedMatroidError:
        return
    assert isinstance(m, lm.Matroid)
    assert lm.from_text(lm.to_text(m)) == m


def test_text_reader_errors():
    with pytest.raises(errors.FormatError):
        lm.from_text("nope\n")
    with pytest.raises(errors.FormatError):
        lm.from_text("matroid x\nelements a,b\nbasis q\n")


def test_save_load_bit_exact(tmp_path, corpus):
    for m in corpus[:4]:
        path = tmp_path / (m.name.replace("(", "_").replace(")", "_") + ".matroid")
        lm.save(m, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert lm.load(path) == m
