import itertools
import os
import re
import tracemalloc
from collections import Counter
from math import comb
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import lockedmatroid as lm
from lockedmatroid import _bits, errors
from lockedmatroid._bits import bits_of, lane_constants, mask_of
from lockedmatroid.matroid import (GroundSet, Matroid, _check_exchange, _locally_submodular,
                                   _rank_steps, cyclic_flats)
from helpers import (basis_scan_coloops, basis_scan_loops, components, is_cyclic_flat,
                     naive_connected, naive_dual_bases, naive_is_cyclic_flat,
                     naive_minor_connected, naive_rank, reference_bits_of, reference_closures,
                     reference_locally_submodular, reference_rank_steps, reference_rank_table,
                     reference_two_sum,
                     separator, shuffled_direct_sum, spanning_trees)
from test_stress_tier import STRESS_TIER, _mk4_chain

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


@pytest.mark.parametrize("n", [3.0, "3", None, 17.0])
def test_from_bases_refuses_a_count_that_is_not_an_int(n):
    # refused before the size cap, so 17.0 is InvalidParams, not TooLarge
    with pytest.raises(errors.InvalidParams, match="^ground set size .* is not an int$"):
        lm.from_bases(n, [(0, 1)])


def test_from_bases_refuses_a_basis_that_is_not_a_collection():
    with pytest.raises(errors.InvalidParams, match="^basis 1 is not a collection$"):
        lm.from_bases(3, [1, 2])
    with pytest.raises(errors.InvalidParams, match="^basis list 3 is not a collection$"):
        lm.from_bases(3, 3)
    with pytest.raises(errors.TooLarge):  # the size cap still comes first
        lm.from_bases(17, [1, 2])


def test_from_bases_refuses_names_that_are_not_a_collection():
    with pytest.raises(errors.InvalidParams, match="^names 5 is not a collection$"):
        lm.from_bases(3, [(0, 1)], names=5)
    with pytest.raises(errors.InvalidParams, match="^bad element name 1$"):
        lm.from_bases(2, [(0,)], names=[1, 2])
    with pytest.raises(errors.TooLarge):
        lm.from_bases(17, [(0,)], names=5)


def test_with_names_refuses_names_that_are_not_a_collection():
    with pytest.raises(errors.InvalidParams, match="^names 5 is not a collection$"):
        lm.with_names(lm.mk4(), 5)


def test_from_bases_refuses_a_name_that_is_not_a_string():
    for name in (5, None):
        with pytest.raises(errors.InvalidParams, match="^matroid name %r is not a string$" % name):
            lm.from_bases(2, [(0,)], name=name)


def test_from_bases_refuses_a_name_that_holds_a_line_break():
    # the name is written on the header line, and load reads "\r" as a line
    # break too, so it would refuse the file
    for name in ("a b\nc", "\n", "a\rb"):
        with pytest.raises(errors.InvalidParams,
                           match="^matroid name %s holds a line break$" % re.escape(repr(name))):
            lm.from_bases(2, [(0,)], name=name)


def test_a_name_with_inner_spaces_round_trips(tmp_path):
    path = tmp_path / "m.matroid"
    lm.save(lm.from_bases(2, [(0,)], name="a b  c"), path)
    assert lm.load(path).name == "a b  c"


def test_from_bases_refuses_a_name_with_leading_or_trailing_whitespace(tmp_path):
    # load strips the name on the header line, so it would come back changed
    for name in (" a", "a ", "\ta b", " ", "a b\x0c"):
        with pytest.raises(errors.InvalidParams,
                           match="^matroid name %s has leading or trailing whitespace$"
                           % re.escape(repr(name))):
            lm.from_bases(2, [(0,)], name=name)
    with pytest.raises(errors.InvalidParams, match="leading or trailing whitespace"):
        lm.with_names(lm.mk4(), "uvwxyz", name="x ")
    path = tmp_path / "m.matroid"
    for name in ("a\tb", "", "dual(a b)"):
        lm.save(lm.from_bases(2, [(0,)], name=name), path)
        assert lm.load(path).name == name


def test_with_names_refuses_a_name_that_is_not_a_string():
    with pytest.raises(errors.InvalidParams, match="^matroid name 5 is not a string$"):
        lm.with_names(lm.mk4(), "uvwxyz", name=5)
    assert lm.with_names(lm.mk4(), "uvwxyz", name=None).dual().name == "dual(mk4)"


def test_relax_refuses_a_name_that_is_not_a_string():
    with pytest.raises(errors.InvalidParams, match="^matroid name 5 is not a string$"):
        lm.relax(lm.mk4(), (3, 4, 5), name=5)
    assert lm.relax(lm.mk4(), (3, 4, 5), name=None).dual().name == "dual(relax(mk4))"


def test_relabel_refuses_a_name_that_is_not_a_string():
    with pytest.raises(errors.InvalidParams, match="^matroid name 5 is not a string$"):
        lm.relabel(lm.mk4(), range(6), name=5)
    assert lm.relabel(lm.mk4(), range(6), name=None).name == "relabel(mk4)"


def test_from_bases_out_of_range():
    with pytest.raises(errors.OutOfRange):
        lm.from_bases(3, [(0, 3)])


@pytest.mark.parametrize("n, bases, again", [
    (3, [(0, 0, 1), (1, 2)], 0),  # collapsed to {0,1}, it made a rank-2 matroid
    (2, [(0, 0)], 0),  # collapsed to {0}, it made a rank-1 matroid with a loop
    (4, [(0, 1), (2, 3, 2), (0, 2)], 2),
    (3, [[1, 2], iter([2, 1, 1])], 1),
])
def test_from_bases_refuses_a_repeated_element(n, bases, again):
    with pytest.raises(errors.InvalidParams, match=r"^repeated element %d in basis \(" % again):
        lm.from_bases(n, bases)


def test_subset_readers_keep_set_semantics():
    # only a basis may not repeat an element; subsets read as sets
    m = lm.mk4()
    assert m.rank_of((0, 0, 1)) == m.rank_of((1, 0)) == 2
    assert m.is_independent([2, 2]) and m.is_independent((0, 1, 0, 1))


def _verdict(check):
    """None when check() passes, else the (B1, B2, e) it raises."""
    try:
        check()
    except errors.ExchangeViolation as exc:
        return exc.basis1, exc.basis2, exc.element
    return None


def _assert_same_verdict(n, family):
    # from_bases and validate() both scan the masks in integer order, so
    # they name the same triple
    masks = sorted({mask_of(b) for b in family})
    expected = _verdict(lambda: _check_exchange(masks, set(masks)))
    assert _verdict(lambda: lm.from_bases(n, family)) == expected, (n, family)
    m = Matroid(GroundSet.default(n), reversed(masks))
    assert _verdict(m.validate) == expected, (n, family)
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


# -- local submodularity on packed lanes ---------------------------------------

def _same_local_verdict(m):
    ranks = m._rank_table()
    verdict = _locally_submodular(ranks, m.n)
    assert verdict == reference_locally_submodular(ranks, m.n), m
    return verdict


def test_locally_submodular_matches_reference_on_seeded_families():
    rng = Random(18)
    rejected = 0
    while rejected < 2000:
        n = rng.randint(2, 10)
        r = rng.randint(1, n - 1)
        family = {mask_of(rng.sample(range(n), r)) for _ in range(rng.randint(2, 12))}
        if not _same_local_verdict(Matroid(GroundSet.default(n), family)):
            rejected += 1


@pytest.mark.parametrize("name", sorted(STRESS_TIER))
def test_locally_submodular_matches_reference_on_the_stress_tier(name):
    m = STRESS_TIER[name]()
    assert _same_local_verdict(Matroid(m.ground, m._basis_masks))


@pytest.mark.parametrize("name", ["mk6", "mk4chain3"])
def test_single_basis_flips_agree_with_reference(name):
    # drop one basis, or add one non-basis of the same size: every flip
    # (and the unflipped family) gets the reference verdict, and a rejected
    # one gets the same triple from validate() and from_bases
    m = STRESS_TIER[name]()
    rng = Random(name)
    masks = set(m._basis_masks)
    non_bases = [x for x in map(mask_of, itertools.combinations(range(m.n), m.rank))
                 if x not in masks]
    flips = ([masks] + [masks - {b} for b in rng.sample(sorted(masks), 2)]
             + [masks | {x} for x in rng.sample(non_bases, 2)])
    verdicts = set()
    for family in flips:
        flipped = Matroid(m.ground, family)
        verdict = _same_local_verdict(flipped)
        verdicts.add(verdict)
        expected = _verdict(flipped.validate)
        assert (expected is None) == verdict
        assert _verdict(lambda: lm.from_bases(m.n, map(bits_of, family))) == expected
    assert verdicts == {True, False}


# -- the mask-only Matroid ------------------------------------------------------

def test_bases_are_built_from_the_sorted_masks(corpus):
    rng = Random(1804)
    for m in corpus + [STRESS_TIER["mk4chain3"]()]:
        perm = list(range(m.n))
        rng.shuffle(perm)
        for x in (m, m.dual(), lm.relabel(m, perm)):
            assert list(x._basis_masks) == sorted(set(x._basis_masks))
            assert x.bases == tuple(sorted(bits_of(b) for b in x._basis_masks))
            assert x.bases is x.bases  # built once, on first read
            assert x.rank == len(x.bases[0])
            again = Matroid(x.ground, list(reversed(x._basis_masks)) * 2)
            assert again == x and hash(again) == hash(x)


def _reference_relabel_text(m, perm, name):
    # relabel and to_text as they were on basis tuples
    bases = sorted(tuple(sorted(perm[e] for e in b)) for b in m.bases)
    lines = ["matroid %s" % name, "elements %s" % ",".join(m.names)]
    lines += ["basis %s" % " ".join(m.names[i] for i in b) if b else "basis" for b in bases]
    return "\n".join(lines) + "\n"


def test_to_text_of_relabellings_is_unchanged(corpus):
    rng = Random(18)
    for m in corpus + [STRESS_TIER["uniform(6,12)"](), STRESS_TIER["mk4chain3"]()]:
        for _ in range(3):
            perm = list(range(m.n))
            rng.shuffle(perm)
            text = lm.to_text(lm.relabel(m, perm, name="r"))
            assert text == _reference_relabel_text(m, perm, "r")
            assert lm.to_text(lm.from_text(text)) == text


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


@pytest.mark.parametrize("masks, error, message", [
    ("x", errors.InvalidParams, "^basis masks 'x' are not a collection of ints$"),
    ([1, "x"], errors.InvalidParams, r"^basis masks \[1, 'x'\] are not a collection of ints$"),
    (5, errors.InvalidParams, "^basis masks 5 are not a collection of ints$"),
    ([1.0], errors.InvalidParams, "not a collection of ints$"),
    (None, errors.InvalidParams, "not a collection of ints$"),
    ([0b1000], errors.OutOfRange, r"^basis mask 8 is not a subset of 0\.\.2$"),
    ([0b11, 0b1001], errors.OutOfRange, r"^basis mask 9 is not a subset of 0\.\.2$"),
    ([-1], errors.OutOfRange, r"^basis mask -1 is not a subset of 0\.\.2$"),
    ([0b001, 0b110], errors.UnequalCardinality, r"^bases of different sizes: \[1, 2\]$"),
    ([], errors.EmptyBases, "^a matroid needs at least one basis$"),
])
def test_constructor_refuses_masks_its_table_cannot_read(masks, error, message):
    # the trusting constructor still trusts the exchange axiom, but not the
    # masks' type, range or sizes; unequal sizes get from_bases' refusal
    with pytest.raises(error, match=message):
        Matroid(GroundSet.default(3), masks)
    if error is errors.UnequalCardinality:
        with pytest.raises(error, match=message):
            lm.from_bases(3, map(bits_of, masks))


def test_rank_table_refuses_a_ground_set_over_max_n():
    # the internal constructor takes any masks; the table's one writer
    # refuses before it allocates, whichever query asks first
    m = Matroid(GroundSet.default(17), [1, 2])
    for query in (lambda: m.rank_of((0,)), lambda: lm.locked_structure(m),
                  lambda: lm.is_connected(m), lambda: lm.member_Q(m, [0] * 17),
                  m.loops, m.coloops):
        with pytest.raises(errors.TooLarge, match="capped at 16, got 17"):
            query()
        assert m._ranks is None


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


def test_graphic_refuses_too_few_edges_in_bounded_memory():
    # a spanning tree needs n_vertices - 1 edges, so fewer edges are refused
    # before itertools.combinations allocates an index array per vertex
    tracemalloc.start()
    try:
        with pytest.raises(errors.DisconnectedGraph, match="^input graph is not connected$"):
            lm.graphic(10**6, ((0, 1), (1, 2), (0, 2)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(errors.DisconnectedGraph):
        lm.graphic(5, ((0, 1), (1, 2), (2, 3)))
    assert lm.graphic(4, ((0, 1), (1, 2), (2, 3))).bases == ((0, 1, 2),)


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


def test_graphic_refuses_edges_that_are_not_a_collection():
    for edges in (5, None, 1.5):
        with pytest.raises(errors.InvalidParams, match="^edge list .* is not a collection$"):
            lm.graphic(4, edges)
        with pytest.raises(errors.InvalidParams, match="^edge list .* is not a collection$"):
            lm.catalog("graphic", 4, edges)
    # any iterable of pairs is read, a generator included
    assert lm.graphic(3, ((u, u + 1) for u in range(2))) == lm.graphic(3, ((0, 1), (1, 2)))


@pytest.mark.parametrize("name", [[None], None, ("mk4",), {"mk4": 1}, 5, "MK4"])
def test_catalog_refuses_a_name_it_does_not_know(name):
    # a name that is not a string, hashable or not, is unknown like any other
    with pytest.raises(errors.UnknownName, match="^unknown catalog name "):
        lm.catalog(name)


def test_graphic_refuses_an_edge_that_is_not_a_pair():
    for bad in ((1, 2, 0), (1,), (), 5, None):
        edges = ((0, 1), bad)
        with pytest.raises(errors.InvalidParams, match="not a pair"):
            lm.graphic(3, edges)
        with pytest.raises(errors.InvalidParams, match="not a pair"):
            lm.catalog("graphic", 3, edges)
    assert lm.catalog("graphic", "3", [["0", "1"], ("1", "2")]) == lm.graphic(3, ((0, 1), (1, 2)))


@pytest.mark.parametrize("build", [
    lambda: lm.graphic(3, [(0, 1.5), (1, 2)]),
    lambda: lm.graphic(3, [("a", 1), (1, 2)]),
    lambda: lm.catalog("graphic", 3, [(0, 1.7), (1, 2)]),
    lambda: lm.catalog("uniform", 2.5, 4.2),
], ids=["graphic-float-vertex", "graphic-name-vertex", "catalog-graphic-float-vertex",
        "catalog-uniform-floats"])
def test_catalog_refuses_a_parameter_that_is_not_an_integer(build):
    # refused, not truncated to an integer and not a TypeError
    with pytest.raises(errors.InvalidParams, match="is not an integer"):
        build()


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


def test_relax_refuses_a_set_of_the_wrong_size():
    for x in ((0, 1), (0, 1, 2, 4)):
        with pytest.raises(errors.InvalidParams, match="^relaxation set must have 3 elements$"):
            lm.relax(lm.mk4(), x)


def test_catalog_dispatch():
    assert lm.catalog("uniform", 0, 3).rank == 0
    assert lm.catalog("mk4") == lm.mk4()
    with pytest.raises(errors.UnknownName):
        lm.catalog("nope")
    with pytest.raises(errors.InvalidParams):
        lm.catalog("uniform", 4, 3)
    with pytest.raises(errors.DisconnectedGraph):
        lm.catalog("graphic", 4, ((0, 1), (2, 3)))


@pytest.mark.parametrize("name, params, message", [
    ("mk4", (1,), "mk4 takes no parameters"),
    ("uniform", (2,), r"uniform needs \(r, n\)"),
    ("uniform", (1, 2, 3), r"uniform needs \(r, n\)"),
    ("graphic", (3,), r"graphic needs \(n_vertices, edges\)"),
    ("graphic", (3, ()), "need at least one vertex and one edge"),
    ("graphic", (0, ((0, 1),)), "need at least one vertex and one edge"),
    ("graphic", (3, ((0, 1), (1, 3))), r"edge endpoint out of range: \(1, 3\)"),
    ("graphic", (3, ((-1, 1),)), r"edge endpoint out of range: \(-1, 1\)"),
])
def test_catalog_refuses_bad_parameters(name, params, message):
    with pytest.raises(errors.InvalidParams, match="^%s$" % message):
        lm.catalog(name, *params)


@pytest.mark.parametrize("n, names, message", [
    (0, (), "ground set needs at least one element"),
    (2, ("a",), "expected 2 names, got 1"),
    (2, ("a", "a"), "element names must be distinct"),
    (1, ("a b",), "bad element name 'a b'"),
    ("3", ("a", "b", "c"), "ground set size '3' is not an int"),
    (3.0, ("a", "b", "c"), r"ground set size 3\.0 is not an int"),
    (None, ("a", "b", "c"), "ground set size None is not an int"),
])
def test_ground_set_refusals(n, names, message):
    with pytest.raises(errors.InvalidParams, match="^%s$" % message):
        GroundSet(n, names)


def test_index_of_an_unknown_name():
    g = GroundSet.default(3)
    assert g.index_of("e2") == 2
    with pytest.raises(errors.OutOfRange, match="^unknown element name 'x'$"):
        g.index_of("x")


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


def lane_battery(corpus):
    """The corpus, the stress tier, seeded 2-sums under seeded relabellings
    and the edge cases n = 1, rank 0 and U(16,16), each with its dual."""
    rng = Random(14)
    ms = list(corpus) + [build() for build in STRESS_TIER.values()]
    for m in lm.seeded_two_sums(2) + lm.seeded_two_sums(5):
        perm = list(range(m.n))
        rng.shuffle(perm)
        ms.append(lm.relabel(m, perm))
    ms += [lm.from_bases(1, [(0,)]), lm.from_bases(4, [()]), lm.uniform(16, 16)]
    return [x for m in ms for x in (m, m.dual())]


def test_rank_table_matches_reference(corpus):
    # the byte-lane table against the per-subset loops it replaced
    battery = lane_battery(corpus)
    assert len(battery) == 70
    for m in battery:
        table = Matroid(m.ground, m._basis_masks)._rank_table()
        assert type(table) is bytes and table == bytes(reference_rank_table(m)), m.name
    assert lm.uniform(16, 16)._rank_table()[-1] == 16


def equicardinal_battery():
    """Seeded equicardinal families of 2 to 30 masks, most of them not
    matroids: ranks 0 and n at every n, ranks 7 to 10 (both sides of the
    switch to the complement family above rank 8) at every n from 9 to 16,
    and 150 families of a rank from 2 to n - 2 at n <= 12 (families of
    rank 1 or n - 1 are all matroids)."""
    rng = Random(30)
    shapes = [(n, r) for n in range(1, 17) for r in (0, n)]
    shapes += [(n, r) for n in range(9, 17) for r in (7, 8, 9, 10) if r < n]
    shapes += [(n, rng.randint(2, n - 2)) for n in (rng.randint(4, 12) for _ in range(150))]
    battery = []
    for n, r in shapes:
        k = 1 if r in (0, n) else rng.randint(2, 30)
        battery.append((n, sorted({mask_of(rng.sample(range(n), r)) for _ in range(k)})))
    return battery


def test_rank_table_matches_reference_on_equicardinal_families():
    # the thermometer lanes, and above rank 8 the complement family's, are
    # exact for every equicardinal family, so validation reads the same
    # table on the families it rejects: from_bases answers as the exchange
    # scan does, with the same first failing triple
    outcomes = Counter()
    for n, family in equicardinal_battery():
        m = Matroid(GroundSet.default(n), family)
        assert m._rank_table() == bytes(reference_rank_table(m)), (n, family)
        expected = _verdict(lambda: _check_exchange(family, set(family)))
        assert _verdict(lambda: lm.from_bases(n, map(bits_of, family))) == expected, (n, family)
        outcomes[m.rank > 8, expected is None] += 1
    assert outcomes == {(False, True): 48, (False, False): 136,
                        (True, True): 10, (True, False): 17}


def step_battery():
    """2,000 seeded equicardinal families of 1 to 30 masks at n <= 12, most
    of them not matroids: 1,600 of a rank from 0 to n, and 400 at n = 9..12
    of rank 7 to 10, both sides of the switch to the complement family."""
    rng = Random(31)
    shapes = [(n, rng.randint(0, n)) for n in (rng.randint(1, 12) for _ in range(1600))]
    shapes += [(n, rng.randint(7, min(10, n - 1))) for n in (rng.randint(9, 12) for _ in range(400))]
    return [(n, sorted({mask_of(rng.sample(range(n), r)) for _ in range(rng.randint(1, 30))}))
            for n, r in shapes]


def test_rank_steps_and_tables_match_the_references(corpus):
    # the biased subtraction against the 0xFF-masked one it replaced, lane
    # for lane, and the table against the per-subset loops, on every kind of
    # table the package builds: the lane battery (the corpus, the stress
    # tier up to n = 16 and their duals) and equicardinal families that
    # validation accepts or rejects, tables built in a seeded order of sizes
    ms = lane_battery(corpus)
    ms += [Matroid(GroundSet.default(n), family) for n, family in step_battery()]
    Random(32).shuffle(ms)
    outcomes = Counter()
    for m in ms:
        fresh = Matroid(m.ground, m._basis_masks)
        table = fresh._rank_table()
        assert table == bytes(reference_rank_table(m)), (m.n, m._basis_masks)
        assert list(_rank_steps(table, m.n)) == reference_rank_steps(table, m.n), m.name
        outcomes[m.rank > 8, _locally_submodular(table, m.n)] += 1
    assert outcomes == {(False, True): 1064, (False, False): 755,
                        (True, True): 138, (True, False): 113}


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


def test_element_readers_refuse_a_set_that_is_not_a_collection():
    # the shared entry check refuses an int where a subset is expected,
    # with InvalidParams rather than the TypeError of iterating it
    u = lm.uniform(2, 4)
    for query in (lambda: lm.minor(u, delete=3), lambda: lm.minor(u, contract=3),
                  lambda: lm.restriction(u, 3), lambda: u.rank_of(None)):
        with pytest.raises(errors.InvalidParams, match="is not a collection of indices$"):
            query()
    assert lm.minor(u, delete=[3]) == lm.minor(u, delete=(3,))


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
        every = list(cyclic_flats(ranks, m.n))
        assert every == [x for x in range(1 << m.n) if is_cyclic_flat(ranks, m.full_mask, x)]
        for comp in components(ranks, m.full_mask):
            ground = bits_of(comp)
            for k in range(len(ground) + 1):
                for sub in itertools.combinations(ground, k):
                    assert (is_cyclic_flat(ranks, comp, mask_of(sub))
                            == naive_is_cyclic_flat(m.bases, ground, sub)), (m.name, sub)
            # the component's share of the one lane sweep is exactly these,
            # in increasing order
            flats = [x for x in range(comp + 1) if x & ~comp == 0
                     and is_cyclic_flat(ranks, comp, x)]
            assert [x for x in every if x | comp == comp] == flats, m.name


def test_cyclic_flats_with_loops_hold_every_loop():
    # the sweep lists the cyclic flats of M whatever M is; with a loop every
    # flat holds it, so no share of a loopless component is its own list,
    # which is why the locked layer refuses loops before the sweep
    loop, u23 = (1, [()]), (3, list(itertools.combinations(range(3), 2)))
    for parts in ((loop, u23), (u23, loop, loop), (u23, (1, [(0,)]), loop)):
        m = lm.from_bases(*shuffled_direct_sum(parts, Random(7)))
        ranks = m._rank_table()
        loops = mask_of(m.loops())
        every = list(cyclic_flats(ranks, m.n))
        assert every == [x for x in range(1 << m.n) if is_cyclic_flat(ranks, m.full_mask, x)]
        assert every[0] == loops and all(x & loops == loops for x in every), m.bases


def test_lane_components_match_recursive_split(corpus):
    # the separator lanes against the recursive split at the first separator
    # found: the lane battery (n = 1, rank 0, U(16,16)), U(0,16), and
    # shuffled direct sums of two to eight connected parts, loops and
    # coloops among them, at most 16 elements in all
    pool = [(1, [()]), (1, [(0,)])] + [(n, list(itertools.combinations(range(n), r)))
                                       for r, n in ((1, 2), (1, 3), (2, 3), (2, 4))]
    pool.append((6, list(lm.mk4().bases)))
    rng = Random(16)
    sums = []
    for count in range(2, 9):
        for _ in range(3):
            parts = []
            for i in range(count):
                room = 16 - sum(p[0] for p in parts) - (count - 1 - i)
                parts.append(rng.choice([p for p in pool if p[0] <= room]))
            sums.append((count, lm.from_bases(*shuffled_direct_sum(parts, rng))))
    for m in lane_battery(corpus) + [lm.uniform(0, 16)]:
        assert m._components() == sorted(components(m._rank_table(), m.full_mask)), m.name
    for count, m in sums:
        want = sorted(components(m._rank_table(), m.full_mask))
        assert len(want) == count and m._components() == want, m.bases


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


def test_closures_match_the_pairwise_reference(corpus):
    # one comprehension per element reads the same rank-table entries as the
    # per-pair lambdas did
    for m in list(corpus) + [build() for build in STRESS_TIER.values()]:
        assert lm.closures(m) == reference_closures(m), m.name


def test_closures_reject_loops_coloops():
    with pytest.raises(errors.LoopPresent):
        lm.closures(lm.uniform(0, 3))
    with pytest.raises(errors.ColoopPresent):
        lm.closures(lm.uniform(3, 3))


def _refusal(check, m):
    try:
        check(m)
    except (errors.LoopPresent, errors.ColoopPresent) as exc:
        return type(exc), exc.element
    return None


def _scan_refusal(m):
    # the least loop, then the least coloop, from the scans over the bases
    if basis_scan_loops(m):
        return errors.LoopPresent, basis_scan_loops(m)[0]
    if basis_scan_coloops(m):
        return errors.ColoopPresent, basis_scan_coloops(m)[0]
    return None


def test_closures_refuse_loops_and_coloops_as_the_basis_scan_does():
    # closures reads loops and coloops from the rank table; the error type
    # and the element, the least, are those of the scans over the bases
    rng = Random(24)
    parts = [(1, [()]), (1, [(0,)]), (3, list(itertools.combinations(range(3), 2))),
             (4, list(itertools.combinations(range(4), 2)))]
    refused = Counter()
    for _ in range(200):
        chosen = [rng.choice(parts) for _ in range(rng.randint(1, 4))]
        m = lm.from_bases(*shuffled_direct_sum(chosen, rng))
        fresh = Matroid(m.ground, m._basis_masks)
        want = _scan_refusal(fresh)
        assert _refusal(lm.closures, fresh) == want, m
        refused[want and want[0]] += 1
    assert min(refused.values()) > 20 and len(refused) == 3


def test_loops_and_coloops_match_the_basis_scan(corpus):
    # loops and coloops read the rank table; the scans over the bases agree,
    # on the corpus, the stress tier and direct sums with loops and coloops
    rng = Random(27)
    parts = [(1, [()]), (1, [(0,)]), (3, list(itertools.combinations(range(3), 2)))]
    sums = [lm.from_bases(*shuffled_direct_sum([rng.choice(parts) for _ in range(5)], rng))
            for _ in range(50)]
    ms = list(corpus) + [build() for build in STRESS_TIER.values()] + sums
    for m in ms:
        for x in (m, m.dual()):
            assert x.loops() == basis_scan_loops(x), x.name
            assert x.coloops() == basis_scan_coloops(x), x.name
    assert any(m.loops() for m in sums) and any(m.coloops() for m in sums)


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


def test_two_sum_refuses_a_summand_that_is_not_a_matroid():
    # before TooSmall, which reads the summand's size
    for m1, m2 in ((lm.mk4(), "x"), (None, lm.mk4()), (lm.uniform(1, 2), "x")):
        with pytest.raises(errors.InvalidParams, match="^2-sum summand .* is not a Matroid$"):
            lm.two_sum(m1, m2, 0, 0)


def test_two_sum_size_guard_reads_no_basis():
    # 10 + 10 - 2 = 18 elements: refused before the summands' loops,
    # coloops and connectivity (which builds their rank tables) are checked
    u = lm.uniform(5, 10)
    a, b = (Matroid(u.ground, u._basis_masks) for _ in range(2))
    with pytest.raises(errors.TooLarge, match="got 18"):
        lm.two_sum(a, b, 0, 0)
    assert a._ranks is None and b._ranks is None
    assert lm.two_sum(lm.uniform(4, 9), lm.uniform(4, 9), 0, 0).n == 16


def test_two_sum_name_collision_resolved():
    a = lm.uniform(2, 4)
    t = lm.two_sum(a, a, 0, 0)
    assert len(set(t.names)) == t.n


def _two_sum_outcome(build, a, b, e1, e2):
    try:
        t = build(a, b, e1, e2)
    except errors.LockedMatroidError as exc:
        return type(exc), str(exc)
    return t._basis_masks, t.names, t.name


def test_two_sum_matches_reference():
    # the 2-sum on masks against the per-basis remap it replaced: every
    # ordered corpus pair of at most 12 elements, every e1, a seeded e2;
    # the stress summands; and every refusal, with its message
    corpus = lm.standard_corpus(1)
    rng = Random(22)
    cases = [(a, b, e1, rng.randrange(b.n)) for a in corpus for b in corpus
             if a.n + b.n - 2 <= 12 for e1 in range(a.n)]
    assert len(cases) == 2320
    u49 = lm.uniform(4, 9)
    chain = _mk4_chain(2)
    cases += [(chain, lm.with_names(lm.mk4(), tuple("g%d" % j for j in range(6))), chain.n - 1, 0),
              (u49, lm.uniform(4, 9, prefix="f"), 0, 0), (u49, u49, 8, 3)]
    big = lm.uniform(5, 10)
    loopy = lm.from_bases(3, [(0, 1)])  # 2 is a loop
    coloopy = lm.from_bases(3, [(0, 2), (1, 2)])  # 2 is a coloop
    disc = lm.from_bases(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    stray = lm.from_bases(5, itertools.combinations(range(4), 2))  # 4 is a loop
    u24 = lm.uniform(2, 4)
    cases += [(stray, u24, 0, 0), (u24, stray, 0, 1),(lm.uniform(1, 2), u24, 0, 0), (u24, lm.uniform(1, 2), 0, 0),
              (big, big, 0, 0), (Matroid(big.ground, big._basis_masks), u49, 0, 0),
              (u24, u24, 4, 0), (u24, u24, 0, -1), (u24, u24, 0, "a"), (u24, u24, True, 0),
              (loopy, u24, 2, 0), (u24, loopy, 0, 2), (coloopy, u24, 2, 0),
              (u24, coloopy, 1, 2), (loopy, u24, 0, 0), (disc, u24, 0, 0), (u24, disc, 0, 3),
              (disc, loopy, 0, 2), (loopy, disc, 2, 0)]
    for a, b, e1, e2 in cases:
        assert (_two_sum_outcome(lm.two_sum, a, b, e1, e2)
                == _two_sum_outcome(reference_two_sum, a, b, e1, e2)), (a.name, b.name, e1, e2)


# -- relabel / validate ---------------------------------------------------------------

def test_relabel_roundtrip():
    m = lm.mk4()
    perm = [3, 0, 5, 1, 4, 2]
    r = lm.relabel(m, perm)
    inv = [0] * 6
    for i, p in enumerate(perm):
        inv[p] = i
    assert lm.relabel(r, inv) == lm.with_names(m, m.names)


def test_relabel_refuses_a_non_permutation():
    m = lm.mk4()
    for perm in ([0.0, 1, 2, 3, 4, 5], [0, 1, 7, 3, 4, 5], [0, 1, 1, 3, 4, 5],
                 [0, 1, 2, 3, 4], ["0", 1, 2, 3, 4, 5]):
        with pytest.raises(errors.InvalidParams):
            lm.relabel(m, perm)


def test_relabel_refuses_a_permutation_that_is_not_a_collection():
    with pytest.raises(errors.InvalidParams, match="^permutation 5 is not a collection$"):
        lm.relabel(lm.mk4(), 5)


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
    with pytest.raises(errors.FormatError, match="^duplicate element names$"):
        lm.from_text("matroid x\nelements a,b,a\nbasis a\n")
    # a repeated element is refused, not read as a smaller basis with a loop
    with pytest.raises(errors.FormatError, match="^repeated element 'b' in basis line$"):
        lm.from_text("matroid x\nelements a,b,c\nbasis a c\nbasis c b b\n")


_N17 = ",".join("e%d" % i for i in range(17))


@pytest.mark.parametrize("text, exc, message", [
    ("", errors.FormatError, "matroid file needs a header and at least one basis"),
    ("matroid x\nelements a\n", errors.FormatError,
     "matroid file needs a header and at least one basis"),
    ("x\nelements a\nbasis a\n", errors.FormatError, "first line must be 'matroid <name>'"),
    ("matroid x\nelems a\nbasis a\n", errors.FormatError,
     "second line must be 'elements <names>'"),
    ("matroid x\nelements a,b,a\nbasis q\n", errors.FormatError, "duplicate element names"),
    ("matroid x\nelements %s,e0\nbasis q\n" % _N17, errors.FormatError,
     "duplicate element names"),
    # past MAX_N the file is refused right after the elements line, before
    # any basis line (or a bad name) is read
    ("matroid x\nelements %s\nbasis q\n" % _N17, errors.TooLarge,
     "validation builds a 2^n rank table; |E| capped at 16, got 17"),
    ("matroid x\nelements %s\nbasis e0 e0\n" % _N17, errors.TooLarge,
     "validation builds a 2^n rank table; |E| capped at 16, got 17"),
    ("matroid x\nelements %s,a b\nbasis e0\n" % _N17, errors.TooLarge,
     "validation builds a 2^n rank table; |E| capped at 16, got 18"),
    # basis lines in file order; within a line, unknown before repeated
    ("matroid x\nelements a,b,c\nbasis a\nbsis b\nbasis z\n", errors.FormatError,
     "bad line: 'bsis b'"),
    ("matroid x\nelements a,b,c\nbasis a a z\n", errors.FormatError,
     "unknown element 'z' in basis line"),
    ("matroid x\nelements a,b,c\nbasis b\nbasis c b b\nbasis z\n", errors.FormatError,
     "repeated element 'b' in basis line"),
    # element names are checked after every basis line
    ("matroid x\nelements a,,b\nbasis q\n", errors.FormatError,
     "unknown element 'q' in basis line"),
    ("matroid x\nelements a,,b\nbasis a\n", errors.InvalidParams, "bad element name ''"),
    ("matroid x\nelements a,b c\nbasis a\n", errors.InvalidParams, "bad element name 'b c'"),
    ("matroid x\nelements a,b,c\nbasis a\nbasis b c\n", errors.UnequalCardinality,
     "bases of different sizes: [1, 2]"),
    ("matroid x\nelements a,b,c,d\nbasis c d\nbasis a c\nbasis a b\n",
     errors.ExchangeViolation, "basis exchange fails: B1=(0, 1), B2=(2, 3), e=0"),
])
def test_from_text_errors_keep_their_order(text, exc, message):
    with pytest.raises(exc) as info:
        lm.from_text(text)
    assert type(info.value) is exc and str(info.value) == message


def _peak_bytes(call):
    """The tracemalloc peak while call runs, which must raise TooLarge."""
    tracemalloc.start()
    try:
        with pytest.raises(errors.TooLarge, match="capped at 16, got "):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_from_text_refuses_many_names_in_bounded_memory():
    # the size check comes before the per-name bit masks, which would hold
    # one integer of up to 40,000 bits for each of 40,000 names; a duplicate
    # name among them is still reported first
    names = ",".join("e%d" % i for i in range(40000))
    assert _peak_bytes(lambda: lm.from_text("matroid w\nelements %s\nbasis e0\n" % names)) \
        < 20 * 2**20
    with pytest.raises(errors.FormatError, match="^duplicate element names$"):
        lm.from_text("matroid w\nelements %s,e7\nbasis e0\n" % names)


def test_uniform_refuses_a_large_n_before_naming_its_elements():
    assert _peak_bytes(lambda: lm.uniform(2, 10**5)) < 2**20
    # bad parameters are still refused first
    with pytest.raises(errors.InvalidParams, match="^uniform needs 0 <= r <= n, n >= 1$"):
        lm.uniform(10**5 + 1, 10**5)


def test_save_load_bit_exact(tmp_path, corpus):
    for m in corpus[:4]:
        path = tmp_path / (m.name.replace("(", "_").replace(")", "_") + ".matroid")
        lm.save(m, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert lm.load(path) == m


def test_save_and_load_refuse_a_path_that_is_not_a_path(tmp_path):
    # open() takes an int as a file descriptor, which it would use and close
    read_fd, write_fd = os.pipe()
    try:
        for path in (write_fd, None, 1.5):
            with pytest.raises(errors.InvalidParams,
                               match="^path .* is not a str, bytes or os.PathLike$"):
                lm.save(lm.mk4(), path)
        for path in (read_fd, None, ["m.matroid"]):
            with pytest.raises(errors.InvalidParams,
                               match="^path .* is not a str, bytes or os.PathLike$"):
                lm.load(path)
        os.fstat(read_fd)  # both descriptors are still open
        os.fstat(write_fd)
    finally:
        os.close(read_fd)
        os.close(write_fd)
    path = tmp_path / "m.matroid"
    for p in (path, str(path), bytes(path)):
        lm.save(lm.mk4(), p)
        assert lm.load(p) == lm.mk4()


# -- bit helpers ----------------------------------------------------------------------

def naive_lane_constants(n):
    # lane x of HAS_i is bit i of x, of ONES 1 and of POP |x|
    size = 1 << n
    return (tuple(int.from_bytes(bytes(x >> i & 1 for x in range(size)), "little")
                  for i in range(n)),
            int.from_bytes(b"\1" * size, "little"),
            int.from_bytes(bytes(x.bit_count() for x in range(size)), "little"))


EMPTY_LANES = (0, (), 1, 0)  # n = 0's constants, as at import


def test_lane_constants_match_the_naive_patterns(monkeypatch):
    # from an empty memo, sizes in a shuffled order: each size is read from
    # whichever larger size the memo holds, or builds the memo itself, and
    # the second round reads every size from n = 16's
    monkeypatch.setattr(_bits, "_lanes", EMPTY_LANES)
    want = {n: naive_lane_constants(n) for n in range(1, 17)}
    sizes = list(want)
    Random(31).shuffle(sizes)
    for n in sizes + sizes[::-1]:
        got = lane_constants(n)
        assert type(got[0]) is tuple and got == want[n], n


def test_lane_constants_memo_holds_the_largest_size_only(monkeypatch):
    # only a size larger than any before replaces the memo; a smaller one
    # reads it and leaves it as it is, and the largest size gets the memo's
    # own patterns back
    monkeypatch.setattr(_bits, "_lanes", EMPTY_LANES)
    held = []
    for n in (8, 12, 8, 16, 12, 8, 16, 3):
        lane_constants(n)
        held.append(_bits._lanes[0])
    assert held == [8, 12, 12, 16, 16, 16, 16, 16]
    top, has, ones, pop = _bits._lanes
    assert len(has) == top == 16 and ones.bit_length() <= 8 << 16  # one size
    assert lane_constants(16)[0] is has
    memo = _bits._lanes
    assert lane_constants(9) == naive_lane_constants(9) and _bits._lanes is memo


def test_bits_of_matches_the_bit_walk():
    # two byte tables below 2^16, the bit walk above
    for mask in range(1 << 16):
        assert bits_of(mask) == reference_bits_of(mask), mask
    rng = Random(16)
    for mask in [1 << 16, (1 << 17) - 1, 1 << 40 | 0xFFFF] + [rng.getrandbits(48) for _ in range(50)]:
        assert bits_of(mask) == reference_bits_of(mask), mask
