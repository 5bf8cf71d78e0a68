import collections
import hashlib
import itertools
from random import Random

import pytest

import lockedmatroid as lm
from lockedmatroid import dagiso, errors
from lockedmatroid.dagiso import ColoredDigraph, canonical_form
from helpers import (brute_force_iso, permute_digraph, random_colored_dag,
                     random_colored_digraph, random_multi_digraph, reference_are_isomorphic,
                     reference_canonical_form)
from test_stress_tier import STRESS_TIER


def test_single_vertex_digest_stable():
    g1 = ColoredDigraph(1, (), (5,))
    g2 = ColoredDigraph(1, (), (5,))
    assert canonical_form(g1).digest == canonical_form(g2).digest
    g3 = ColoredDigraph(1, (), (6,))
    assert canonical_form(g1).digest != canonical_form(g3).digest


def test_empty_graph():
    assert brute_force_iso(ColoredDigraph(0, (), ()), ColoredDigraph(0, (), ()))
    assert lm.are_isomorphic(ColoredDigraph(0, (), ()), ColoredDigraph(0, (), ()))[0]


@pytest.mark.parametrize("args, error, message", [
    ((-1, (), ()), errors.InvalidParams, "negative vertex count"),
    ((2, (), (0,)), errors.InvalidParams, "need one color per vertex"),
    ((1, (), (-1,)), errors.InvalidParams, "colors must be nonnegative"),
    ((2, ((0, 2),), (0, 0)), errors.OutOfRange, r"arc endpoint out of range: \(0, 2\)"),
    ((2, ((-1, 0),), (0, 0)), errors.OutOfRange, r"arc endpoint out of range: \(-1, 0\)"),
    ((2, ((0, 1, 1),), (0, 0)), errors.InvalidParams,
     r"arc is not a pair of integers: \(0, 1, 1\)"),
    ((2, ((0,),), (0, 0)), errors.InvalidParams, r"arc is not a pair of integers: \(0,\)"),
    ((2, ([0, 1],), (0, 0)), errors.InvalidParams, r"arc is not a pair of integers: \[0, 1\]"),
    ((2, ((0, 1.0),), (0, 0)), errors.InvalidParams,
     r"arc is not a pair of integers: \(0, 1\.0\)"),
    ((2.0, (), (0, 0)), errors.InvalidParams, r"vertex count must be an integer: 2\.0"),
    ((1, (), ("a",)), errors.InvalidParams, "colors must be integers"),
    ((1, (), (1.5,)), errors.InvalidParams, "colors must be integers"),
    ((2, (), 5), errors.InvalidParams, "colors and arcs must be collections"),
    ((2, 5, (0, 0)), errors.InvalidParams, "colors and arcs must be collections"),
    ((2, iter([(0, 1)]), (0, 0)), errors.InvalidParams, "colors and arcs must be collections"),
])
def test_colored_digraph_refusals(args, error, message):
    with pytest.raises(error, match="^%s$" % message):
        ColoredDigraph(*args)


@pytest.mark.parametrize("arcs, error, message", [
    (((0, 1), (0, 2), (5,)), errors.OutOfRange, r"arc endpoint out of range: \(0, 2\)"),
    (((1, 0), [0, 1], (0, 9)), errors.InvalidParams, r"arc is not a pair of integers: \[0, 1\]"),
    (((0, 1.0), (0, 9)), errors.InvalidParams, r"arc is not a pair of integers: \(0, 1\.0\)"),
    (((3, 0), (0, 1, 1)), errors.OutOfRange, r"arc endpoint out of range: \(3, 0\)"),
    (((0, 0), (1, -1), ("a", 0)), errors.OutOfRange, r"arc endpoint out of range: \(1, -1\)"),
    ([(0, 1), (0, 2), 7], errors.OutOfRange, r"arc endpoint out of range: \(0, 2\)"),
    (((0, 1), 7, (0, 2)), errors.InvalidParams, "arc is not a pair of integers: 7"),
])
def test_first_bad_arc_sets_the_error(arcs, error, message):
    # the one pass over the arcs reports the first bad arc, whatever
    # follows it
    with pytest.raises(error, match="^%s$" % message):
        ColoredDigraph(2, arcs, (0, 0))


def test_arcs_the_bulk_check_leaves_to_the_loop():
    # bools and tuple subclasses are ints and tuples to the arc check,
    # and a list of arcs is read as before
    Arc = collections.namedtuple("Arc", "u v")
    for arcs in (((True, 0),), (Arc(0, 1), (1, 1)), [(0, 1), (1, 0)], ()):
        assert ColoredDigraph(2, arcs, (0, 0)).arcs == arcs


def test_mk4_lattice_digest_relabel_invariant():
    m = lm.mk4()
    g1 = lm.to_colored(lm.reduced_lattice(lm.locked_structure(m)))
    rng = Random(11)
    for _ in range(5):
        perm = list(range(g1.vertex_count))
        rng.shuffle(perm)
        arcs = tuple(sorted((perm[u], perm[v]) for (u, v) in g1.arcs))
        cols = [0] * g1.vertex_count
        for v in range(g1.vertex_count):
            cols[perm[v]] = g1.colors[v]
        g2 = ColoredDigraph(g1.vertex_count, arcs, tuple(cols))
        assert canonical_form(g1).digest == canonical_form(g2).digest


def test_mk4_vs_whirl3_digests_differ():
    g1 = lm.to_colored(lm.reduced_lattice(lm.locked_structure(lm.mk4())))
    g2 = lm.to_colored(lm.reduced_lattice(lm.locked_structure(lm.whirl3())))
    assert canonical_form(g1).digest != canonical_form(g2).digest
    assert not brute_force_iso(g1, g2)  # count mismatch answers without search


def test_digest_is_hex_of_canonical_bytes():
    g = ColoredDigraph(2, ((0, 1),), (1, 2))
    cf = canonical_form(g)
    assert bytes.fromhex(cf.digest).decode("utf-8") == "2|1,2|0-1"


def test_witness_verified_identity():
    g = lm.to_colored(lm.reduced_lattice(lm.locked_structure(lm.q6())))
    ans, mapping = lm.are_isomorphic(g, g)
    assert ans
    assert sorted(mapping) == list(range(g.vertex_count))


def test_color_multiset_mismatch():
    g1 = ColoredDigraph(2, (), (0, 0))
    g2 = ColoredDigraph(2, (), (0, 1))
    assert not lm.are_isomorphic(g1, g2)[0]
    assert not brute_force_iso(g1, g2)


def test_path_vs_star():
    path = ColoredDigraph(3, ((0, 1), (1, 2)), (0, 0, 0))
    star = ColoredDigraph(3, ((0, 1), (0, 2)), (0, 0, 0))
    assert not brute_force_iso(path, star)
    assert not lm.are_isomorphic(path, star)[0]


def test_brute_force_too_large():
    g = ColoredDigraph(13, tuple((i, i + 1) for i in range(12)), (0,) * 13)
    with pytest.raises(errors.TooLarge):
        brute_force_iso(g, g)
    assert brute_force_iso(g, g, max_n=13)


def _agreement_battery_pairs():
    """Seeded random DAGs with up to 8 vertices: 1000 pairs, every other one
    a relabelling."""
    rng = Random(20240915)
    for trial in range(1000):
        n = rng.randint(1, 8)
        arcs1, cols1 = random_colored_dag(rng, n)
        if trial % 2 == 0:
            arcs2, cols2 = permute_digraph(rng, n, arcs1, cols1)
        else:
            arcs2, cols2 = random_colored_dag(rng, n)
        yield ColoredDigraph(n, tuple(arcs1), cols1), ColoredDigraph(n, tuple(arcs2), cols2)


def test_agreement_battery_random_pairs():
    # the canonical engine and the exhaustive search must agree on 1000 pairs
    for trial, (g1, g2) in enumerate(_agreement_battery_pairs()):
        fast = lm.are_isomorphic(g1, g2)[0]
        slow = brute_force_iso(g1, g2)
        assert fast == slow, (trial, g1, g2)


def test_canonical_form_on_symmetric_strands():
    # many interchangeable strands: the backjump on each automorphism and the
    # orbit pruning must keep this fast and the digest stable under relabeling
    g = lm.series_encode(lm.reduced_lattice(lm.locked_structure(lm.uniform(4, 8))))
    cf1 = canonical_form(g)
    rng = Random(3)
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    arcs = tuple(sorted((perm[u], perm[v]) for (u, v) in g.arcs))
    g2 = ColoredDigraph(g.vertex_count, arcs, (0,) * g.vertex_count)
    assert canonical_form(g2).digest == cf1.digest


def test_agreement_on_all_corpus_lattice_pairs(corpus, structures):
    lats = {name: lm.to_colored(lm.reduced_lattice(s))
            for name, s in structures.items()}
    for i, m1 in enumerate(corpus):
        for m2 in corpus[i:]:
            if m1.n != m2.n:
                continue
            g1, g2 = lats[m1.name], lats[m2.name]
            fast = lm.are_isomorphic(g1, g2)[0]
            slow = brute_force_iso(g1, g2, max_n=25)
            assert fast == slow, (m1.name, m2.name)


def test_canonical_form_separates_small_nonisomorphic():
    # all 3-vertex uncolored DAGs on a fixed vertex set, pairwise compared
    graphs = []
    all_arcs = [(0, 1), (0, 2), (1, 2)]
    for k in range(4):
        for sub in itertools.combinations(all_arcs, k):
            graphs.append(ColoredDigraph(3, tuple(sub), (0, 0, 0)))
    for g1 in graphs:
        for g2 in graphs:
            assert lm.are_isomorphic(g1, g2)[0] == brute_force_iso(g1, g2)


def _pinned_canonical_inputs(corpus, structures):
    """Every corpus matroid's reduced lattice (labels and series routes),
    augmented lattice and dual-structure lattice, then the seeded random
    digraphs of test_agreement_battery_random_pairs."""
    for m in corpus:
        s = structures[m.name]
        d = lm.reduced_lattice(s)
        yield lm.to_colored(d)
        yield lm.series_encode(d)
        yield lm.to_colored(lm.augmented_lattice(s))
        yield lm.to_colored(lm.reduced_lattice(lm.dual_structure(s)))
    for pair in _agreement_battery_pairs():
        yield from pair


def test_canonical_forms_pinned(corpus, structures):
    # sha256 over (digest, perm) of every input, computed with the orbit
    # pruning that rebuilt a union-find before each sibling: the incremental
    # orbit partition must reproduce the same search tree and minimum key
    h = hashlib.sha256()
    count = 0
    for g in _pinned_canonical_inputs(corpus, structures):
        cf = canonical_form(g)
        h.update(repr((cf.digest, cf.perm)).encode("utf-8"))
        count += 1
    assert count == 4 * len(corpus) + 2000
    assert h.hexdigest() == "604b7ad1378006a014d4e8c46690a189998def868a8007977a34e513abfced50"


def _cycles(lengths) -> ColoredDigraph:
    """Disjoint uncoloured directed cycles of the given lengths, in order."""
    arcs, base = [], 0
    for length in lengths:
        arcs += [(base + i, base + (i + 1) % length) for i in range(length)]
        base += length
    return ColoredDigraph(base, tuple(arcs), (0,) * base)


def _relabelled(rng: Random, g: ColoredDigraph) -> ColoredDigraph:
    arcs, cols = permute_digraph(rng, g.vertex_count, g.arcs, g.colors)
    return ColoredDigraph(g.vertex_count, tuple(arcs), cols)


def _partitions(total: int, largest: int):
    """The partitions of total into parts of at most largest, largest first."""
    if total == 0:
        yield ()
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _cycle_covers(total: int) -> list[ColoredDigraph]:
    """Unions of directed cycles on total vertices: one for every partition
    of total into cycle lengths up to 7 vertices, and only k copies of one
    C_L above.  Any two agree on vertex count, arc count and degree profile,
    and none is isomorphic to another.  Covers with unequal lengths leave
    vertices of several orbits in one equitable cell."""
    if total <= 7:
        lengths = list(_partitions(total, total))
    else:
        lengths = [(d,) * (total // d) for d in range(1, total + 1) if total % d == 0]
    return [_cycles(order) for order in lengths]


def _equal_cycle_cover_pairs():
    """C6 against 2 x C3 and every other pair of distinct covers up to 12
    vertices, in both orders: 2 x 226 pairs."""
    for total in range(2, 13):
        for g1, g2 in itertools.combinations(_cycle_covers(total), 2):
            yield g1, g2
            yield g2, g1


def _symmetric_and_cyclic_inputs(corpus, structures):
    """Digraphs with cycles and large automorphism groups, then every corpus
    lattice (labels and series, structure and dual)."""
    # disjoint directed cycles, in both orders: k of length L (k, L <= 5),
    # then two or three of unequal lengths, which leave vertices of several
    # orbits in one equitable cell
    cycle_sets = [(length,) * k for k in range(1, 6) for length in range(1, 6)]
    cycle_sets += [lengths for k in (2, 3)
                   for lengths in itertools.combinations_with_replacement(range(1, 6), k)
                   if len(set(lengths)) > 1]
    for lengths in cycle_sets:
        for order in (lengths, lengths[::-1]):
            yield _cycles(order)
    for a in range(1, 6):  # K_{a,b}, every arc from the a side to the b side
        for b in range(1, 6):
            arcs = [(i, a + j) for i in range(a) for j in range(b)]
            yield ColoredDigraph(a + b, tuple(arcs), (0,) * (a + b))
    for n in range(1, 7):  # complete digraphs with loops and 2-cycles
        arcs = [(u, v) for u in range(n) for v in range(n)]
        yield ColoredDigraph(n, tuple(arcs), (0,) * n)
    rng = Random(8128)
    for _ in range(300):  # shuffled disjoint unions of copies of one digraph
        n, copies = rng.randint(2, 5), rng.randint(2, 4)
        arcs, cols = random_colored_digraph(rng, n)
        union = [(c * n + u, c * n + v) for c in range(copies) for (u, v) in arcs]
        arcs, cols = permute_digraph(rng, n * copies, union, cols * copies)
        yield ColoredDigraph(n * copies, tuple(arcs), cols)
    for m in corpus:
        s = structures[m.name]
        for st in (s, lm.dual_structure(s)):
            d = lm.reduced_lattice(st)
            yield lm.to_colored(d)
            yield lm.series_encode(d)


def test_canonical_form_matches_reference_search(corpus, structures):
    # the worklist refinement and the backjump skip only cells that cannot
    # split and subtrees that an automorphism maps onto searched ones, so the
    # first leaf with the least key, and its numbering, must stay the same
    count = 0
    for g in _symmetric_and_cyclic_inputs(corpus, structures):
        cf, ref = canonical_form(g), reference_canonical_form(g)
        assert (cf.digest, cf.perm) == (ref.digest, ref.perm), g
        count += 1
    assert count == 2 * 65 + 25 + 6 + 300 + 4 * len(corpus)


def _two_search_oracle_pairs(corpus, structures):
    """Seeded random digraph pairs, relabelled and independent; cycle covers
    against relabellings and against each other; every corpus and
    stress-tier lattice on both encodings against a relabelling and against
    its dual's lattice."""
    rng = Random(1503)
    for trial in range(600):
        n = rng.randint(1, 8)
        arcs, cols = random_colored_digraph(rng, n)
        g = ColoredDigraph(n, tuple(arcs), cols)
        if trial % 2 == 0:
            yield g, _relabelled(rng, g)
        else:
            arcs, cols = random_colored_digraph(rng, n)
            yield g, ColoredDigraph(n, tuple(arcs), cols)
    for total in range(1, 13):
        for g in _cycle_covers(total):
            yield g, _relabelled(rng, g)
    yield from _equal_cycle_cover_pairs()
    stress = [lm.locked_structure(build()) for build in STRESS_TIER.values()]
    for s in [structures[m.name] for m in corpus] + stress:
        dual = lm.reduced_lattice(lm.dual_structure(s))
        for encode in (lm.to_colored, lm.series_encode):
            g = encode(lm.reduced_lattice(s))
            yield g, _relabelled(rng, g)
            yield g, encode(dual)


def test_are_isomorphic_matches_two_full_searches(corpus, structures):
    # the answer and the witness must be those of two full reference
    # canonical searches and a digest compare
    count = 0
    for g1, g2 in _two_search_oracle_pairs(corpus, structures):
        assert lm.are_isomorphic(g1, g2) == reference_are_isomorphic(g1, g2), (g1, g2)
        count += 1
    assert count == 600 + 63 + 2 * 226 + 4 * (len(corpus) + len(STRESS_TIER))


def _rewired_pairs(rng: Random, count: int):
    """Seeded simple digraphs and a copy with arcs (a, b), (c, d) swapped for
    (a, d), (c, b): every vertex keeps its colour and its in- and
    out-degree.  Only the non-isomorphic pairs are kept."""
    while count:
        n = rng.randint(3, 8)
        arcs, cols = random_colored_digraph(rng, n)
        if len(arcs) < 2:
            continue
        (a, b), (c, d) = rng.sample(arcs, 2)
        if (a, d) in arcs or (c, b) in arcs:
            continue
        swapped = [arc for arc in arcs if arc not in ((a, b), (c, d))] + [(a, d), (c, b)]
        g1 = ColoredDigraph(n, tuple(arcs), cols)
        g2 = ColoredDigraph(n, tuple(sorted(swapped)), cols)
        if not brute_force_iso(g1, g2):
            count -= 1
            yield g1, g2


def test_equal_invariants_reach_two_full_searches(monkeypatch):
    # pairs that agree on vertex count, arc count and the (colour, in-degree,
    # out-degree) profile: the two full canonical searches must tell them
    # apart, in either order
    searches = []
    search = dagiso._search

    def spy(g, first_leaf=False):
        searches.append((g, first_leaf))
        return search(g, first_leaf)

    monkeypatch.setattr(dagiso, "_search", spy)
    rewired = [pair for g1, g2 in _rewired_pairs(Random(77), 200) for pair in ((g1, g2), (g2, g1))]
    for a, b in list(_equal_cycle_cover_pairs()) + rewired:
        assert dagiso._profile(a)[0] == dagiso._profile(b)[0]
        searches.clear()
        assert lm.are_isomorphic(a, b) == (False, None), (a, b)
        assert searches == [(a, False), (b, False)]
        assert not brute_force_iso(a, b)
    # equal colour and degree multisets, but a colour on a vertex of another
    # degree: the profile answers before any search, and before brute
    # force's size cap
    for n in (3, 13):
        path = tuple((i, i + 1) for i in range(n - 1))
        first = ColoredDigraph(n, path, (1,) + (0,) * (n - 1))
        last = ColoredDigraph(n, path, (0,) * (n - 1) + (1,))
        searches.clear()
        assert lm.are_isomorphic(first, last) == (False, None)
        assert searches == []
        assert not brute_force_iso(first, last)


def _multi_digraph_battery():
    """Seeded digraphs with repeated arcs, loops and isolated vertices, in
    one to three colours, so that colour classes mix in- and out-degrees 0,
    1 and more."""
    rng = Random(1919)
    for _ in range(400):
        n = rng.randint(1, 10)
        arcs, cols = random_multi_digraph(rng, n, rng.randint(1, 3))
        yield ColoredDigraph(n, tuple(arcs), cols), rng


def test_degree_keys_match_reference_on_multi_digraphs():
    # the degree-class keys and the integer leaf keys must give the search
    # tree, the leaf and the pair answers of the full signatures and tuple keys
    kinds = set()
    repeated = looped = 0
    for g, rng in _multi_digraph_battery():
        repeated += len(set(g.arcs)) < len(g.arcs)
        looped += any(u == v for u, v in g.arcs)
        ind, outd = dagiso._profile(g)[1:]
        kinds |= {(g.colors[v], min(ind[v], 2), min(outd[v], 2)) for v in range(g.vertex_count)}
        cf, ref = canonical_form(g), reference_canonical_form(g)
        assert (cf.digest, cf.perm) == (ref.digest, ref.perm), g
        arcs, cols = random_multi_digraph(rng, g.vertex_count, 2)
        for h in (_relabelled(rng, g), ColoredDigraph(g.vertex_count, tuple(arcs), cols)):
            assert lm.are_isomorphic(g, h) == reference_are_isomorphic(g, h), (g, h)
    assert repeated > 50 and looped > 100
    # every colour held vertices of each degree class the keys distinguish
    degrees = {(i, o) for i in range(3) for o in range(3)}
    assert {(i, o) for c, i, o in kinds if c == 0} == degrees
    assert {(i, o) for c, i, o in kinds if c == 1} == degrees


def test_isomorphic_is_are_isomorphics_answer(corpus, structures):
    # the answer-only test answers from two first leaves when their keys
    # agree and from are_isomorphic otherwise: every answer must be
    # are_isomorphic's, on the seeded batteries above, the corpus and
    # stress-tier lattices on both encodings against relabellings and their
    # duals' lattices, the multi-digraphs against relabellings and
    # independent partners, and the empty digraph, whose one leaf is the root
    empty = ColoredDigraph(0, (), ())
    pairs = itertools.chain(_agreement_battery_pairs(),
                            _two_search_oracle_pairs(corpus, structures),
                            _rewired_pairs(Random(77), 200), [(empty, empty)])
    counts = collections.Counter()
    for g1, g2 in pairs:
        answer = dagiso.isomorphic(g1, g2)
        assert answer == lm.are_isomorphic(g1, g2)[0], (g1, g2)
        counts[answer] += 1
    for g, rng in _multi_digraph_battery():
        arcs, cols = random_multi_digraph(rng, g.vertex_count, 2)
        for h in (_relabelled(rng, g), ColoredDigraph(g.vertex_count, tuple(arcs), cols)):
            answer = dagiso.isomorphic(g, h)
            assert answer == lm.are_isomorphic(g, h)[0], (g, h)
            counts[answer] += 1
    assert sum(counts.values()) == 1000 + 600 + 63 + 2 * 226 + 200 + 1 + 800 + 4 * (
        len(corpus) + len(STRESS_TIER))
    assert min(counts.values()) > 500


def test_isomorphic_raises_when_the_leaf_map_fails(monkeypatch):
    # equal first-leaf keys whose map does not carry arcs onto arcs would be
    # a fault of the search; it raises rather than answering
    path = ColoredDigraph(3, ((0, 1), (1, 2)), (0, 0, 0))
    other = ColoredDigraph(3, ((0, 1), (2, 1)), (0, 0, 0))
    search = dagiso._search
    monkeypatch.setattr(dagiso, "_search", lambda g, first_leaf=False: search(path, first_leaf))
    monkeypatch.setattr(dagiso, "_profile", lambda g: ((), [], []))
    with pytest.raises(errors.LockedMatroidError, match="carry arcs onto arcs"):
        dagiso.isomorphic(path, other)


def test_one_arc_pass_per_digraph(corpus, structures):
    # each digraph's in- and out-neighbours, made in arc order by the
    # constructor's checking pass, against a naive scan, and _profile's
    # degrees are their lengths; isomorphic reads those lists and makes no
    # others, whether it answers from the first leaves or falls back to
    # are_isomorphic's two full searches
    pairs = list(_two_search_oracle_pairs(corpus, structures))
    pairs += [(g, _relabelled(rng, g)) for g, rng in _multi_digraph_battery()]
    answers = collections.Counter()
    for g1, g2 in pairs:
        made = (g1._adjacency, g2._adjacency)
        answers[dagiso.isomorphic(g1, g2)] += 1
        for g, adjacency in zip((g1, g2), made):
            assert g._adjacency is adjacency, g
            ins, outs = adjacency
            n = g.vertex_count
            assert ins == [[u for u, v in g.arcs if v == x] for x in range(n)], g
            assert outs == [[v for u, v in g.arcs if u == x] for x in range(n)], g
            assert dagiso._profile(g)[1:] == ([*map(len, ins)], [*map(len, outs)]), g
    assert min(answers.values()) > 100


def test_adjacency_is_not_a_field():
    # equality, hash and repr read the three fields only
    g = ColoredDigraph(3, ((0, 1), (0, 2)), (1, 0, 0))
    twin = ColoredDigraph(3, ((0, 1), (0, 2)), (1, 0, 0))
    assert g == twin and hash(g) == hash(twin) and g._adjacency is not twin._adjacency
    assert repr(g) == "ColoredDigraph(vertex_count=3, arcs=((0, 1), (0, 2)), colors=(1, 0, 0))"
    assert g != ColoredDigraph(3, ((0, 1), (0, 2)), (0, 0, 0))
