import itertools
from collections import Counter
from random import Random

import pytest

import lockedmatroid as lm
from lockedmatroid import _bits, errors, locked, matroid
from lockedmatroid._bits import bits_of, subset_key
from lockedmatroid.matroid import GroundSet, Matroid, cyclic_flats
from lockedmatroid.cli import parse_gen_spec
from helpers import (components, naive_is_cyclic_flat, naive_is_locked, naive_locked_sets,
                     reference_component_flats, reference_locked_iter,
                     reference_locked_structure, reference_rank_table, shuffled_direct_sum,
                     sparse_paving)
from test_matroid import lane_battery
from test_stress_tier import STRESS_TIER

# locked counts of the corpus, frozen after a first run of the naive oracle
EXPECTED_LOCKED = {
    "uniform(1,3)": 0,
    "uniform(2,3)": 0,
    "uniform(2,4)": 0,
    "uniform(2,5)": 0,
    "uniform(3,5)": 0,
    "uniform(2,6)": 0,
    "uniform(3,6)": 0,
    "uniform(3,7)": 0,
    "uniform(4,8)": 0,
    "mk4": 4,
    "whirl3": 3,
    "q6": 2,
    "p6": 1,
    "vamos": 5,
    "dual(mk4)": 4,
    "dual(vamos)": 5,
    "mk4_doubled": 4,
    "dual(mk4_doubled)": 4,
    "twosum1": 2,
    "twosum2": 2,
    "twosum3": 2,
}


def test_is_locked_mk4_triangle():
    m = lm.mk4()
    assert lm.is_locked(m, (0, 1, 3))  # {a,b,d}
    assert not lm.is_locked(m, (0,))   # rank 1
    with pytest.raises(errors.NotProperSubset):
        lm.is_locked(m, ())
    with pytest.raises(errors.NotProperSubset):
        lm.is_locked(m, range(6))
    for bad in ((-1,), (0, 1.0), (6,), range(7), ("a",)):
        with pytest.raises(errors.OutOfRange):
            lm.is_locked(m, bad)


def test_is_locked_u24_exhaustive():
    m = lm.uniform(2, 4)
    for k in range(1, 4):
        for comb in itertools.combinations(range(4), k):
            assert not lm.is_locked(m, comb)


def test_is_locked_matches_naive_definition(corpus):
    # every proper nonempty subset of every corpus member with n <= 8, and of
    # a graph where a triangle and a double edge form a cyclic flat whose
    # restriction is disconnected (the pair test inside L decides it) and of
    # its dual (the pair test above L decides it)
    g = lm.graphic(5, ((0, 1), (1, 2), (0, 2), (3, 4), (3, 4), (2, 3), (0, 4), (1, 3)))
    for m in [c for c in corpus if c.n <= 8] + [g, g.dual()]:
        expected = set(naive_locked_sets(m.n, m.bases))
        got = {comb for k in range(1, m.n)
               for comb in itertools.combinations(range(m.n), k)
               if lm.is_locked(m, comb)}
        assert got == expected, m.name


def test_is_locked_refuses_a_subset_that_is_not_a_collection():
    with pytest.raises(errors.InvalidParams, match="is not a collection of indices$"):
        lm.is_locked(lm.mk4(), 5)
    assert lm.is_locked(lm.mk4(), [0, 1, 2]) == lm.is_locked(lm.mk4(), (0, 1, 2))


def test_is_locked_per_component_on_direct_sums():
    # on a disconnected matroid the locked sets are those of its components:
    # is_locked agrees with locked_structure subset by subset
    rng = Random(12)
    k4, w3, q6, p6 = ((m.n, list(m.bases)) for m in (lm.mk4(), lm.whirl3(), lm.q6(), lm.p6()))
    u23 = (3, list(itertools.combinations(range(3), 2)))
    u24 = (4, list(itertools.combinations(range(4), 2)))
    for parts in ((k4, u24), (w3, u24), (q6, u23), (p6, u24), (u23, k4), (w3, u23),
                  (u23, u23, u24), (u24, u23, u23), (k4, u23), (q6, u24), (p6, u23),
                  (u24, w3)):
        m = lm.from_bases(*shuffled_direct_sum(parts, rng))
        got = {x for k in range(1, m.n) for x in itertools.combinations(range(m.n), k)
               if lm.is_locked(m, x)}
        assert got == set(lm.locked_structure(m).locked), parts


def test_locked_structure_mk4():
    s = lm.locked_structure(lm.mk4())
    assert s.locked == ((0, 1, 3), (0, 2, 5), (1, 2, 4), (3, 4, 5))
    assert [s.rho[x] for x in s.locked] == [2, 2, 2, 2]
    assert s.rho[()] == 0 and s.rho[tuple(range(6))] == 3
    named = [tuple(s.names[i] for i in x) for x in s.locked]
    assert named == [("a", "b", "d"), ("a", "c", "f"), ("b", "c", "e"), ("d", "e", "f")]


def test_locked_structure_counts(structures):
    for name, s in structures.items():
        assert len(s.locked) == EXPECTED_LOCKED[name], name


def test_uniform_never_locked():
    for n in range(2, 9):
        for r in range(1, n):
            s = lm.locked_structure(lm.uniform(r, n))
            assert s.locked == ()


def test_locked_structure_rejects_loops():
    with pytest.raises(errors.LoopPresent):
        lm.locked_structure(lm.uniform(0, 3))


def test_locked_sets_are_closed(corpus, structures):
    # every locked L is closed in M and its complement is closed in the dual
    for m in corpus:
        s = structures[m.name]
        d = m.dual()
        ground = set(range(m.n))
        for x in s.locked:
            rl = m.rank_of(x)
            comp = sorted(ground - set(x))
            rc = d.rank_of(comp)
            for e in ground - set(x):
                assert m.rank_of(tuple(x) + (e,)) > rl
            for e in set(x):
                assert d.rank_of(tuple(comp) + (e,)) > rc


def test_disconnected_matroid_uses_components():
    # direct sum of two copies of mk4: locked sets are those of the components
    a = lm.mk4()
    shifted = [tuple(e + 6 for e in b) for b in a.bases]
    bases = [b1 + b2 for b1 in a.bases for b2 in shifted]
    m = lm.from_bases(12, bases, name="mk4+mk4")
    s = lm.locked_structure(m)
    left = {x for x in s.locked if max(x) < 6}
    right = {tuple(e - 6 for e in x) for x in s.locked if min(x) >= 6}
    assert left == set(a.bases and lm.locked_structure(a).locked)
    assert right == set(lm.locked_structure(a).locked)
    assert len(s.locked) == 8


def test_k_locked_decision_mk4():
    v = lm.k_locked_decision(lm.mk4(), 1)
    assert v.yes and v.locked_count == 4 and v.threshold == 6
    assert v.structure is not None
    v0 = lm.k_locked_decision(lm.mk4(), 0)
    assert not v0.yes and v0.threshold == 1
    assert v0.locked_count is None and v0.structure is None


def test_k_locked_decision_uniform():
    v = lm.k_locked_decision(lm.uniform(3, 7), 0)
    assert v.yes and v.locked_count == 0


def test_k_locked_constant_scaling():
    # c scales the threshold: with c = 4, mk4 is within the k=0 budget
    v = lm.k_locked_decision(lm.mk4(), 0, c=4)
    assert v.yes and v.threshold == 4 and v.locked_count == 4


def test_dual_structure_mk4():
    s = lm.locked_structure(lm.mk4())
    ds = lm.dual_structure(s)
    assert ds.locked == ((0, 1, 2), (0, 3, 5), (1, 3, 4), (2, 4, 5))
    assert [ds.rho[x] for x in ds.locked] == [2, 2, 2, 2]
    assert ds.rank == 3


def test_dual_structure_involution(structures):
    for s in structures.values():
        assert lm.dual_structure(lm.dual_structure(s)) == s


def test_dual_structure_equals_dual_enumeration(corpus, structures):
    for m in corpus:
        assert lm.dual_structure(structures[m.name]) == lm.locked_structure(m.dual())


def test_dual_structure_matches_the_dual_on_the_stress_inputs(corpus):
    # the whole structure, rho on every stored set included, of the corpus,
    # seven stress inputs and the duals of all of them
    stress = [lm.uniform(5, 10), lm.graphic(5, tuple(itertools.combinations(range(5), 2))),
              parse_gen_spec("twosum:mk4+mk4@a,f0")]
    stress += [build() for name, build in STRESS_TIER.items() if name != "uniform(8,16)"]
    battery = [x for m in list(corpus) + stress for x in (m, m.dual())]
    assert len(battery) == 56
    for m in battery:
        assert lm.dual_structure(lm.locked_structure(m)) == lm.locked_structure(m.dual()), m.name


def test_dual_structure_ranks_exact_on_a_disconnected_matroid():
    # U(1,3)+U(1,2): the closure formulas of connected matroids gave the
    # dual's coparallel classes {d,e} and {a,b,c} ranks 2 and 3
    m = lm.from_bases(5, [(a, b) for a in range(3) for b in (3, 4)])
    ds = lm.dual_structure(lm.locked_structure(m))
    assert [ds.rho[c] for c in ds.coparallel] == [1, 2]
    assert ds == lm.locked_structure(m.dual())


def test_dual_structure_is_for_connected_matroids_only():
    # M(K4)+U(1,2): the dual's locked sets are complements within M(K4)'s
    # component, but dual_structure complements in E and keeps {6,7}; tsd
    # refuses such input before it calls dual_structure
    mk4 = lm.mk4()
    m = lm.from_bases(8, [b + (y,) for b in mk4.bases for y in (6, 7)])
    assert not lm.is_connected(m)
    got = lm.dual_structure(lm.locked_structure(m)).locked
    want = lm.locked_structure(m.dual()).locked
    assert (0, 1, 2, 6, 7) in got and (0, 1, 2) not in got
    assert (0, 1, 2) in want and got != want
    with pytest.raises(errors.Disconnected):
        lm.tsd(m)


def test_dual_structure_u24_fixed_point():
    s = lm.locked_structure(lm.uniform(2, 4))
    assert lm.dual_structure(s) == s


def test_locked_count_self_dual(structures):
    for name, s in structures.items():
        assert len(s.locked) == len(lm.dual_structure(s).locked)


def test_two_sum_locked_bounds(corpus_by_name, structures):
    # empirical bound for 2-sums in the corpus, and the uniform-2-sum bound
    pairs = {
        "twosum1": ("uniform(2,4)", "uniform(2,4)"),
        "twosum2": ("uniform(2,5)", "uniform(2,4)"),
        "twosum3": ("uniform(3,5)", "uniform(2,5)"),
    }
    for name, (a, b) in pairs.items():
        t = corpus_by_name[name]
        la = EXPECTED_LOCKED[a]
        lb = EXPECTED_LOCKED[b]
        lt = len(structures[name].locked)
        assert lt <= la + lb + (t.n + 2)
        assert lt <= t.n  # 2-sums of uniforms stay within |E|


def test_locked_bound_on_named(structures, corpus_by_name):
    for name in ("mk4", "whirl3", "q6", "p6", "vamos", "twosum1", "twosum2", "twosum3"):
        assert len(structures[name].locked) <= corpus_by_name[name].n


def test_two_sum_of_named_matroids_bound():
    # empirical record: gluing two locked-rich matroids keeps the locked count
    # within l1 + l2 + |E1| + |E2|
    for (a, b, e1, e2) in (
        (lm.mk4(), lm.with_names(lm.mk4(), tuple("uvwxyz")), 0, 0),
        (lm.mk4(), lm.uniform(2, 4, prefix="f"), 5, 0),
        (lm.whirl3(), lm.uniform(2, 5, prefix="f"), 2, 1),
    ):
        la = len(lm.locked_structure(a).locked)
        lb = len(lm.locked_structure(b).locked)
        t = lm.two_sum(a, b, e1, e2)
        lt = len(lm.locked_structure(t).locked)
        assert lt <= la + lb + a.n + b.n, (a.name, b.name, lt)


def test_structure_text_mk4():
    out = lm.structure_text(lm.locked_structure(lm.mk4()))
    assert out.startswith("# format: 1\nground 6\nelements a,b,c,d,e,f\nrank 3\n")
    assert "L: {a,b,d} rank=2" in out
    assert out == lm.structure_text(lm.locked_structure(lm.mk4()))  # bit-exact


def test_k_locked_decision_enumerates_once(corpus, monkeypatch):
    # the verdict's structure is assembled from the sets it counted: equal to
    # locked_structure, for as many lockedness tests as one enumeration
    calls = [0]
    original = locked._is_locked_in_component

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(locked, "_is_locked_in_component", counted)
    k5 = tuple(itertools.combinations(range(5), 2))
    for m in list(corpus) + [lm.graphic(5, k5, name="mk5")]:
        calls[0] = 0
        s = lm.locked_structure(m)
        once = calls[0]
        calls[0] = 0
        verdict = lm.k_locked_decision(m, 2)
        assert verdict.yes and verdict.structure == s, m.name
        assert calls[0] == once, m.name


def _cyclic_flat_battery(corpus):
    """The corpus, more seeded 2-sums, the double 2-sum, M(K4)+M(K4) and
    shuffled direct sums of two to four components, each with its dual."""
    a = lm.two_sum(lm.uniform(2, 4), lm.uniform(2, 5, prefix="f"), 3, 0)
    ms = list(corpus) + lm.seeded_two_sums(2) + lm.seeded_two_sums(3)
    ms += [lm.two_sum(a, lm.uniform(2, 4, prefix="g"), a.n - 1, 0),
           parse_gen_spec("twosum:mk4+mk4@a,f0")]
    rng = Random(5)
    u24 = (4, list(itertools.combinations(range(4), 2)))
    k4, w3 = ((m.n, list(m.bases)) for m in (lm.mk4(), lm.whirl3()))
    u23 = (3, list(itertools.combinations(range(3), 2)))
    for parts in ((k4, u24), (w3, u23, u24), (u23, u23, u23, u24), (k4, w3)):
        ms.append(lm.from_bases(*shuffled_direct_sum(parts, rng)))
    return [x for m in ms for x in (m, m.dual())]


def test_locked_sets_are_cyclic_flats_of_their_component(corpus):
    # the cyclic-flat filter is exact: every locked set is a cyclic flat of
    # its component, and the enumeration over the cyclic-flat lanes finds
    # the same sets as the walk over every submask
    battery = _cyclic_flat_battery(corpus)
    for m in battery:
        s = lm.locked_structure(m)
        comps = components(m._rank_table(), m.full_mask)
        for x in s.locked:
            comp = next(c for c in comps if c >> x[0] & 1)
            assert naive_is_cyclic_flat(m.bases, bits_of(comp), x), (m.name, x)
        assert sorted(locked._locked_iter(m)) == sorted(reference_locked_iter(m)), m.name


def test_component_shares_of_the_sweep_match_the_reference(corpus):
    # on a matroid without loops, the cyclic flats of M inside a component
    # are the cyclic flats of that component: each share of the one sweep
    # equals the per-component sweep it replaced
    checked = Counter()
    for m in _cyclic_flat_battery(corpus) + lane_battery(corpus):
        if m.loops():
            continue
        ranks = m._rank_table()
        every = list(cyclic_flats(ranks, m.n))
        comps = m._components()
        for comp in comps:
            share = [x for x in every if x | comp == comp]
            assert share == reference_component_flats(ranks, m.n, comp), (m.name, comp)
        checked[len(comps)] += 1
    # 133 of the 136 matroids, by component count: the direct sums and their
    # duals, U(4,4) and U(16,16), whose elements are coloops; the three of
    # rank 0, all loops, are left out
    assert checked == {1: 123, 2: 4, 3: 2, 4: 3, 16: 1}


def test_one_rank_step_sweep_per_call(corpus, monkeypatch):
    # locked_structure, k_locked_decision and is_locked each sweep the rank
    # steps once, whatever the component count
    sums = [m for m in _cyclic_flat_battery(corpus) if len(m._components()) > 1]
    assert sorted(len(m._components()) for m in sums) == [2, 2, 2, 2, 3, 3, 4, 4]
    calls = [0]
    original = matroid._rank_steps

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(matroid, "_rank_steps", counted)

    def sweeps(query):
        calls[0] = 0
        answer = query()
        assert calls[0] == 1, m.bases
        return answer

    for m in sums:
        s = sweeps(lambda: lm.locked_structure(m))
        assert sweeps(lambda: lm.k_locked_decision(m, 2)).structure == s
        first, second = m._components()[:2]
        # a locked set, a component and a set that meets two components
        queries = list(s.locked[:1]) + [bits_of(first), (bits_of(first)[0], bits_of(second)[0])]
        for x in queries:
            assert sweeps(lambda: lm.is_locked(m, x)) == (x in s.locked), (m.bases, x)


def test_locked_iter_matches_reference(corpus):
    # the corpus, the stress tier, relabelled 2-sums and the edge cases
    # n = 1, rank 0 and U(16,16), each with its dual
    for m in lane_battery(corpus):
        assert sorted(locked._locked_iter(m)) == sorted(reference_locked_iter(m)), m.name


def test_k_locked_decision_aborts_past_the_threshold(monkeypatch):
    # M(K6) has more locked sets than ceil(n**0) = 1: the decision stops
    # testing at the second one it finds
    mk6 = STRESS_TIER["mk6"]()
    calls = [0]
    original = locked._is_locked_in_component

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(locked, "_is_locked_in_component", counted)
    lm.locked_structure(mk6)
    full = calls[0]
    calls[0] = 0
    verdict = lm.k_locked_decision(mk6, 0)
    assert not verdict.yes and verdict.threshold == 1
    assert verdict.locked_count is None and verdict.structure is None
    assert 2 <= calls[0] < full


def alternating_sizes(corpus):
    """The corpus, each matroid followed by one of the stress tier, U(8,16)
    included: no two consecutive matroids have the same size."""
    big = [build() for build in STRESS_TIER.values()]
    return [x for i, m in enumerate(corpus) for x in (m, big[i % len(big)])]


def test_locked_structure_lists_the_lane_patterns_once(corpus, monkeypatch):
    # the rank table, the components and the cyclic flats of one call all
    # read the memoized lane constants: built once for a size larger than
    # any before, and not at all for a size at or below the largest held,
    # so alternating sizes rebuild nothing; the structure is the one built
    # on a table that was already there
    ms = alternating_sizes(corpus)  # builds tables up to n = 16
    empty = (0, (), 1, 0)  # n = 0's constants, as at import
    monkeypatch.setattr(_bits, "_lanes", empty)
    builds = top = 0
    for m in ms:
        before = _bits._lanes
        s = lm.locked_structure(Matroid(m.ground, m._basis_masks))
        builds += _bits._lanes is not before
        top = max(top, m.n)
        assert _bits._lanes[0] == top and s == lm.locked_structure(m), m.name
    # n = 3, then the stress tier's 12, 14, 15 and 16, each larger than any
    # before it
    assert builds == 5
    # seventeen elements are refused before any pattern is built
    monkeypatch.setattr(_bits, "_lanes", empty)
    with pytest.raises(errors.TooLarge, match="got 17$"):
        lm.locked_structure(Matroid(GroundSet.default(17), [0b11]))
    assert _bits._lanes is empty


def test_locked_structure_on_alternating_sizes_matches_the_references(corpus):
    # sizes alternate in one process, so every call follows a memo of
    # another size's patterns: the table and the locked family still agree
    # with the per-subset oracles
    for m in alternating_sizes(corpus):
        fresh = Matroid(m.ground, m._basis_masks)
        s = lm.locked_structure(fresh)
        assert fresh._rank_table() == bytes(reference_rank_table(fresh)), fresh.name
        want = sorted((bits_of(x) for x in reference_locked_iter(fresh)), key=subset_key)
        assert list(s.locked) == want, fresh.name


def _fields(s):
    return (s.ground_size, s.names, s.parallel, s.coparallel, s.locked, list(s.rho.items()))


def test_mask_assembly_matches_the_tuple_path(corpus):
    # the structure assembled on masks against the tuple-path assembly it
    # replaced: every field, and rho's keys, values and insertion order, on
    # the corpus and seeded relabellings of it (where a class of two or more
    # elements may hold smaller elements than a singleton, so the order by
    # size and then elements is not the order of the masks), more seeded
    # 2-sums, the stress tier, seeded sparse paving matroids and
    # M(K4)+M(K4) at a cut vertex, which is disconnected; the closures are
    # the same families as tuples
    rng = Random(35)
    ms = list(corpus) + lm.seeded_two_sums(2) + lm.seeded_two_sums(3)
    ms += [lm.relabel(m, rng.sample(range(m.n), m.n)) for m in corpus for _ in range(3)]
    ms += [build() for build in STRESS_TIER.values()]
    ms += [sparse_paving(12, 6, 1), sparse_paving(14, 7, 1), sparse_paving(14, 7, 2)]
    ms.append(parse_gen_spec("graphic:7:0-1,0-2,0-3,1-2,1-3,2-3,3-4,3-5,3-6,4-5,4-6,5-6"))
    assert not lm.is_connected(ms[-1])
    for m in ms:
        for x in (m, m.dual()):
            want = reference_locked_structure(x)
            got = lm.locked_structure(Matroid(x.ground, x._basis_masks))
            assert _fields(got) == _fields(want), x.name
            assert lm.closures(x) == (want.parallel, want.coparallel), x.name
            verdict = lm.k_locked_decision(x, 2, 2)
            assert verdict.yes and _fields(verdict.structure) == _fields(want), x.name


def test_mask_assembly_refuses_as_the_tuple_path_did():
    # TooLarge, then the least loop, then the least coloop, with the same
    # messages
    cases = [Matroid(GroundSet.default(17), [0b11]), lm.uniform(0, 3), lm.uniform(3, 3),
             lm.from_bases(3, [(1,)]), lm.from_bases(4, [(0, 3)])]
    for m in cases:
        refusals = []
        for f in (reference_locked_structure, lm.locked_structure, lm.closures):
            with pytest.raises(errors.LockedMatroidError) as exc:
                f(Matroid(m.ground, m._basis_masks))
            refusals.append((type(exc.value), str(exc.value)))
        assert refusals[0] == refusals[1] == refusals[2], m
