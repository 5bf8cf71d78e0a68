import itertools
import re
from dataclasses import replace
from random import Random

import pytest

import lockedmatroid as lm
from lockedmatroid import errors
from lockedmatroid.lattice import LEVELS, _shape
from lockedmatroid.locked import LockedStructure
from helpers import brute_force_iso, reference_shape_arcs
from test_stress_tier import STRESS_TIER

# (vertices, arcs) of the reduced/augmented lattice per corpus matroid,
# frozen from a first construction and checked against hand counts where
# the structure is small enough to count directly
EXPECTED_SHAPE = {
    "uniform(1,3)": (6, 7),
    "uniform(2,3)": (6, 7),
    "uniform(2,4)": (10, 12),
    "uniform(2,5)": (12, 15),
    "uniform(3,5)": (12, 15),
    "uniform(2,6)": (14, 18),
    "uniform(3,6)": (14, 18),
    "uniform(3,7)": (16, 21),
    "uniform(4,8)": (18, 24),
    "mk4": (18, 28),
    "whirl3": (17, 24),
    "q6": (16, 21),
    "p6": (15, 19),
    "vamos": (23, 41),
    "dual(mk4)": (18, 28),
    "dual(vamos)": (23, 41),
    "mk4_doubled": (19, 30),
    "dual(mk4_doubled)": (19, 31),
    "twosum1": (16, 20),
    "twosum2": (18, 23),
    "twosum3": (20, 26),
}


def check_dag_shape(d):
    n = d.vertex_count
    indeg = [0] * n
    outdeg = [0] * n
    succ = [[] for _ in range(n)]
    for (u, v) in d.arcs:
        assert u != v
        outdeg[u] += 1
        indeg[v] += 1
        succ[u].append(v)
    sources = [v for v in range(n) if indeg[v] == 0]
    sinks = [v for v in range(n) if outdeg[v] == 0]
    assert sources == [0] and d.levels[0] == "root"
    assert sinks == [n - 1] and d.levels[n - 1] == "sink"
    # acyclic: topological peel
    order = []
    deg = indeg[:]
    stack = [0]
    while stack:
        x = stack.pop()
        order.append(x)
        for y in succ[x]:
            deg[y] -= 1
            if deg[y] == 0:
                stack.append(y)
    assert len(order) == n
    # every vertex reachable from root and reaching the sink
    fwd = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for y in succ[x]:
            if y not in fwd:
                fwd.add(y)
                stack.append(y)
    pred = [[] for _ in range(n)]
    for (u, v) in d.arcs:
        pred[v].append(u)
    bwd = {n - 1}
    stack = [n - 1]
    while stack:
        x = stack.pop()
        for y in pred[x]:
            if y not in bwd:
                bwd.add(y)
                stack.append(y)
    assert fwd == set(range(n)) and bwd == set(range(n))


def test_mk4_augmented_shape():
    s = lm.locked_structure(lm.mk4())
    d = lm.augmented_lattice(s)
    assert d.vertex_count == 18
    assert len(d.arcs) == 28
    assert d.labels[0] == (0, 0)
    assert d.labels[-1] == (6, 3)
    per_level = {lv: sorted({d.labels[v] for v in range(18) if d.levels[v] == lv})
                 for lv in LEVELS}
    assert per_level["coparallel"] == [(1, 1)]
    assert per_level["parallel"] == [(1, 1)]
    assert per_level["locked"] == [(3, 2)]
    # arcs split by level pair: 6 root->S, 6 S->P, 12 P->L, 4 L->sink
    kinds = {}
    for (u, v) in d.arcs:
        kinds[(d.levels[u], d.levels[v])] = kinds.get((d.levels[u], d.levels[v]), 0) + 1
    assert kinds == {("root", "coparallel"): 6, ("coparallel", "parallel"): 6,
                     ("parallel", "locked"): 12, ("locked", "sink"): 4}


def test_u24_shape():
    s = lm.locked_structure(lm.uniform(2, 4))
    d = lm.augmented_lattice(s)
    assert d.vertex_count == 10 and len(d.arcs) == 12
    # no locked level: every parallel vertex arcs to the sink
    assert all(d.levels[v] != "locked" for v in range(10))
    assert sum(1 for (u, v) in d.arcs
               if d.levels[u] == "parallel" and d.levels[v] == "sink") == 4


def test_root_outdegree_is_coparallel_count(structures):
    for name, s in structures.items():
        d = lm.augmented_lattice(s)
        assert sum(1 for (u, _) in d.arcs if u == 0) == len(s.coparallel)


def test_reduced_labels_mk4():
    s = lm.locked_structure(lm.mk4())
    d = lm.reduced_lattice(s)
    assert d.labels[0] == (0,)
    assert d.labels[-1] == (3,)
    for v in range(d.vertex_count):
        if d.levels[v] == "locked":
            assert d.labels[v] == (2,)
        if d.levels[v] in ("coparallel", "parallel"):
            assert d.labels[v] == (1,)


def test_reduced_relabel_invariance():
    # relabeling elements permutes the canonical family order, so the lattice
    # is reproduced up to vertex renaming
    m = lm.mk4()
    d1 = lm.reduced_lattice(lm.locked_structure(m))
    d2 = lm.reduced_lattice(lm.locked_structure(lm.relabel(m, [5, 3, 1, 0, 4, 2])))
    assert d1.vertex_count == d2.vertex_count
    assert sorted(d1.labels) == sorted(d2.labels)
    assert lm.are_isomorphic(lm.to_colored(d1), lm.to_colored(d2))[0]


def test_corpus_shapes_and_invariants(structures):
    for name, s in structures.items():
        d = lm.reduced_lattice(s)
        assert (d.vertex_count, len(d.arcs)) == EXPECTED_SHAPE[name], name
        check_dag_shape(d)
        check_dag_shape(lm.augmented_lattice(s))
        n = s.ground_size
        assert all(0 <= part <= n for lab in d.labels for part in lab)


def test_dual_lattice_vertex_counts(structures):
    # vertex counts always match; arc counts match when both closure
    # families are singletons (the closure levels are then symmetric)
    for name, s in structures.items():
        d1 = lm.reduced_lattice(s)
        d2 = lm.reduced_lattice(lm.dual_structure(s))
        assert d1.vertex_count == d2.vertex_count
        if all(len(x) == 1 for x in s.parallel + s.coparallel):
            assert len(d1.arcs) == len(d2.arcs), name


def test_dual_lattice_arc_asymmetry_boundary():
    # with a non-singleton parallel class the two lattices can differ in arc
    # count: root arcs count |S| on one side and |P| on the other
    s = lm.locked_structure(lm.mk4_doubled())
    d1 = lm.reduced_lattice(s)
    d2 = lm.reduced_lattice(lm.dual_structure(s))
    assert len(s.parallel) != len(s.coparallel)
    assert len(d1.arcs) != len(d2.arcs)


def test_nested_locked_sets_get_cover_arcs():
    # chained 2-sum with nested locked sets: {0,1,2} inside {0,1,2,3,4,5};
    # the lattice carries locked-to-locked cover arcs and flows still
    # recover the cardinalities through them
    a = lm.two_sum(lm.uniform(2, 4), lm.uniform(2, 5, prefix="f"), 3, 0)
    b = lm.two_sum(a, lm.uniform(2, 4, prefix="g"), a.n - 1, 0)
    s = lm.locked_structure(b)
    assert s.locked == ((0, 1, 2), (6, 7, 8), (0, 1, 2, 3, 4, 5), (3, 4, 5, 6, 7, 8))
    d = lm.reduced_lattice(s)
    check_dag_shape(d)
    ll = [(d.provenance[u], d.provenance[v]) for (u, v) in d.arcs
          if d.levels[u] == "locked" and d.levels[v] == "locked"]
    assert sorted(ll) == [((0, 1, 2), (0, 1, 2, 3, 4, 5)),
                          ((6, 7, 8), (3, 4, 5, 6, 7, 8))]
    sink_from = [d.provenance[u] for (u, v) in d.arcs
                 if d.levels[u] == "locked" and d.levels[v] == "sink"]
    assert sorted(sink_from) == [(0, 1, 2, 3, 4, 5), (3, 4, 5, 6, 7, 8)]
    for v in range(d.vertex_count):
        if d.levels[v] == "locked":
            assert lm.recover_cardinality(d, v) == len(d.provenance[v])
    # both isomorphism routes handle the nested shape
    d2 = lm.reduced_lattice(lm.locked_structure(lm.relabel(b, [8, 7, 6, 5, 4, 3, 2, 1, 0])))
    assert lm.are_isomorphic(lm.to_colored(d), lm.to_colored(d2))[0]
    assert lm.are_isomorphic(lm.series_encode(d), lm.series_encode(d2))[0]


def test_shape_matches_the_pairwise_scans(structures):
    # the per-element bitmasks draw the arcs of the scans over every pair of
    # sets (and every third set, for the covers); the random families
    # overlap, nest deeply and have many sets, unlike any matroid's
    cases = list(structures.values())
    cases += [lm.locked_structure(build()) for build in STRESS_TIER.values()]
    rng = Random(2024)
    for _ in range(200):
        n = rng.randint(1, 7)
        proper = [x for k in range(1, n) for x in itertools.combinations(range(n), k)]

        def family(most):
            return tuple(sorted(rng.sample(proper, rng.randint(0, min(len(proper), most))),
                                key=lambda x: (len(x), x)))

        names = tuple("e%d" % i for i in range(n))
        cases.append(LockedStructure(n, names, family(6), family(6), family(25), {}))
    for s in cases:
        assert list(_shape(s)[2]) == reference_shape_arcs(s), s


# -- max-flow cardinality recovery ------------------------------------------

def test_recover_cardinality_mk4():
    s = lm.locked_structure(lm.mk4())
    d = lm.reduced_lattice(s)
    locked_vs = [v for v in range(d.vertex_count) if d.levels[v] == "locked"]
    assert [lm.recover_cardinality(d, v) for v in locked_vs] == [3, 3, 3, 3]


def test_recover_cardinality_refuses_a_vertex_that_is_not_an_int():
    d = lm.reduced_lattice(lm.locked_structure(lm.mk4()))
    for v in ("x", None, 1.0, (1, 2)):
        with pytest.raises(errors.NotLockedVertex, match="is not a locked-level vertex$"):
            lm.recover_cardinality(d, v)


def test_recover_cardinality_corpus(structures):
    for s in structures.values():
        d = lm.reduced_lattice(s)
        for v in range(d.vertex_count):
            if d.levels[v] == "locked":
                assert lm.recover_cardinality(d, v) == len(d.provenance[v])


def test_recover_cardinality_stress_tier():
    # the chain and M(K6) have locked sets (the uniform ones none), and so
    # do their duals' structures
    locked = 0
    for build in STRESS_TIER.values():
        s = lm.locked_structure(build())
        for d in (lm.reduced_lattice(s), lm.reduced_lattice(lm.dual_structure(s))):
            for v in range(d.vertex_count):
                if d.levels[v] == "locked":
                    locked += 1
                    assert lm.recover_cardinality(d, v) == len(d.provenance[v])
    assert locked == 2 * (16 + 41)


def test_recover_cardinality_multielement_parallel_class():
    # locked set containing a 2-element parallel class: the two unit arcs
    # into that class's vertex both carry flow
    s = lm.locked_structure(lm.mk4_doubled())
    d = lm.reduced_lattice(s)
    four = [v for v in range(d.vertex_count)
            if d.levels[v] == "locked" and len(d.provenance[v]) == 4]
    assert four
    for v in four:
        assert lm.recover_cardinality(d, v) == 4


def test_recover_cardinality_errors():
    s = lm.locked_structure(lm.mk4())
    d = lm.reduced_lattice(s)
    with pytest.raises(errors.NotLockedVertex):
        lm.recover_cardinality(d, 0)
    a = lm.augmented_lattice(s)
    locked_v = next(v for v in range(a.vertex_count) if a.levels[v] == "locked")
    with pytest.raises(errors.LabelArityMismatch):
        lm.recover_cardinality(a, locked_v)


# -- series encoding -------------------------------------------------------------

def test_series_encode_mk4_bound():
    s = lm.locked_structure(lm.mk4())
    g = lm.series_encode(lm.reduced_lattice(s))
    assert g.vertex_count == 41
    assert g.vertex_count <= (4 + 2 * 6 + 2) * (6 + 1)
    assert len(g.arcs) <= ((4 + 2 * 6 + 2) ** 2) * ((6 + 1) ** 2)


def test_series_encode_bounds_corpus(structures, corpus_by_name):
    for name, s in structures.items():
        m = corpus_by_name[name]
        g = lm.series_encode(lm.reduced_lattice(s))
        bound_v = (len(s.locked) + 2 * m.n + 2) * (m.n + 1)
        assert g.vertex_count <= bound_v, name
        assert len(g.arcs) <= bound_v * bound_v, name


def test_series_encode_zero_labels_identity_shape():
    d = lm.LabeledDag(3, ((0, 1), (1, 2)), ((0,), (0,), (0,)),
                      ("root", "locked", "sink"), ((), (0,), (0, 1)))
    g = lm.series_encode(d)
    assert g.vertex_count == 3 and g.arcs == ((0, 1), (1, 2))


def test_series_encode_rejects_pair_labels():
    s = lm.locked_structure(lm.mk4())
    with pytest.raises(errors.LabelArityMismatch):
        lm.series_encode(lm.augmented_lattice(s))


def test_series_encodings_reflect_label_iso():
    # labeled-isomorphic lattices have isomorphic encodings, and the encoding
    # separates the corpus pairs the labels separate (checked by brute force
    # where small, canonical digests otherwise)
    d_mk4 = lm.reduced_lattice(lm.locked_structure(lm.mk4()))
    d_rel = lm.reduced_lattice(lm.locked_structure(lm.relabel(lm.mk4(), [2, 4, 0, 5, 1, 3])))
    d_whirl = lm.reduced_lattice(lm.locked_structure(lm.whirl3()))
    g1, g2, g3 = (lm.series_encode(d) for d in (d_mk4, d_rel, d_whirl))
    assert lm.are_isomorphic(g1, g2)[0]
    assert not lm.are_isomorphic(g1, g3)[0]
    # tiny instances: confirm with exhaustive search on the encodings
    a = lm.series_encode(lm.reduced_lattice(lm.locked_structure(lm.uniform(1, 2))))
    b = lm.series_encode(lm.reduced_lattice(lm.locked_structure(lm.uniform(1, 2))))
    assert brute_force_iso(a, b)
    c = lm.series_encode(lm.reduced_lattice(lm.locked_structure(lm.uniform(1, 3))))
    assert not brute_force_iso(a, c)


# -- DOT export ---------------------------------------------------------------------

def test_dot_deterministic():
    s = lm.locked_structure(lm.mk4())
    out1 = lm.dot_text(lm.reduced_lattice(s))
    out2 = lm.dot_text(lm.reduced_lattice(lm.locked_structure(lm.mk4())))
    assert out1 == out2
    assert out1.startswith("digraph locked_lattice {\n")
    assert '  v0 [label="0"];' in out1
    aug = lm.dot_text(lm.augmented_lattice(s))
    assert '  v0 [label="(0,0)"];' in aug


def test_dot_refuses_a_label_of_another_arity():
    # a label is one number (reduced) or two (augmented); an empty or a
    # three-number label is refused as series_encode refuses a pair
    d = lm.reduced_lattice(lm.locked_structure(lm.mk4()))
    for lab in ((), (1, 2, 3)):
        bad = replace(d, labels=d.labels[:3] + (lab,) + d.labels[4:])
        with pytest.raises(errors.LabelArityMismatch, match=re.escape(repr(lab))):
            lm.dot_text(bad)
