"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Stated runtime budgets are asserted with time.perf_counter around the
relevant computation, with solver caches cleared first where they could
hide work.
"""

import itertools
import math
import time
from random import Random

import lockedmatroid as lm
from lockedmatroid._bits import mask_of
from lockedmatroid.polytope import _program, build_P, member, member_Q, sample_rational_points

from test_locked import EXPECTED_LOCKED

SEED = 1


def report(num, ok, msg):
    print("criterion %02d %s: %s" % (num, "PASS" if ok else "FAIL", msg))
    assert ok, "criterion %d: %s" % (num, msg)


def test_criterion_01_mk4_locked_structure_and_lattice():
    t0 = time.perf_counter()
    s = lm.locked_structure(lm.mk4())
    named = [tuple(s.names[i] for i in x) for x in s.locked]
    ok = named == [("a", "b", "d"), ("a", "c", "f"), ("b", "c", "e"), ("d", "e", "f")]
    ok = ok and all(s.rho[x] == 2 and len(x) == 3 for x in s.locked)
    d = lm.augmented_lattice(s)
    ok = ok and d.vertex_count == 18 and len(d.arcs) == 28
    ok = ok and d.labels[0] == (0, 0) and d.labels[-1] == (6, 3)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, "mk4: 4 locked triangles at (3,2), lattice 18/28, "
                  "root (0,0), sink (6,3) in %.3fs" % elapsed)


def test_criterion_02_uniform_matroids_zero_locked():
    t0 = time.perf_counter()
    count = 0
    ok = True
    for n in range(2, 9):
        for r in range(1, n):
            s = lm.locked_structure(lm.uniform(r, n))
            ok = ok and s.locked == ()
            count += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(2, ok, "all %d uniforms (n<=8) have no locked subsets, exhaustive, "
                  "%.2fs" % (count, elapsed))


def test_criterion_03_one_locked_spot_checks(corpus_by_name, structures):
    names = ["mk4", "whirl3", "q6", "p6", "vamos", "twosum1", "twosum2", "twosum3"]
    ok = True
    counts = {}
    for name in names:
        m = corpus_by_name[name]
        got = len(structures[name].locked)
        counts[name] = got
        ok = ok and got == EXPECTED_LOCKED[name] and got <= m.n
    report(3, ok, "locked counts match frozen regressions and stay within |E|: %s"
           % (", ".join("%s=%d" % kv for kv in counts.items())))


def test_criterion_04_vertices_are_bases(corpus, structures):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for m in corpus:
        if m.n > 8:
            continue
        sys = build_P(structures[m.name])
        ok = ok and lm.zero_one_vertices(sys, m.rank) == m.bases
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(4, ok, "0/1 points of the row system equal the basis list for %d "
                  "matroids (n<=8), %.2fs" % (checked, elapsed))


def test_criterion_05_lp_equals_greedy(corpus, structures):
    _program.cache_clear()
    rng = Random(SEED)
    t0 = time.perf_counter()
    ok = True
    trials = 0
    for m in corpus:
        sys = build_P(structures[m.name])
        for _ in range(100):
            w = [rng.randint(-10, 10) for _ in range(m.n)]
            opt, _ = lm.lp_maximize(sys, w)
            ok = ok and opt == lm.greedy_max_basis(m, w)[0]
            trials += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(5, ok, "exact LP optimum = greedy basis value on %d seeded weight "
                  "vectors (%d matroids x 100), %.2fs" % (trials, len(corpus), elapsed))


def test_criterion_06_p_equals_q(corpus, structures):
    rng = Random(SEED)
    ok = True
    matroids = 0
    for m in corpus:
        if m.n > 6:
            continue
        sys = build_P(structures[m.name])
        for bits in itertools.product((0, 1), repeat=m.n):
            ok = ok and member(sys, bits)[0] == member_Q(m, bits)
        for p in sample_rational_points(m.n, m.rank, 1000, rng):
            ok = ok and member(sys, p)[0] == member_Q(m, p)
        matroids += 1
    report(6, ok, "row membership matches subset-rank membership on all 0/1 "
                  "vectors and 1000 rational points for %d matroids (n<=6)" % matroids)


def test_criterion_07_box_implied(corpus, structures):
    ok = True
    for m in corpus:
        sys = build_P(structures[m.name])
        for i in range(m.n):
            w = [0] * m.n
            w[i] = 1
            hi, _ = lm.lp_maximize(sys, w, add_box=False)
            w[i] = -1
            lo, _ = lm.lp_maximize(sys, w, add_box=False)
            ok = ok and 0 <= -lo and hi <= 1
    report(7, ok, "coordinate min/max over the box-free row system stays in "
                  "[0,1] for all %d matroids" % len(corpus))


def test_criterion_08_axiom_validation(corpus):
    from test_axioms import mutations_mk4, oracle_for
    ok = True
    for m in corpus:
        ok = ok and lm.validate(lm.extract_system(m), oracle_for(m)).ok
    battery = mutations_mk4()
    ok = ok and len(battery) >= 6
    oracle = oracle_for(lm.mk4())
    detected = 0
    for name, mutated, _ in battery:
        if not lm.validate(mutated, oracle).ok:
            detected += 1
    ok = ok and detected == len(battery)
    mism = 0
    for m in corpus:
        if m.n > 10:
            continue
        sysd = lm.extract_system(m)
        fam = (set(sysd.parallel) | set(sysd.coparallel) | set(sysd.locked)
               | {(), tuple(range(m.n))})
        ranks = m._rank_table()
        ext = lm.RankExtender(sysd)
        for k in range(m.n + 1):
            for comb in itertools.combinations(range(m.n), k):
                if comb not in fam and ext.value(comb) != ranks[mask_of(comb)]:
                    mism += 1
    ok = ok and mism == 0
    report(8, ok, "0 violations on %d matroids, %d/%d mutations detected, "
                  "rank recursion exact on all subsets (%d mismatches)"
           % (len(corpus), detected, len(battery), mism))


def _corpus_pairs(corpus):
    pairs = []
    for i, m1 in enumerate(corpus):
        for m2 in corpus[i + 1:]:
            if m1.n == m2.n:
                pairs.append((m1, m2))
    rng = Random(SEED)
    for m in corpus:
        perm = list(range(m.n))
        rng.shuffle(perm)
        pairs.append((m, lm.relabel(m, perm, name="relabel(%s)" % m.name)))
    return pairs


def test_criterion_09_lattice_oracle_equivalence(corpus):
    pairs = _corpus_pairs(corpus)
    ok = len(pairs) >= 40
    agreements = 0
    iso_count = 0
    for (m1, m2) in pairs:
        fast = lm.mip_locked(m1, m2).answer
        slow = lm.mip_bruteforce(m1, m2).answer
        if fast != slow:
            print("counterexample: %s vs %s: lattice=%r bruteforce=%r"
                  % (m1.name, m2.name, fast, slow))
            ok = False
        else:
            agreements += 1
            iso_count += fast
    relabeled_ok = all(lm.mip_locked(m1, m2).answer
                       for (m1, m2) in pairs if m2.name.startswith("relabel("))
    ok = ok and relabeled_ok
    report(9, ok, "lattice route agrees with brute force on %d/%d same-size "
                  "pairs (%d isomorphic, relabelings all isomorphic)"
           % (agreements, len(pairs), iso_count))


def test_criterion_10_series_encoding(corpus, structures):
    pairs = _corpus_pairs(corpus)
    ok = True
    for (m1, m2) in pairs:
        a = lm.mip_locked(m1, m2, route="labels").answer
        b = lm.mip_locked(m1, m2, route="series").answer
        if a != b:
            print("route counterexample: %s vs %s: labels=%r series=%r"
                  % (m1.name, m2.name, a, b))
            ok = False
    for m in corpus:
        s = structures[m.name]
        g = lm.series_encode(lm.reduced_lattice(s))
        bound = (len(s.locked) + 2 * m.n + 2) * (m.n + 1)
        ok = ok and g.vertex_count <= bound
    report(10, ok, "series-arc route matches the labeled route on %d pairs and "
                   "every encoding respects the size bound" % len(pairs))


def test_criterion_11_zero_locked_path(corpus, structures):
    l0 = [m for m in corpus if not structures[m.name].locked]
    pairs = [(a, b) for i, a in enumerate(l0) for b in l0[i:] if a.n == b.n]
    ok = bool(pairs)
    max_ops = 0
    for (m1, m2) in pairs:
        rep = lm.mip_zero_locked(m1, m2)
        ok = ok and rep.answer == lm.mip_bruteforce(m1, m2).answer
        n = m1.n
        budget = 8 * n * max(1, math.ceil(math.log2(n))) + 8 * n + 16
        ok = ok and rep.opcount <= budget
        max_ops = max(max_ops, rep.opcount)
    report(11, ok, "closure-sequence route matches brute force on %d L0 pairs; "
                   "operation counts within the sort-plus-scan budget (max %d)"
           % (len(pairs), max_ops))


def test_criterion_12_duality(corpus, structures):
    ok = True
    for m in corpus:
        s = structures[m.name]
        ds = lm.dual_structure(s)
        ok = ok and ds == lm.locked_structure(m.dual())
        ok = ok and len(s.locked) == len(ds.locked)
    expected = {"uniform(2,4)": True, "uniform(1,3)": False}
    for m in (lm.uniform(2, 4), lm.uniform(1, 3), lm.mk4(), lm.vamos(),
              lm.q6(), lm.p6()):
        lat = lm.tsd(m).answer
        brute = lm.mip_bruteforce(m, m.dual()).answer
        ok = ok and lat == brute
        if m.name in expected:
            ok = ok and lat == expected[m.name]
    report(12, ok, "dual locked structure equals the dual's enumeration on all "
                   "%d matroids; self-duality answers agree across methods"
           % len(corpus))


def test_criterion_13_flow_recovery(corpus, structures):
    ok = True
    vertices = 0
    for m in corpus:
        d = lm.reduced_lattice(structures[m.name])
        for v in range(d.vertex_count):
            if d.levels[v] == "locked":
                ok = ok and lm.recover_cardinality(d, v) == len(d.provenance[v])
                vertices += 1
    report(13, ok, "max-flow cardinality recovery exact on all %d locked "
                   "vertices across the corpus" % vertices)
