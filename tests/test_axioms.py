import contextlib
import dataclasses
import hashlib
import itertools
import random
import re
import signal

import pytest

import lockedmatroid as lm
from lockedmatroid import errors
from lockedmatroid._bits import bits_of, mask_of, splits


def oracle_for(m):
    return m


def replace(sys, **kw):
    return dataclasses.replace(sys, **kw)


# -- extraction and validation on genuine matroids -----------------------------

def test_extract_mk4_clean():
    m = lm.mk4()
    report = lm.validate(lm.extract_system(m), oracle_for(m))
    assert report.ok
    assert report.text() == "ok: 0 violations\n"


def test_validate_corpus_clean(corpus):
    for m in corpus:
        assert lm.validate(lm.extract_system(m), oracle_for(m)).ok, m.name


def test_validate_missing_domain():
    m = lm.mk4()
    sys = lm.extract_system(m)
    r2 = dict(sys.rho)
    del r2[(0, 1, 3)]
    with pytest.raises(errors.DomainMismatch):
        lm.validate(replace(sys, rho=r2), oracle_for(m))


def test_validate_refuses_a_matroid_of_another_size():
    sys = lm.extract_system(lm.mk4())
    for m in (lm.uniform(2, 5), lm.vamos()):
        with pytest.raises(errors.DomainMismatch, match="6 elements, the matroid %d" % m.n):
            lm.validate(sys, m)


# -- mutation battery: every single-field mutation must be caught ----------------

def mutations_mk4():
    m = lm.mk4()
    sys = lm.extract_system(m)
    out = []

    r2 = dict(sys.rho)
    r2[(0, 1, 3)] = 1  # locked triangle rank 2 -> 1
    out.append(("locked-rank-bump-down", replace(sys, rho=r2), {"L6", "L12", "L13"}))

    r2 = dict(sys.rho)
    r2[(0,)] = 2  # parallel class rank 1 -> 2
    out.append(("parallel-rank-bump", replace(sys, rho=r2), {"L6", "L8"}))

    r2 = dict(sys.rho)
    r2[tuple(range(6))] = 4  # rank of E bumped
    out.append(("ground-rank-bump", replace(sys, rho=r2), {"L6", "L9", "L11"}))

    merged = ((0, 1),) + sys.parallel[2:]
    r2 = dict(sys.rho)
    r2[(0, 1)] = 1  # claim {a,b} is one parallel class
    r2[(2, 3, 4, 5)] = 3
    out.append(("parallel-merge", replace(sys, parallel=merged, rho=r2),
                {"L5", "L6"}))

    merged = ((0, 1),) + sys.coparallel[2:]
    r2 = dict(sys.rho)
    r2[(0, 1)] = 2
    r2[(2, 3, 4, 5)] = 3
    out.append(("coparallel-merge", replace(sys, coparallel=merged, rho=r2), {"L5"}))

    dropped = sys.parallel[1:]  # element 0 in no parallel class
    out.append(("parallel-class-dropped", replace(sys, parallel=dropped), {"L2"}))

    extra = tuple(sorted(sys.locked + ((0,),)))
    out.append(("locked-equals-closure", replace(sys, locked=extra), {"L4", "L12"}))

    extra = tuple(sorted(sys.locked + ((0, 1),)))
    r2 = dict(sys.rho)
    r2[(0, 1)] = 2  # an independent pair is never locked: every split is tight
    out.append(("locked-independent-pair", replace(sys, locked=extra, rho=r2),
                {"L15"}))

    return out


def test_mutations_each_detected():
    battery = mutations_mk4()
    assert len(battery) >= 6
    oracle = oracle_for(lm.mk4())
    for name, mutated, expected_axioms in battery:
        report = lm.validate(mutated, oracle)
        assert not report.ok, name
        got = {v.axiom for v in report.violations}
        assert got & expected_axioms, (name, got)


def test_locked_set_removal_breaks_rank_extension():
    # removing a locked set is invisible to the membership axioms but breaks
    # the rank recursion: some subset no longer reaches its true rank
    m = lm.mk4()
    sys = lm.extract_system(m)
    mutated = replace(sys, locked=sys.locked[1:],
                      rho={k: v for k, v in sys.rho.items() if k != sys.locked[0]})
    ranks = m._rank_table()
    ext = lm.RankExtender(mutated)
    bad = [comb for k in range(1, 6)
           for comb in itertools.combinations(range(6), k)
           if comb not in set(mutated.parallel) | set(mutated.coparallel)
           | set(mutated.locked)
           and ext.value(comb) != ranks[mask_of(comb)]]
    assert (0, 1, 3) in bad


# -- RankExtender -----------------------------------------------------------------

def test_rank_extend_mk4_examples():
    ext = lm.RankExtender(lm.extract_system(lm.mk4()))
    assert ext.value((0, 1)) == 2  # {a,b}
    trace = ext.trace(iter((0, 1)))  # any iterable of indices, read once
    assert trace[0][0] == "P2" and trace[0][2] == (0,)
    assert trace[-1][0] == "base" and trace[-1][1] == (1,)
    assert ext.value(e for e in (0, 1, 2, 3)) == 3  # {a,b,c,d}
    assert ext.trace((0, 1, 3)) == [("base", (0, 1, 3), None, 2)]  # a locked set
    for bad in ((7,), (-1,), (0, 1.0)):
        with pytest.raises(errors.OutOfRange):
            ext.value(bad)
        with pytest.raises(errors.OutOfRange):
            ext.trace(bad)


def test_rank_extender_refuses_a_system_missing_stored_ranks():
    # the stored domain is checked once, when the extender is built, whatever
    # rule would read the missing rank later (P4 reads r(E\S); no rule
    # reads r(E\P))
    m = lm.mk4_doubled()
    sys = lm.extract_system(m)
    assert (0, 6) in sys.parallel and (0,) in sys.coparallel
    for gone in (tuple(range(7)), (1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5)):  # E, E\S, E\P
        r = {x: v for x, v in sys.rho.items() if x != gone}
        with pytest.raises(errors.DomainMismatch,
                           match=r"^missing stored ranks for \[%s\]$" % re.escape(repr(gone))):
            lm.RankExtender(replace(sys, rho=r))


def _with_bad_index(sys, where, bad):
    if where == "locked":
        return replace(sys, locked=sys.locked + ((0, bad),))
    if where == "rank key":
        return replace(sys, rho={**sys.rho, (0, bad): 2})
    return replace(sys, **{where: getattr(sys, where) + ((bad,),)})


@pytest.mark.parametrize("where", ["locked", "parallel", "coparallel", "rank key"])
@pytest.mark.parametrize("bad", [-1, 6, 0.0, "a"], ids=repr)
def test_rank_extender_refuses_an_index_off_the_ground_set(where, bad):
    # checked before the stored-domain check, which complements each
    # closure class by mask; validate builds the extender first
    m = lm.mk4()
    sys = _with_bad_index(lm.extract_system(m), where, bad)
    with pytest.raises(errors.OutOfRange, match=r"^element index .* not in 0\.\.5$"):
        lm.RankExtender(sys)
    with pytest.raises(errors.OutOfRange):
        lm.validate(sys, m)


ILL_TYPED = {
    "ground_size '6'": lambda sys: replace(sys, ground_size="6"),
    "rank value 'a'": lambda sys: replace(sys, rho={**sys.rho, (0, 1, 3): "a"}),
    "rank value 1.5": lambda sys: replace(sys, rho={**sys.rho, (0, 1, 3): 1.5}),
    "rank key 5": lambda sys: replace(sys, rho={**sys.rho, 5: 1}),
    "locked member 5": lambda sys: replace(sys, locked=sys.locked + (5,)),
    "locked member [0, 1, 3]": lambda sys: replace(sys, locked=([0, 1, 3],) + sys.locked[1:]),
    "parallel member 5": lambda sys: replace(sys, parallel=sys.parallel + (5,)),
}


@pytest.mark.parametrize("edit", ILL_TYPED.values(), ids=ILL_TYPED.keys())
def test_rank_extender_refuses_ill_typed_fields(edit):
    # each raised a raw TypeError, or was accepted (1.5 leaked into value),
    # before the extender checked the types; validate builds it first
    m = lm.mk4()
    sys = edit(lm.extract_system(m))
    with pytest.raises(errors.InvalidParams, match=r"is not (an int|a tuple of element indices)$"):
        lm.RankExtender(sys)
    with pytest.raises(errors.InvalidParams):
        lm.validate(sys, m)


def test_rank_extender_refuses_a_ground_set_over_max_n():
    sys = replace(lm.extract_system(lm.mk4()), ground_size=17)
    with pytest.raises(errors.TooLarge, match="capped at 16, got 17"):
        lm.RankExtender(sys)


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError("no answer within %d s" % seconds)

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_mixed_chain_below_zero_raises():
    # r(X) = -1 or 0 on each of M(K4)'s 18 stored sets.  A chain value below
    # zero is a negative cycle of the fixpoint, which never ended on the 18
    # edits r({e}) = -1 and r(E\{e}) in {-1, 0}; a locked triangle at -1
    # is refused the same way.  Every other edit still answers.
    sys = lm.extract_system(lm.mk4())
    assert len(sys.rho) == 18
    answers = {}
    for x in sys.rho:
        for val in (-1, 0):
            ext = lm.RankExtender(replace(sys, rho={**sys.rho, x: val}))
            with time_limit(5):
                try:
                    answers[x, val] = ext.value(())
                except errors.NoDecomposition as exc:
                    assert re.fullmatch(r"P1\.\.P4 chain for \(.*\) falls below zero",
                                        str(exc)), exc
                    with pytest.raises(errors.NoDecomposition):
                        ext.trace((0, 1))
                    answers[x, val] = None
    refused = ({((e,), -1) for e in range(6)}
               | {(tuple(f for f in range(6) if f != e), val)
                  for e in range(6) for val in (-1, 0)}
               | {(l, -1) for l in sys.locked})
    assert {k for k, v in answers.items() if v is None} == refused
    assert {k: v for k, v in answers.items() if v not in (None, 0)} == {((), -1): -1}


def test_value_without_a_chain_raises():
    # with no closure classes and no locked sets, only r(empty) and r(E) are
    # stored, and no rule leads out of {a}
    sys = replace(lm.extract_system(lm.mk4()), parallel=(), coparallel=(), locked=(),
                  rho={(): 0, tuple(range(6)): 3})
    ext = lm.RankExtender(sys)
    with pytest.raises(errors.NoDecomposition, match=r"^no P1\.\.P4 chain for \(0,\)$"):
        ext.value((0,))
    with pytest.raises(errors.NoDecomposition):
        ext.trace((0,))


def test_validate_reports_l2_overlap_and_both_l4_branches():
    m = lm.mk4()
    sys = lm.extract_system(m)
    # {a,b} overlaps the classes {a} and {b}; its ranks are stored, so only
    # the partition rule sees it
    overlap = replace(sys, parallel=sys.parallel + ((0, 1),),
                      rho={**sys.rho, (0, 1): 2, (2, 3, 4, 5): 3})
    lines = lm.validate(overlap, m).text().splitlines()
    assert "L2 parallel classes do not partition the ground set" in lines
    improper = replace(sys, locked=sys.locked + ((), tuple(range(6))))
    lines = lm.validate(improper, m).text().splitlines()
    assert "L4 locked set {} is not proper and nonempty" in lines
    assert "L4 locked set {a,b,c,d,e,f} is not proper and nonempty" in lines
    repeated = replace(sys, locked=sys.locked + (sys.locked[0],))
    lines = lm.validate(repeated, m).text().splitlines()
    assert "L4 locked set {a,b,d} repeated" in lines


def test_rank_extend_equals_bruteforce(corpus):
    for m in corpus:
        if m.n > 10:
            continue
        sys = lm.extract_system(m)
        fam = (set(sys.parallel) | set(sys.coparallel) | set(sys.locked)
               | {(), tuple(range(m.n))})
        ranks = m._rank_table()
        ext = lm.RankExtender(sys)
        for k in range(m.n + 1):
            for comb in itertools.combinations(range(m.n), k):
                if comb in fam:
                    continue
                assert ext.value(comb) == ranks[mask_of(comb)], (m.name, comb)


def test_rank_extend_trace_consistent(corpus):
    # every trace starts at the queried set, ends at a base step, and each
    # step's value is the computed rank of the set at that step
    for m in corpus[:6]:
        sys = lm.extract_system(m)
        fam = (set(sys.parallel) | set(sys.coparallel) | set(sys.locked)
               | {(), tuple(range(m.n))})
        ext = lm.RankExtender(sys)
        for k in range(1, m.n):
            for comb in itertools.combinations(range(m.n), k):
                if comb in fam:
                    continue
                steps = ext.trace(comb)
                assert steps[0][1] == comb
                assert steps[-1][0] == "base"
                for rule, subset, witness, value in steps:
                    if rule != "base":
                        assert value == ext.value(subset)


# sha256 of (X, down, up, value, trace) over every subset X, pinned from the
# implementation that wrote each P1..P4 rule out separately in down, up, the
# fixpoint and the trace
EXTENDER_DIGESTS = {
    "uniform(1,3)": "42782c92171b32970308d1e037c6e63d62440b769b166cb8055a51194dbc500a",
    "uniform(2,3)": "ea2a849d5c18f9d66ef768f5c9ee116b75af3fc06c94aef68a1d1632b6f3d513",
    "uniform(2,4)": "e0795828612c3bae5fb6e993c02a70cadbbe15f016ef4ff280636d4ca439d6c4",
    "uniform(2,5)": "fd45878aee712c6b2742a6cb053156d7e53714bf30629aad96a619aec829fe23",
    "uniform(3,5)": "e94322d6d469471209b9a47712553ad2e0bc9f4d0a139b6b3e825c30a79063ed",
    "uniform(2,6)": "08fcd10cfb7b99781101ed252165b457d8d599bb559f174a74d94f7c78b35004",
    "uniform(3,6)": "d3091946e5861337dfecaa22bd7037dae0f456c2be2062adad138e46780ed834",
    "uniform(3,7)": "99881e2b2297fa1a24bb53113178476e6f524d1ee0bbd61f78563140b34d1b47",
    "uniform(4,8)": "1c8dbdadcab5b5c1a22d0a73b579ca427c3e0b69af75ba5b51c330da86a5c259",
    "mk4": "3dd3808ade82b701124248e79f05a50869e7b99a30d1df047250ddcb108b9f90",
    "whirl3": "4a0f3508e62e418456ec9b24780f841daff143f503ac6edb8eb9f5259349613f",
    "q6": "307b4d3b3f3c3e3eed258db8fb870f712b4c77a868ecbf56826759c238836af2",
    "p6": "91354ccb7daa5c387fab0a4fd6d0e6b8f371db22a036b5a6fdad2e30c75fdd42",
    "vamos": "6965ee89ec851a67a163777fb1417a4e50402235cbfe170fdd3677baf0ded8bc",
    "dual(mk4)": "d944a97ca9c627f29636fe1e8e9195f44569915576a022dff073045109f42c04",
    "dual(vamos)": "bca17944a5c4e9e4d2089a4e1750ef18f7a7a3588dd86839ae45ed0b7abd1d93",
    "mk4_doubled": "a57405c323c526986a68053c02ace583ddb1344dff383a03f029eccefd6d8be9",
    "dual(mk4_doubled)": "7783ebf4aefb218b8ce2987f2777afa94cd4221a682663ec18afbacc561f575a",
    "twosum1": "109e66885817969903cb9993d11f7da5e9f574086046622d876ecf5f3debaac8",
    "twosum2": "8a258b9eb6b5c862cb26a0566db8100e8f3765097f6910aa586c5a35f03c857b",
    "twosum3": "4d507fc193a9e1de9f7fc69e5217baaedc05ff716c26ffe5d22729ebadc9ca20",
}


def test_rank_extender_outputs_pinned(corpus):
    assert [m.name for m in corpus] == list(EXTENDER_DIGESTS)
    for m in corpus:
        ext = lm.RankExtender(lm.extract_system(m))
        h = hashlib.sha256()
        for x in range(1 << m.n):
            h.update(repr((x, ext.down(x), ext.up(x), ext.value(bits_of(x)),
                           ext.trace(bits_of(x)))).encode())
        assert h.hexdigest() == EXTENDER_DIGESTS[m.name], m.name


def test_mixed_chain_needed_on_two_sum(corpus_by_name):
    # one element of the high-rank side plus most of the other side: only a
    # peel-then-grow chain reaches the rank
    t = corpus_by_name["twosum3"]
    sys = lm.extract_system(t)
    ext = lm.RankExtender(sys)
    x = (0, 4, 5, 6)
    assert t.rank_of(x) == 3
    assert ext.down(mask_of(x)) == 4
    assert ext.up(mask_of(x)) == 4
    assert ext.value(x) == 3
    rules = [s[0] for s in ext.trace(x)]
    assert "P2" in rules and {"P3", "P4"} & set(rules)


def test_chained_two_sum_l18_boundary():
    # a double 2-sum where the two long locked sets intersect in the middle
    # remnant: its rank is reachable only by the upward rules, so the
    # one-directional L18 reading reports exactly that finding while the
    # rank recursion itself stays complete
    a = lm.two_sum(lm.uniform(2, 4), lm.uniform(2, 5, prefix="f"), 3, 0)
    b = lm.two_sum(a, lm.uniform(2, 4, prefix="g"), a.n - 1, 0)
    sys = lm.extract_system(b)
    report = lm.validate(sys, oracle_for(b))
    assert [v.axiom for v in report.violations] == ["L18"]
    ranks = b._rank_table()
    ext = lm.RankExtender(sys)
    fam = (set(sys.parallel) | set(sys.coparallel) | set(sys.locked)
           | {(), tuple(range(b.n))})
    for k in range(b.n + 1):
        for comb in itertools.combinations(range(b.n), k):
            if comb not in fam:
                assert ext.value(comb) == ranks[mask_of(comb)]


# -- subset helpers ------------------------------------------------------------

def test_splits_against_brute_force():
    # one side of each split into two nonempty parts: the proper submasks
    # holding the lowest element, in decreasing order
    for mask in range(1 << 9):
        low = mask & -mask
        want = [x for x in range(mask, -1, -1)
                if x & ~mask == 0 and x & low and x != mask]
        assert list(splits(mask)) == want, mask


# -- the axiom layer end to end, pinned ------------------------------------------

AXIOM_LAYER_DIGEST = "c483d688c86449d21bee27b548405c2d08a321e08252cf2af4e21d272ed2b1d2"


def _double_two_sum():
    a = lm.two_sum(lm.uniform(2, 4), lm.uniform(2, 5, prefix="f"), 3, 0)
    return lm.two_sum(a, lm.uniform(2, 4, prefix="g"), a.n - 1, 0)


def _report_key(sys, oracle):
    rep = lm.validate(sys, oracle)
    return rep.violations, rep.text()


def test_axiom_layer_pinned(corpus):
    # validate reports (violations, text), DomainMismatch messages and the
    # stored ranks of extract_system and of the dual's structure, hashed; the
    # digest was computed before the layer was refactored, with the dual's
    # system extracted from the dual matroid
    from lockedmatroid.cli import parse_gen_spec

    h = hashlib.sha256()

    def feed(*item):
        h.update(repr(item).encode())

    # U(1,3)+U(1,2): a complement of one class is another class, and the
    # dual's ranks hold without the connected matroids' closure formulas
    disconnected = lm.from_bases(5, [(a, b) for a in range(3) for b in (3, 4)])
    matroids = list(corpus) + [_double_two_sum(), parse_gen_spec("twosum:mk4+mk4@a,f0"),
                               disconnected]
    for m in matroids:
        oracle = oracle_for(m)
        s = lm.locked_structure(m)
        sys = lm.extract_system(m)
        feed(m.name, sorted(sys.rho.items()), _report_key(sys, oracle))
        dual = lm.dual_structure(s)
        feed(dual.locked, sorted(dual.rho.items()), _report_key(dual, oracle_for(m.dual())))
    for name, mutated, _ in mutations_mk4():
        feed(name, _report_key(mutated, oracle_for(lm.mk4())))
    rng = random.Random(20261018)
    for m in corpus:
        sys = lm.extract_system(m)
        keys = sorted(sys.rho, key=lambda t: (len(t), t))
        for _ in range(20):
            r2 = dict(sys.rho)
            t = rng.choice(keys)
            r2[t] += rng.choice((-2, -1, 1, 2))
            feed(m.name, t, r2[t], _report_key(replace(sys, rho=r2), oracle_for(m)))
        for _ in range(5):  # the first three missing sets name the domain order
            r2 = {t: sys.rho[t] for t in keys if rng.random() < 0.5}
            with pytest.raises(errors.DomainMismatch) as exc:
                lm.validate(replace(sys, rho=r2), oracle_for(m))
            feed(str(exc.value))
    assert h.hexdigest() == AXIOM_LAYER_DIGEST
