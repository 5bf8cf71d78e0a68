import itertools
import math
from collections import Counter
from random import Random

import pytest

import lockedmatroid as lm
from lockedmatroid import cli, dagiso, errors
from lockedmatroid.matroid import GroundSet, Matroid
import helpers
from helpers import (cyclic_flat_iso, pasch_trade, pg32_blocks, reference_zero_locked,
                     shuffled_direct_sum, sparse_paving, steiner_matroid)
from test_stress_tier import STRESS_TIER, _mk4_chain


def uniform_part(r, n):
    return n, list(itertools.combinations(range(n), r))


def direct_sum(*parts):
    return lm.from_bases(*shuffled_direct_sum(parts, Random(1)))


def test_bruteforce_mk4_relabeled():
    rng = Random(42)
    perm = list(range(6))
    rng.shuffle(perm)
    rep = lm.mip_bruteforce(lm.mk4(), lm.relabel(lm.mk4(), perm))
    assert rep.answer and rep.method == "bruteforce"
    assert rep.witness is not None and sorted(rep.witness) == list(range(6))


def test_bruteforce_mk4_vs_whirl3():
    rep = lm.mip_bruteforce(lm.mk4(), lm.whirl3())
    assert not rep.answer  # basis counts 16 vs 17


def test_bruteforce_u24_self():
    rep = lm.mip_bruteforce(lm.uniform(2, 4), lm.uniform(2, 4))
    assert rep.answer


def test_bruteforce_too_large():
    # a ground-size mismatch answers before the cap; the cap comes before
    # the rank and basis-count comparison
    assert not lm.mip_bruteforce(lm.uniform(2, 11), lm.uniform(2, 12)).answer
    for other in (lm.uniform(2, 11), lm.uniform(3, 11)):
        with pytest.raises(errors.TooLarge, match="^brute force capped at 10 elements$"):
            lm.mip_bruteforce(lm.uniform(2, 11), other)


def test_bruteforce_same_count_different_structure():
    # q6 and twosum1 share n, rank and basis count; only search separates them
    ts1 = lm.seeded_two_sums(1)[0]
    q6 = lm.q6()
    assert len(ts1.bases) == len(q6.bases) == 18
    assert not lm.mip_bruteforce(q6, ts1).answer
    for route in ("labels", "series"):
        assert not lm.mip_locked(q6, ts1, route=route).answer, route


def test_locked_route_mk4_relabeled():
    rep = lm.mip_locked(lm.mk4(), lm.relabel(lm.mk4(), [3, 0, 5, 1, 4, 2]))
    assert rep.answer and rep.method == "lattice"
    assert rep.locked_counts == (4, 4)


def test_locked_routes_agree_on_series(corpus):
    # labeled route and series-arc route agree pairwise on a sample
    small = [m for m in corpus if m.n == 6]
    for m1 in small:
        for m2 in small:
            a = lm.mip_locked(m1, m2, route="labels").answer
            b = lm.mip_locked(m1, m2, route="series").answer
            assert a == b, (m1.name, m2.name)


def rank2_line(sizes):
    """The loopless rank-2 matroid whose parallel classes have these sizes."""
    cls = [i for i, size in enumerate(sizes) for _ in range(size)]
    return lm.from_bases(len(cls), [(a, b) for a in range(len(cls))
                                    for b in range(a + 1, len(cls)) if cls[a] != cls[b]])


def test_zero_locked_examples():
    assert lm.mip_zero_locked(lm.uniform(2, 5), lm.uniform(2, 5)).answer
    rep = lm.mip_zero_locked(lm.uniform(2, 5), lm.uniform(3, 5))
    assert not rep.answer
    assert rep.answer == lm.mip_bruteforce(lm.uniform(2, 5), lm.uniform(3, 5)).answer
    # equal n and rank, different closure sequences: five parallel classes
    # against four (length mismatch), then sizes (2,2,1,1) against (3,1,1,1)
    for sizes1, sizes2, opcount in (((1, 1, 1, 1, 1), (2, 1, 1, 1), 16),
                                    ((2, 2, 1, 1), (3, 1, 1, 1), 27)):
        m1, m2 = rank2_line(sizes1), rank2_line(sizes2)
        rep = lm.mip_zero_locked(m1, m2)
        assert (rep.answer, rep.opcount) == (False, opcount)
        assert not lm.mip_bruteforce(m1, m2).answer
        n = m1.n
        assert rep.opcount <= 8 * n * max(1, math.ceil(math.log2(n))) + 8 * n + 16


def test_zero_locked_rejects_locked_matroid():
    with pytest.raises(errors.NotZeroLocked):
        lm.mip_zero_locked(lm.mk4(), lm.uniform(3, 6))


def test_zero_locked_rejects_disconnected():
    disc = lm.from_bases(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(errors.Disconnected):
        lm.mip_zero_locked(disc, lm.uniform(2, 4))


def test_zero_locked_reports_loops_and_coloops_before_connectivity():
    # a loop or a coloop is a component of its own: l0 names it, as the
    # lattice routes do, where it used to raise Disconnected
    loopy = lm.from_bases(3, [(0,), (1,)])
    coloopy = lm.from_bases(3, [(0, 2), (1, 2)])
    disconnected = direct_sum(uniform_part(1, 2), uniform_part(1, 2))
    for bad, error in ((loopy, errors.LoopPresent), (coloopy, errors.ColoopPresent)):
        for pair in ((bad, bad), (disconnected, bad), (bad, disconnected)):
            with pytest.raises(error):
                lm.mip_zero_locked(*pair)


def test_zero_locked_refuses_large_before_loops():
    # the closures come first, and they read the rank table before they
    # look for loops: as on the lattice route, a 17-element matroid from the
    # internal constructor is refused as too large, loops or not
    big = Matroid(GroundSet.default(17), [0b11])  # elements 2..16 are loops
    small = lm.uniform(2, 4)
    for pair in ((big, small), (small, big), (big, big)):
        for route in (lm.mip_zero_locked, lm.mip_locked):
            with pytest.raises(errors.TooLarge, match="got 17$"):
                route(*pair)


def _zero_locked_outcome(route, m1, m2):
    try:
        rep = route(m1, m2)
    except errors.LockedMatroidError as exc:
        return type(exc)
    return rep.answer, rep.opcount


def partitions(n, most=None):
    """The partitions of n into parts of at most `most`, largest first."""
    if n == 0:
        yield ()
    for k in range(min(n, most or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def test_zero_locked_count_matches_reference(corpus):
    # the count through cmp_to_key against the hand-written counted values
    # it replaced: same answer and opcount, or the same refusal, on every
    # ordered pair of corpus matroids, of U(r,n) with n <= 11 and of the
    # rank-2 lines with at least three parallel classes on up to 8 elements
    uniforms = [lm.uniform(r, n) for n in range(1, 12) for r in range(n + 1)]
    lines = [rank2_line(sizes) for n in range(3, 9) for sizes in partitions(n)
             if len(sizes) >= 3]
    for family in (corpus, uniforms, lines):
        for m1 in family:
            for m2 in family:
                assert (_zero_locked_outcome(lm.mip_zero_locked, m1, m2)
                        == _zero_locked_outcome(reference_zero_locked, m1, m2)), (m1, m2)


def test_lattice_routes_refuse_disconnected():
    # U(2,3)+U(1,3) against the 2-sum of U(1,4) and U(3,4): 9 bases against
    # 10, yet both routes answered isomorphic
    a = direct_sum(uniform_part(2, 3), uniform_part(1, 3))
    b = lm.two_sum(lm.uniform(1, 4), lm.uniform(3, 4, prefix="f"), 0, 0)
    assert (len(a.bases), len(b.bases)) == (9, 10)
    assert not lm.mip_bruteforce(a, b).answer
    for route in ("labels", "series"):
        for pair in ((a, b), (b, a), (a, a)):
            with pytest.raises(errors.Disconnected, match="^M is not connected$"):
                lm.mip_locked(*pair, route=route)


def test_tsd_lattice_refuses_disconnected():
    # M(K4)+U(1,2) is self-dual; the lattice method answered not self-dual,
    # because the dual structure complements a locked set in E, not in its
    # component
    m = direct_sum((6, list(lm.mk4().bases)), uniform_part(1, 2))
    assert lm.mip_bruteforce(m, m.dual()).answer
    with pytest.raises(errors.Disconnected, match="^M is not connected$"):
        lm.tsd(m)


def test_lattice_routes_keep_loop_and_coloop_errors_first():
    # a loop or a coloop is a component of its own; their errors come first,
    # from either matroid's structure
    loopy = lm.from_bases(3, [(0,), (1,)])
    coloopy = lm.from_bases(3, [(0, 2), (1, 2)])
    disconnected = direct_sum(uniform_part(1, 2), uniform_part(1, 2))
    for bad, error in ((loopy, errors.LoopPresent), (coloopy, errors.ColoopPresent)):
        with pytest.raises(error):
            lm.mip_locked(disconnected, bad)
        with pytest.raises(error):
            lm.tsd(bad)


def test_zero_locked_opcount_linearithmic():
    for n in range(3, 9):
        for r in (1, 2, n - 1):
            if not (1 <= r <= n - 1):
                continue
            rep = lm.mip_zero_locked(lm.uniform(r, n), lm.uniform(r, n))
            assert rep.answer
            budget = 8 * n * max(1, math.ceil(math.log2(n))) + 8 * n + 16
            assert rep.opcount <= budget, (n, r, rep.opcount, budget)


def test_zero_locked_matches_bruteforce_on_l0_pairs(corpus, structures):
    l0 = [m for m in corpus if not structures[m.name].locked]
    for m1 in l0:
        for m2 in l0:
            if m1.n != m2.n:
                continue
            fast = lm.mip_zero_locked(m1, m2).answer
            slow = lm.mip_bruteforce(m1, m2).answer
            assert fast == slow, (m1.name, m2.name)


def test_tsd_examples():
    assert lm.tsd(lm.uniform(2, 4)).answer
    assert not lm.tsd(lm.uniform(1, 3)).answer
    for m in (lm.mk4(), lm.vamos(), lm.q6(), lm.p6()):
        lat = lm.tsd(m)
        brute = lm.mip_bruteforce(m, m.dual())
        assert lat.answer == brute.answer, m.name
        assert lat.locked_counts[0] == lat.locked_counts[1]


def test_tsd_stable_under_dual(corpus):
    for m in corpus:
        if m.n > 8:
            continue
        assert lm.tsd(m).answer == lm.tsd(m.dual()).answer, m.name


def test_tsd_witness_from_bruteforce():
    v = lm.vamos()
    d = v.dual()
    rep = lm.mip_bruteforce(v, d)
    assert rep.answer and rep.witness is not None
    mapped = {tuple(sorted(rep.witness[e] for e in b)) for b in v.bases}
    assert mapped == set(d.bases)


def test_mip_locked_unknown_route():
    # a tuple route is named in the message, not read as its arguments
    for route in ("bogus", "both", (), ("a", "b")):
        with pytest.raises(errors.InvalidParams, match="^unknown mip_locked route "):
            lm.mip_locked(lm.mk4(), lm.mk4(), route=route)


def test_bruteforce_exhaustive_negative(sparse_paving_pair):
    # every cheap invariant agrees, so the answer comes from the search itself
    a, b = sparse_paving_pair
    for m in (a, b):
        counts = Counter(e for basis in m.bases for e in basis)
        assert len(m.bases) == 66
        assert sorted(counts.values()) == [32, 32, 33, 33, 33, 33, 34, 34]
    assert not lm.mip_bruteforce(a, b).answer
    for route in ("labels", "series"):
        assert not lm.mip_locked(a, b, route=route).answer, route


def test_tsd_bruteforce_is_mip_bruteforce_against_the_dual(corpus, tmp_path, capsys):
    # selfdual --method bruteforce answers with mip_bruteforce(m, m.dual())
    path = tmp_path / "m.matroid"
    for m in corpus:
        lm.save(m, path)
        want = lm.mip_bruteforce(m, m.dual()).answer
        assert cli.main(["selfdual", str(path), "--method", "bruteforce"]) == (0 if want else 1)
        assert capsys.readouterr().out == ("self-dual\n" if want else "not self-dual\n"), m.name


def test_lattice_verdicts_take_the_first_leaf_path(monkeypatch):
    # relabelled inputs answer from the two lattices' first leaves: with the
    # full search refused, mip_locked on both routes and tsd still say yes
    def refuse(*_):
        raise AssertionError("full search")

    monkeypatch.setattr(dagiso, "are_isomorphic", refuse)
    monkeypatch.setattr(dagiso, "canonical_form", refuse)
    mk5 = lm.graphic(5, tuple(itertools.combinations(range(5), 2)))
    rng = Random(24)
    for m in (lm.vamos(), mk5, _mk4_chain(3), lm.uniform(7, 14)):
        perm = list(range(m.n))
        rng.shuffle(perm)
        for route in ("labels", "series"):
            assert lm.mip_locked(m, lm.relabel(m, perm), route=route).answer, (m.name, route)
    for m in (lm.vamos(), lm.uniform(8, 16)):
        assert lm.tsd(m).answer, m.name


def _relabelled(m, seed):
    perm = list(range(m.n))
    Random(seed).shuffle(perm)
    return lm.relabel(m, perm)


def cyclic_flat_pairs(corpus):
    """(name, m1, m2, answer): each corpus matroid, the n = 14 M(K4) chain,
    M(K6), U(7,14) and sparse paving matroids at n = 14 and 16 against a
    seeded relabelling; two sparse paving seeds at n = 16; PG(3,2) against
    a relabelling and against its Pasch trade."""
    pg = steiner_matroid(pg32_blocks())
    traded = steiner_matroid(pasch_trade(pg32_blocks(), Random(1)))
    sp16 = sparse_paving(16, 8, 1)
    ms = list(corpus) + [STRESS_TIER[name]() for name in ("mk4chain3", "mk6", "uniform(7,14)")]
    ms += [sparse_paving(14, 7, 1), sp16, pg]
    pairs = [(m.name, m, _relabelled(m, i), True) for i, m in enumerate(ms)]
    return pairs + [("sparse paving seeds 1, 2", sp16, sparse_paving(16, 8, 2), False),
                    ("Pasch trade", pg, traded, False)]


def test_cyclic_flat_oracle_agrees_with_mip_locked(corpus):
    # the oracle reads neither the paper's axioms nor the locked lattice, and
    # every "yes" carries an element map checked on the basis masks
    pairs = cyclic_flat_pairs(corpus)
    assert len(pairs) == 29
    for name, m1, m2, want in pairs:
        answer, witness = cyclic_flat_iso(m1, m2)
        assert answer == want and (witness is not None) == want, name
        for route in ("labels", "series"):
            assert lm.mip_locked(m1, m2, route=route).answer == want, (name, route)


def test_cyclic_flat_oracle_checks_its_witness(monkeypatch):
    # an element map that does not carry bases onto bases is refused
    monkeypatch.setattr(helpers, "are_isomorphic", lambda g1, g2: (True, range(g1.vertex_count)))
    with pytest.raises(AssertionError, match="does not carry bases onto bases"):
        cyclic_flat_iso(lm.mk4(), lm.whirl3())
    assert cyclic_flat_iso(lm.mk4(), lm.mk4()) == (True, range(6))


def test_cyclic_flat_oracle_agrees_with_bruteforce_on_the_corpus(corpus):
    # every pair of corpus matroids of equal size and rank: 30 pairs, two of
    # them isomorphic, M(K4) and the Vamos matroid against their duals
    answers = []
    for m1, m2 in itertools.combinations(corpus, 2):
        if (m1.n, m1.rank) != (m2.n, m2.rank):
            continue
        answer = cyclic_flat_iso(m1, m2)[0]
        assert answer == lm.mip_bruteforce(m1, m2).answer, (m1.name, m2.name)
        for route in ("labels", "series"):
            assert lm.mip_locked(m1, m2, route=route).answer == answer, (m1.name, m2.name)
        answers.append(answer)
    assert (len(answers), sum(answers)) == (30, 2)
