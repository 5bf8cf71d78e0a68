import math
from random import Random

import pytest

import lockedmatroid as lm
from lockedmatroid import errors


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


def test_zero_locked_examples():
    assert lm.mip_zero_locked(lm.uniform(2, 5), lm.uniform(2, 5)).answer
    rep = lm.mip_zero_locked(lm.uniform(2, 5), lm.uniform(3, 5))
    assert not rep.answer
    assert rep.answer == lm.mip_bruteforce(lm.uniform(2, 5), lm.uniform(3, 5)).answer


def test_zero_locked_rejects_locked_matroid():
    with pytest.raises(errors.NotZeroLocked):
        lm.mip_zero_locked(lm.mk4(), lm.uniform(3, 6))


def test_zero_locked_rejects_disconnected():
    disc = lm.from_bases(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    with pytest.raises(errors.Disconnected):
        lm.mip_zero_locked(disc, lm.uniform(2, 4))


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
        brute = lm.tsd(m, method="bruteforce")
        assert lat.answer == brute.answer, m.name
        assert lat.locked_counts[0] == lat.locked_counts[1]


def test_tsd_stable_under_dual(corpus):
    for m in corpus:
        if m.n > 8:
            continue
        assert lm.tsd(m).answer == lm.tsd(m.dual()).answer, m.name


def test_tsd_witness_from_bruteforce():
    rep = lm.tsd(lm.vamos(), method="bruteforce")
    assert rep.answer and rep.witness is not None
    v = lm.vamos()
    d = v.dual()
    mapped = {tuple(sorted(rep.witness[e] for e in b)) for b in v.bases}
    assert mapped == set(d.bases)


def test_mip_locked_unknown_route():
    for route in ("bogus", "both"):
        with pytest.raises(errors.InvalidParams):
            lm.mip_locked(lm.mk4(), lm.mk4(), route=route)


def test_tsd_bruteforce_is_mip_bruteforce_against_the_dual(corpus):
    for m in corpus:
        a = lm.tsd(m, method="bruteforce")
        b = lm.mip_bruteforce(m, m.dual())
        assert a == b, m.name

