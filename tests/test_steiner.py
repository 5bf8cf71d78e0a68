"""Steiner triple systems on 15 points as matroid inputs.

The blocks of an STS(15) are the circuit-hyperplanes of a rank-3 sparse
paving matroid, and every block is locked, so the reduced lattice is the
point-block incidence graph between the closures and the sink.  That graph
is regular: colour refinement splits nothing, every STS(15) lattice has the
same vertex count, arc count and degree profile, and only the canonical
search tells two systems apart.  PG(3,2) and a Pasch trade of it are
checked on both routes, against relabellings and against each other.
"""

import itertools
from collections import Counter
from random import Random

import pytest

import lockedmatroid as lm
from lockedmatroid import dagiso
from lockedmatroid.dagiso import canonical_form
from helpers import (pasch_configurations, pasch_trade, pg32_blocks, reference_are_isomorphic,
                     steiner_matroid)
from test_dagiso import _relabelled

ENCODINGS = {"labels": lm.to_colored, "series": lm.series_encode}


@pytest.fixture(scope="module")
def systems():
    pg = pg32_blocks()
    return {"PG(3,2)": pg, "traded": pasch_trade(pg, Random(1))}


@pytest.fixture(scope="module")
def lattices(systems):
    return {name: lm.reduced_lattice(lm.locked_structure(steiner_matroid(blocks)))
            for name, blocks in systems.items()}


def test_systems_are_steiner_with_unequal_pasch_counts(systems):
    for blocks in systems.values():
        pairs = Counter(p for blk in blocks for p in itertools.combinations(blk, 2))
        assert len(blocks) == 35 and len(pairs) == 105 and set(pairs.values()) == {1}
    assert [len(pasch_configurations(b)) for b in systems.values()] == [105, 73]


def test_the_blocks_are_the_locked_sets(systems, lattices):
    for name, blocks in systems.items():
        d = lattices[name]
        locked = [x for x, lv in zip(d.provenance, d.levels) if lv == "locked"]
        assert sorted(locked) == blocks
        assert d.vertex_count == 1 + 15 + 15 + 35 + 1


@pytest.mark.parametrize("route", ["labels", "series"])
def test_relabellings_are_isomorphic(systems, route):
    rng = Random(15)
    for blocks in systems.values():
        m = steiner_matroid(blocks)
        perm = list(range(15))
        rng.shuffle(perm)
        assert lm.mip_locked(m, lm.relabel(m, perm), route=route).answer


@pytest.mark.parametrize("route", ["labels", "series"])
def test_pg32_is_not_the_traded_system(systems, lattices, route):
    # the invariants agree, so the two canonical searches say no
    g1, g2 = (ENCODINGS[route](d) for d in lattices.values())
    assert dagiso._profile(g1)[0] == dagiso._profile(g2)[0]
    pg, traded = (steiner_matroid(blocks) for blocks in systems.values())
    assert not lm.mip_locked(pg, traded, route=route).answer


@pytest.mark.parametrize("name, route", [("PG(3,2)", "labels"), ("PG(3,2)", "series"),
                                         ("traded", "labels")])
def test_are_isomorphic_matches_two_full_searches(lattices, name, route):
    g = ENCODINGS[route](lattices[name])
    h = _relabelled(Random(15), g)
    assert lm.are_isomorphic(g, h) == reference_are_isomorphic(g, h)


def test_traded_series_digest_is_relabelling_invariant(lattices):
    # the two reference searches take seconds on this encoding
    g = lm.series_encode(lattices["traded"])
    h = _relabelled(Random(15), g)
    assert canonical_form(g).digest == canonical_form(h).digest


@pytest.mark.parametrize("route", ["labels", "series"])
def test_isomorphic_is_are_isomorphics_answer_on_the_systems(lattices, route):
    gs = [ENCODINGS[route](d) for d in lattices.values()]
    rng = Random(15)
    pairs = [(g, _relabelled(rng, g)) for g in gs] + [tuple(gs), tuple(gs[::-1])]
    for g, h in pairs:
        assert dagiso.isomorphic(g, h) == lm.are_isomorphic(g, h)[0]


def _first_leaf_key(g):
    return dagiso._search(g, first_leaf=True)[1]


def test_isomorphic_falls_back_to_the_full_search(lattices, monkeypatch):
    # unequal first leaves prove nothing either way: PG(3,2) against the
    # traded system agree on every invariant, and the traded system against
    # a relabelling of it is an isomorphic pair; are_isomorphic answers both
    calls = []
    full = dagiso.are_isomorphic

    def spy(g1, g2):
        calls.append((g1, g2))
        return full(g1, g2)

    monkeypatch.setattr(dagiso, "are_isomorphic", spy)
    pg, traded = (lm.to_colored(d) for d in lattices.values())
    relabelled = _relabelled(Random(15), traded)
    for g, h, answer in ((pg, traded, False), (traded, relabelled, True)):
        assert dagiso._profile(g)[0] == dagiso._profile(h)[0]
        assert _first_leaf_key(g) != _first_leaf_key(h)
        calls.clear()
        assert dagiso.isomorphic(g, h) is answer
        assert calls == [(g, h)]
    # PG(3,2)'s relabelling answers from the first leaves alone
    calls.clear()
    assert dagiso.isomorphic(pg, _relabelled(Random(15), pg))
    assert calls == []
