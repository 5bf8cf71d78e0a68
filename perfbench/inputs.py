"""Benchmark inputs, built from basis lists without basis-exchange validation.

The stress inputs (U(8,16) has 12,870 bases) are assembled from direct basis
lists and wrapped with the internal ``Matroid`` constructor, so that set-up
time does not include the validation that the ``ingest`` workload measures.
Small named matroids come from the package catalog, whose validation costs
milliseconds at n <= 8.
"""

from __future__ import annotations

import itertools
import math
from random import Random

from lockedmatroid._bits import bits_of, mask_of
from lockedmatroid.catalog import mk4
from lockedmatroid.corpus import standard_corpus
from lockedmatroid.matroid import GroundSet, Matroid, relabel, two_sum, with_names

# The corpus seed fixes the basepoints of the corpus 2-sums; the benchmark
# seed only shuffles, relabels and draws weights, so the pins stay valid.
CORPUS_SEED = 1


def uniform(r: int, n: int) -> Matroid:
    masks = [mask_of(c) for c in itertools.combinations(range(n), r)]
    return Matroid(GroundSet.default(n), masks, "uniform(%d,%d)" % (r, n))


def complete_graph_edges(nv: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(nv) for v in range(u + 1, nv))


def graphic(nv: int, edges, name: str) -> Matroid:
    """Cycle matroid of a connected graph: its spanning trees, by a
    union-find scan of every (nv-1)-subset of the edges."""
    trees = []
    for comb in itertools.combinations(range(len(edges)), nv - 1):
        parent = list(range(nv))
        for ei in comb:
            u, v = edges[ei]
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                break
            parent[u] = v
        else:
            trees.append(mask_of(comb))
    return Matroid(GroundSet.default(len(edges)), trees, name)


def mk4_chain(k: int) -> Matroid:
    """2-sum chain of k copies of M(K4): 4k+2 elements, rank 2k+1."""
    m = mk4()
    for i in range(1, k):
        prefix = "fghijk"[i - 1]
        nxt = with_names(mk4(), tuple("%s%d" % (prefix, j) for j in range(6)))
        m = two_sum(m, nxt, m.n - 1 if i > 1 else 0, 0)
    m.name = "mk4chain%d" % k
    return m


def mk4_twosum() -> Matroid:
    """M(K4)+M(K4) along a and f0, as ``gen twosum:mk4+mk4@a,f0`` writes it."""
    m = two_sum(mk4(), with_names(mk4(), tuple("f%d" % j for j in range(6))), 0, 0)
    m.name = "twosum"
    return m


def corpus() -> list[Matroid]:
    return standard_corpus(CORPUS_SEED)


def fresh(m: Matroid) -> Matroid:
    """An equal matroid with empty rank and independence memos."""
    return Matroid(m.ground, m._basis_masks, m.name)


def is_uniform(m: Matroid) -> bool:
    return len(m.bases) == math.comb(m.n, m.rank)


def relabelled(m: Matroid, rng: Random) -> Matroid:
    perm = list(range(m.n))
    rng.shuffle(perm)
    return relabel(m, perm, name=m.name)


def circuit_hyperplanes(m: Matroid) -> list[int]:
    """Non-bases of full-rank size that are circuits and closed."""
    ranks = fresh(m)._rank_table()
    full, r = m.full_mask, m.rank
    out = []
    for comb in itertools.combinations(range(m.n), r):
        x = mask_of(comb)
        if ranks[x] != r - 1 or x in m._basis_mask_set:
            continue
        if any(ranks[x ^ (1 << e)] != r - 1 for e in comb):
            continue
        rest = full ^ x
        if all(ranks[x | (1 << e)] == r for e in range(m.n) if rest >> e & 1):
            out.append(x)
    return out


def non_isomorphic_partner(m: Matroid, rng: Random) -> Matroid:
    """A matroid on the same ground set that is not isomorphic to ``m``
    because its rank or its basis count differs: a uniform neighbour
    U(r+-1, n), else a circuit-hyperplane relaxation, else the truncation.
    Raises ValueError when the partner would have a loop or a coloop."""
    r, n = m.rank, m.n
    if is_uniform(m):
        choices = [s for s in (r - 1, r + 1) if 1 <= s <= n - 1]
        p = uniform(rng.choice(choices), n)
    else:
        chs = circuit_hyperplanes(m)
        if chs:
            masks = list(m._basis_masks) + [rng.choice(chs)]
        else:
            masks = {b ^ (1 << e) for b in m._basis_masks for e in bits_of(b)}
        p = Matroid(m.ground, masks, "partner(%s)" % m.name)
    if (p.rank, len(p.bases)) == (r, len(m.bases)) or p.loops() or p.coloops():
        raise ValueError("no usable non-isomorphic partner for %s" % m.name)
    return p


def text_of(m: Matroid, rng: Random) -> str:
    """The matroid file format with basis lines, and the names within each
    line, in seeded order; the reader canonicalises both."""
    lines = []
    for b in m.bases:
        names = [m.names[i] for i in b]
        rng.shuffle(names)
        lines.append(("basis " + " ".join(names)) if names else "basis")
    rng.shuffle(lines)
    head = ["matroid %s" % m.name, "elements %s" % ",".join(m.names)]
    return "\n".join(head + lines) + "\n"


def stress_tier(names) -> dict[str, Matroid]:
    """The named n = 10..16 inputs, each built without validation."""
    builders = {
        "uniform(5,10)": lambda: uniform(5, 10),
        "mk5": lambda: graphic(5, complete_graph_edges(5), "mk5"),
        "twosum": mk4_twosum,
        "uniform(6,12)": lambda: uniform(6, 12),
        "mk4chain3": lambda: mk4_chain(3),
        "uniform(7,14)": lambda: uniform(7, 14),
        "mk6": lambda: graphic(6, complete_graph_edges(6), "mk6"),
        "uniform(8,16)": lambda: uniform(8, 16),
    }
    return {name: builders[name]() for name in names}
