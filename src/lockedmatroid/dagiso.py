"""Exact isomorphism testing and canonical forms for vertex-colored digraphs.

The canonical form is computed by iterated color refinement (in/out
neighbor color multisets) plus individualization-refinement backtracking;
the canonical labeling is the first one, in search order, minimizing the
(color sequence, arc list) encoding over the search tree.  Refinement
re-sorts only the cells next to a cell that split in the previous round.
A leaf whose encoding equals the best one gives an automorphism: the search
jumps back to where its path left the best path (McKay & Piperno,
"Practical graph isomorphism, II", 2014), and each search node skips
children in the orbit of a searched child under the automorphisms found so
far that fix the node's path.  That keeps highly symmetric inputs (many
interchangeable strands) polynomial in practice.  Both cuts skip only cells
that cannot split and subtrees that an automorphism maps onto searched
ones, so the result is that of the full search.

Each node runs few interpreter steps.  After the root's first round every
cell is degree-homogeneous, so a vertex's refinement key is one function
of its degree class, built once per search: its in- and out-colours
concatenated, a scalar or a pair when both degrees are at most 1.  Every
leaf carries the sorted colours, so leaves compare on their arcs alone, as
sorted integers p * n + q.  Each automorphism is kept with the points it
moves, and a node merges it once into one union-find of orbits.

A pair is tested in two ways.  Unequal vertex counts, arc counts or
(colour, in-degree, out-degree) profiles answer at once in both.
Otherwise are_isomorphic compares the two canonical forms, at the cost of
two full searches, and its witness maps the canonical numberings onto
each other.  isomorphic, which wants the answer alone, first searches
each digraph only down to its first leaf: two leaves with equal keys give
an isomorphism between their numberings, and only unequal ones, which
prove nothing, cost are_isomorphic's two full searches.

Digests are the hex encoding of the canonical byte string itself, not a
hash: equal digests are equivalent to isomorphism by construction.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional

from . import errors
from ._bits import find


@dataclass(frozen=True)
class ColoredDigraph:
    vertex_count: int
    arcs: tuple[tuple[int, int], ...]
    colors: tuple[int, ...]

    def __post_init__(self):
        n = self.vertex_count
        if not isinstance(n, int):
            raise errors.InvalidParams("vertex count must be an integer: %r" % (n,))
        if n < 0:
            raise errors.InvalidParams("negative vertex count")
        if not (isinstance(self.colors, Collection) and isinstance(self.arcs, Collection)):
            raise errors.InvalidParams("colors and arcs must be collections")
        if len(self.colors) != n:
            raise errors.InvalidParams("need one color per vertex")
        if not all(isinstance(c, int) for c in self.colors):
            raise errors.InvalidParams("colors must be integers")
        if any(c < 0 for c in self.colors):
            raise errors.InvalidParams("colors must be nonnegative")
        # one pass; the first bad arc sets the error
        for arc in self.arcs:
            if not (isinstance(arc, tuple) and len(arc) == 2):
                raise errors.InvalidParams("arc is not a pair of integers: %r" % (arc,))
            u, v = arc
            if not (isinstance(u, int) and isinstance(v, int)):
                raise errors.InvalidParams("arc is not a pair of integers: %r" % (arc,))
            if not (0 <= u < n and 0 <= v < n):
                raise errors.OutOfRange("arc endpoint out of range: %r" % (arc,))

    @cached_property
    def _adjacency(self) -> tuple[list[list[int]], list[list[int]]]:
        """(in-neighbours, out-neighbours) of each vertex, from one pass
        over the arcs in arc order, made on first use and kept; their
        lengths are the degrees.  _profile, _search and its neighbour sets
        all read it, and none changes it."""
        ins: list[list[int]] = [[] for _ in range(self.vertex_count)]
        outs: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.arcs:
            outs[u].append(v)
            ins[v].append(u)
        return ins, outs


@dataclass(frozen=True)
class CanonicalForm:
    """perm maps each original vertex to its canonical position."""

    perm: tuple[int, ...]
    colors: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...]
    digest: str


def _split(col: list[int], cells: dict[int, list[int]], c: int,
           pieces: list[list[int]]) -> list[int]:
    """Lays out the pieces of the cell at c in order and returns the first
    positions of every piece but the largest.

    A partition is `col` (col[v] is the first position of v's cell) and
    `cells` (first position -> the cell's vertices, ascending).  A cell
    splits in place, so every other cell keeps its colour, and colours
    compare as the dense ranks of a re-rank of all vertices would."""
    largest = max(pieces, key=len)
    marked = []
    for piece in pieces:
        cells[c] = piece
        for v in piece:
            col[v] = c
        if piece is not largest:
            marked.append(c)
        c += len(piece)
    return marked


def canonical_form(g: ColoredDigraph) -> CanonicalForm:
    perm, (colors_canon, arcs_canon) = _search(g)
    return CanonicalForm(tuple(perm), colors_canon, arcs_canon,
                         _digest(g.vertex_count, colors_canon, arcs_canon))


def _degree_key(ins: list[int], outs: list[int]):
    """v's refinement key after the root's first round, as a function of
    the colouring, for in- and out-neighbours ins and outs.  Every cell is
    then degree-homogeneous, so the (sorted in-colours, sorted out-colours)
    pair of its vertices orders as the concatenation of the two; with both
    degrees at most 1 that is a scalar or a pair, read by one itemgetter.
    Isolated vertices are never examined and get None."""
    if len(ins) <= 1 and len(outs) <= 1:
        return itemgetter(*ins, *outs) if ins or outs else None
    if not ins or not outs:
        get = itemgetter(*(ins or outs))
        return lambda col: tuple(sorted(get(col)))
    get_in, get_out = itemgetter(*ins), itemgetter(*outs)
    if len(ins) == 1:
        return lambda col: (get_in(col), *sorted(get_out(col)))
    if len(outs) == 1:
        return lambda col: (*sorted(get_in(col)), get_out(col))
    return lambda col: (*sorted(get_in(col)), *sorted(get_out(col)))


def _search(g: ColoredDigraph, first_leaf: bool = False) -> tuple[list[int], tuple]:
    """(perm, key) of the first leaf in search order with the least key
    (colors, arcs); with first_leaf, of the first leaf of all."""
    n = g.vertex_count
    if n == 0:
        return [], ((), ())
    in_adj, out_adj = g._adjacency
    nbrs = [{*ins, *outs} for ins, outs in zip(in_adj, out_adj)]
    degree_keys = list(map(_degree_key, in_adj, out_adj))

    def refine(col: list[int], cells: dict[int, list[int]], marked: list[int]) -> None:
        # Each round splits every cell by its vertices' keys, all read before
        # the round; the old colour was the first key of the full re-rank, so
        # pieces stay in place.  A cell's vertices agreed on their neighbours'
        # colours a round ago, so it can split only if one of them has a
        # neighbour in a marked piece: one of every piece of the last round's
        # splits but the largest, whose counts follow from the others'.
        while marked:
            near = {col[u] for c in marked for v in cells[c] for u in nbrs[v]}
            halves = []  # (c, first, second) for a 2-vertex cell that splits
            splits = []
            for c in near:
                vs = cells[c]
                size = len(vs)
                if size == 2:
                    a, b = vs
                    ka, kb = degree_keys[a](col), degree_keys[b](col)
                    if ka != kb:
                        halves.append((c, a, b) if ka < kb else (c, b, a))
                elif size > 2:
                    ks = [degree_keys[v](col) for v in vs]
                    if ks.count(ks[0]) != size:
                        splits.append((c, _grouped(vs, ks)))
            marked = []
            for c, a, b in halves:  # _split on two pieces of one vertex
                cells[c], cells[c + 1] = [a], [b]
                col[b] = c + 1
                marked.append(c + 1)
            for c, pieces in splits:
                marked += _split(col, cells, c, pieces)

    # Every leaf's colours are the sorted colours: the first cells are the
    # colour classes in order, and a split keeps each vertex inside its
    # cell's range.  So leaves compare on their arcs alone, each arc (p, q)
    # as the integer p * n + q, which orders as the pair.
    colors = tuple(sorted(g.colors))
    best_key: Optional[list[int]] = None
    best_perm: Optional[list[int]] = None
    best_inv: Optional[list[int]] = None
    best_path: list[int] = []
    autos: list[tuple[list[int], list[int]]] = []  # (automorphism, points it moves)

    def leaf(col: list[int], path: list[int]) -> int:
        # Returns the depth the search resumes at; -1 ends it.  A key equal to
        # the best gives an automorphism that fixes the common prefix of the
        # two paths (a vertex alone in its cell keeps its position) and maps
        # the next vertex of this path onto the best path's: the rest of that
        # subtree is an image of one already searched.
        nonlocal best_key, best_perm, best_inv, best_path
        key = sorted([col[u] * n + col[v] for (u, v) in g.arcs])
        if best_key is None or key < best_key:
            inv = [0] * n
            for v in range(n):
                inv[col[v]] = v
            best_key, best_perm, best_inv, best_path = key, list(col), inv, path
            if first_leaf:
                return -1
        elif key == best_key:
            a = list(map(best_inv.__getitem__, col))
            autos.append((a, [v for v in range(n) if a[v] != v]))
            k = 0
            while path[k] == best_path[k]:
                k += 1
            return k
        return len(path)

    def dfs(col: list[int], cells: dict[int, list[int]], path: list[int]) -> int:
        if len(cells) == n:
            return leaf(col, path)
        _, start = min([(len(vs), c) for c, vs in cells.items() if len(vs) > 1])
        cell = cells[start]
        depth = len(path)
        # one union-find over the orbits of the automorphisms found so far
        # that fix every vertex of `path`; each is merged in once, over the
        # points it moves
        parent: Optional[list[int]] = None
        merged = 0
        done: list[int] = []
        for v in cell:
            if done:
                for a, moved in autos[merged:]:
                    if all(a[f] == f for f in path):
                        if parent is None:
                            parent = list(range(n))
                        for w in moved:
                            parent[find(parent, w)] = find(parent, a[w])
                merged = len(autos)
                if parent is not None:
                    root = find(parent, v)
                    if any(find(parent, d) == root for d in done):
                        continue
            child_col, child_cells = col[:], dict(cells)
            pieces = [[v], [u for u in cell if u != v]]
            marked = _split(child_col, child_cells, start, pieces)
            refine(child_col, child_cells, marked)
            resume = dfs(child_col, child_cells, path + [v])
            if resume < depth:
                return resume
            done.append(v)
        return depth

    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(g.colors[v], []).append(v)
    col, cells = [0] * n, {}
    _split(col, cells, 0, [by_color[c] for c in sorted(by_color)])
    # The colour classes are no split of an equitable partition, so the first
    # round splits every class by the full (sorted in-colours, sorted
    # out-colours) signature, after which every cell is degree-homogeneous.
    sigs = [(tuple(sorted([col[u] for u in in_adj[v]])),
             tuple(sorted([col[u] for u in out_adj[v]]))) for v in range(n)]
    marked = []
    for c, vs in list(cells.items()):
        pieces = _grouped(vs, [sigs[v] for v in vs])
        if len(pieces) > 1:
            marked += _split(col, cells, c, pieces)
    refine(col, cells, marked)
    dfs(col, cells, [])
    if best_perm is None:
        raise errors.LockedMatroidError("canonical search reached no leaf")
    return best_perm, (colors, tuple(divmod(x, n) for x in best_key))


def _grouped(vs: list[int], keys: list) -> list[list[int]]:
    """The vertices vs, ascending, grouped by their keys, in key order."""
    groups: dict = {}
    for k, v in zip(keys, vs):
        groups.setdefault(k, []).append(v)
    return [groups[k] for k in sorted(groups)]


def _digest(n: int, colors, arcs) -> str:
    payload = "%d|%s|%s" % (
        n,
        ",".join(map(str, colors)),
        ";".join("%d-%d" % a for a in arcs),
    )
    return payload.encode("utf-8").hex()


def _profile(g: ColoredDigraph) -> tuple[tuple, list[int], list[int]]:
    """(invariants, in-degrees, out-degrees): the invariants are the vertex
    count, the arc count and the sorted (colour, in-degree, out-degree)
    profile, equal on isomorphic digraphs."""
    ins, outs = g._adjacency
    ind, outd = list(map(len, ins)), list(map(len, outs))
    return (g.vertex_count, len(g.arcs), sorted(zip(g.colors, ind, outd))), ind, outd


def _verified_map(g1: ColoredDigraph, g2: ColoredDigraph, perm1: list[int],
                  perm2: list[int]) -> tuple[int, ...]:
    """The vertex map that sends g1's vertex at each leaf position to g2's
    vertex at the same position, checked colour by colour and arc by arc."""
    inv2 = [0] * g2.vertex_count
    for v, p in enumerate(perm2):
        inv2[p] = v
    mapping = tuple(inv2[perm1[v]] for v in range(g1.vertex_count))
    if any(g1.colors[v] != g2.colors[mapping[v]] for v in range(g1.vertex_count)):
        raise errors.LockedMatroidError("iso witness does not preserve colors")
    if sorted((mapping[u], mapping[v]) for (u, v) in g1.arcs) != sorted(g2.arcs):
        raise errors.LockedMatroidError("iso witness does not carry arcs onto arcs")
    return mapping


def are_isomorphic(g1: ColoredDigraph, g2: ColoredDigraph):
    """(answer, witness): witness maps vertices of g1 to vertices of g2 and is
    verified arc-by-arc and color-by-color before being returned.

    Unequal invariants answer without a search.  Otherwise the pair is
    isomorphic exactly when the two canonical keys are equal, and the
    witness sends each vertex of g1 to the vertex of g2 at its canonical
    position."""
    if _profile(g1)[0] != _profile(g2)[0]:
        return False, None
    perm1, key1 = _search(g1)
    perm2, key2 = _search(g2)
    if key1 != key2:
        return False, None
    return True, _verified_map(g1, g2, perm1, perm2)


def isomorphic(g1: ColoredDigraph, g2: ColoredDigraph) -> bool:
    """are_isomorphic's answer, without its witness.

    Unequal invariants answer False, as there.  Otherwise each digraph is
    searched down to its first leaf only.  Equal leaf keys make the map
    between the two leaves' numberings an isomorphism, which is checked as
    are_isomorphic checks its witness; unequal ones prove nothing, and
    are_isomorphic decides."""
    if _profile(g1)[0] != _profile(g2)[0]:
        return False
    perm1, key1 = _search(g1, first_leaf=True)
    perm2, key2 = _search(g2, first_leaf=True)
    if key1 != key2:
        return are_isomorphic(g1, g2)[0]
    _verified_map(g1, g2, perm1, perm2)
    return True

