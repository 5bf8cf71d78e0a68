"""Constructors for the named matroids used throughout the package.

Available: uniform(r, n), graphic matroids of small connected multigraphs,
the cycle matroid of K4 (elements a..f), the rank-3 whirl (relaxation of the
K4 rim triangle), the six-element rank-3 matroids q6 and p6 (two resp. one
3-element circuit-hyperplanes), and the eight-element rank-4 vamos matroid.
"""

from __future__ import annotations

import itertools
import operator
from typing import Optional, Sequence

from . import errors
from ._bits import find
from .matroid import GroundSet, Matroid, _refuse_large, _tuple_of, from_bases, relax

# K4 on vertices 0..3; edge order fixes the element labels a..f so that the
# triangles come out as {a,b,d}, {a,c,f}, {b,c,e} and the rim {d,e,f}.
_K4_EDGES = ((0, 2), (0, 1), (0, 3), (1, 2), (1, 3), (2, 3))
_K4_NAMES = ("a", "b", "c", "d", "e", "f")

# Vamos circuit-hyperplanes over the element pairs (0,1),(2,3),(4,5),(6,7):
# five of the six "pair unions"; {4,5,6,7} is deliberately a basis.
_VAMOS_NONBASES = (
    (0, 1, 2, 3),
    (0, 1, 4, 5),
    (0, 1, 6, 7),
    (2, 3, 4, 5),
    (2, 3, 6, 7),
)

_Q6_NONBASES = ((0, 1, 2), (0, 3, 4))
_P6_NONBASES = ((0, 1, 2),)


def _integer(x) -> int:
    """x as an int: an int or a string of one.  Anything else, such as 1.5
    or "a", raises InvalidParams rather than being truncated."""
    try:
        return int(x) if isinstance(x, str) else operator.index(x)
    except (TypeError, ValueError):
        raise errors.InvalidParams("%r is not an integer" % (x,)) from None


def uniform(r: int, n: int, prefix: str = "e", name: Optional[str] = None) -> Matroid:
    """U_{r,n}: every r-subset of an n-set is a basis."""
    r, n = _integer(r), _integer(n)
    if n < 1 or r < 0 or r > n:
        raise errors.InvalidParams("uniform needs 0 <= r <= n, n >= 1")
    ground = GroundSet.default(n, prefix)
    bases = itertools.combinations(range(n), r)
    return from_bases(n, bases, names=ground.names,
                      name=name or "uniform(%d,%d)" % (r, n))


def _edge(edge) -> tuple[int, int]:
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise errors.InvalidParams("edge is not a pair of vertices: %r" % (edge,)) from None
    return _integer(u), _integer(v)


def graphic(n_vertices: int, edges: Sequence[tuple[int, int]],
            names: Optional[Sequence[str]] = None, name: str = "graphic") -> Matroid:
    """Cycle matroid of a connected multigraph: bases are the spanning trees.
    A multigraph is connected exactly when it has one, so DisconnectedGraph
    is raised when the scan of the edge subsets finds none.  Edges that are
    not a collection, an edge that is not a pair of vertices, or a
    non-integer vertex raises InvalidParams."""
    n_vertices = _integer(n_vertices)
    edges = tuple(map(_edge, _tuple_of(edges, "edge list")))
    if n_vertices < 1 or not edges:
        raise errors.InvalidParams("need at least one vertex and one edge")
    for (u, v) in edges:
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise errors.InvalidParams("edge endpoint out of range: %r" % ((u, v),))
    m = len(edges)
    _refuse_large(m)
    bases = []
    for comb in itertools.combinations(range(m), n_vertices - 1):
        parent = list(range(n_vertices))
        for ei in comb:
            u, v = edges[ei]
            ru, rv = find(parent, u), find(parent, v)
            if ru == rv:
                break
            parent[ru] = rv
        else:
            bases.append(comb)
    if not bases:
        raise errors.DisconnectedGraph("input graph is not connected")
    return from_bases(m, bases, names=names, name=name)


def mk4() -> Matroid:
    return graphic(4, _K4_EDGES, names=_K4_NAMES, name="mk4")


def whirl3() -> Matroid:
    """Rank-3 whirl: the K4 cycle matroid with the rim triangle {d,e,f}
    relaxed into a basis (basis axioms revalidated on construction)."""
    return relax(mk4(), (3, 4, 5), name="whirl3")


def _by_nonbases(n: int, r: int, nonbases, name: str) -> Matroid:
    nb = set(nonbases)
    bases = [c for c in itertools.combinations(range(n), r) if c not in nb]
    return from_bases(n, bases, name=name)


def q6() -> Matroid:
    """Six elements, rank 3, exactly two 3-element circuit-hyperplanes
    (sharing one element)."""
    return _by_nonbases(6, 3, _Q6_NONBASES, "q6")


def p6() -> Matroid:
    """Six elements, rank 3, exactly one 3-element circuit-hyperplane."""
    return _by_nonbases(6, 3, _P6_NONBASES, "p6")


def vamos() -> Matroid:
    """The eight-element rank-4 vamos matroid."""
    return _by_nonbases(8, 4, _VAMOS_NONBASES, "vamos")


def catalog(name: str, *params) -> Matroid:
    """Build a named matroid: uniform(r, n), graphic(nv, edges), mk4,
    whirl3, q6, p6 or vamos.  Any other name, a string or not, raises
    UnknownName."""
    if not isinstance(name, str):
        raise errors.UnknownName("unknown catalog name %r" % (name,))
    simple = {"mk4": mk4, "whirl3": whirl3, "q6": q6, "p6": p6, "vamos": vamos}
    if name in simple:
        if params:
            raise errors.InvalidParams("%s takes no parameters" % name)
        return simple[name]()
    if name == "uniform":
        if len(params) != 2:
            raise errors.InvalidParams("uniform needs (r, n)")
        return uniform(*params)
    if name == "graphic":
        if len(params) != 2:
            raise errors.InvalidParams("graphic needs (n_vertices, edges)")
        return graphic(*params)
    raise errors.UnknownName("unknown catalog name %r" % (name,))
