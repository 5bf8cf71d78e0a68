"""Locked lattices as vertex-labeled DAGs.

The augmented lattice has one vertex per coparallel closure, parallel
closure and locked subset between a root (the empty set) and a sink (the
whole ground set); every vertex is labeled with (cardinality, rank).  The
reduced lattice has the same shape with single-number labels: closures keep
their cardinality, locked vertices keep their rank, the root is 0 and the
sink is the matroid rank.  Locked-set cardinalities dropped by the reduced
labeling are recoverable as a maximum flow from the root, with capacity 1
on the coparallel-to-parallel arcs and no bound elsewhere.

The series encoding replaces each vertex of a reduced lattice with a chain
of as many arcs as its label, giving an unlabeled digraph that can be fed
to a plain graph-isomorphism routine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from . import errors
from ._bits import bits_of
from .locked import LockedStructure
from .dagiso import ColoredDigraph

LEVELS = ("root", "coparallel", "parallel", "locked", "sink")

_INF = 1 << 30
_COLOR_BASE = 1 << 20  # labels are bounded by |E| << 2**20


@dataclass(frozen=True)
class LabeledDag:
    vertex_count: int
    arcs: tuple[tuple[int, int], ...]
    labels: tuple[tuple[int, ...], ...]
    levels: tuple[str, ...]
    provenance: tuple[Optional[tuple[int, ...]], ...]


def _holders(n: int, family) -> list[int]:
    """For each element e < n, the members of family that hold e, as a
    bitmask over their indices."""
    out = [0] * n
    for k, x in enumerate(family):
        for e in x:
            out[e] |= 1 << k
    return out


def _shape(s: LockedStructure):
    """Vertices and arcs shared by the augmented and reduced lattices.

    Arcs are read from per-element bitmasks: a coparallel class meets a
    parallel class when one of the parallel class's elements lies in it, a
    set lies inside the locked sets that hold all of its elements, and a
    locked set a is covered by b when b lies above a and no locked set lies
    both above a and below b."""
    n = s.ground_size
    provenance = [(), *s.coparallel, *s.parallel, *s.locked, tuple(range(n))]
    levels = (["root"] + ["coparallel"] * len(s.coparallel) + ["parallel"] * len(s.parallel)
              + ["locked"] * len(s.locked) + ["sink"])
    co0 = 1
    pa0 = co0 + len(s.coparallel)
    lo0 = pa0 + len(s.parallel)
    sink = lo0 + len(s.locked)

    co_of = _holders(n, s.coparallel)
    lo_of = _holders(n, s.locked)
    everything = (1 << len(s.locked)) - 1

    def inside(x) -> int:  # the locked sets that hold every element of x
        out = everything
        for e in x:
            out &= lo_of[e]
        return out

    arcs = [(0, co0 + i) for i in range(len(s.coparallel))]
    for j, x in enumerate(s.parallel):
        meets = 0
        for e in x:
            meets |= co_of[e]
        arcs += [(co0 + i, pa0 + j) for i in bits_of(meets)]
        arcs += [(pa0 + j, lo0 + k) for k in bits_of(inside(x))] or [(pa0 + j, sink)]
    above = [inside(x) & ~(1 << a) for a, x in enumerate(s.locked)]
    below = [0] * len(s.locked)
    for a, up in enumerate(above):
        for b in bits_of(up):
            below[b] |= 1 << a
    for a, up in enumerate(above):
        if not up:
            arcs.append((lo0 + a, sink))
        arcs += [(lo0 + a, lo0 + b) for b in bits_of(up) if not up & below[b]]
    arcs.sort()
    return tuple(provenance), tuple(levels), tuple(arcs)


def augmented_lattice(s: LockedStructure) -> LabeledDag:
    """Every vertex labeled (cardinality, rank); root (0,0), sink (|E|, r(E))."""
    provenance, levels, arcs = _shape(s)
    labels = tuple((len(x), s.rho[x]) for x in provenance)
    return LabeledDag(len(provenance), arcs, labels, levels, provenance)


def reduced_lattice(s: LockedStructure) -> LabeledDag:
    """Single-number labels: closures keep their cardinality, locked vertices
    their rank; root 0, sink r(E)."""
    provenance, levels, arcs = _shape(s)
    labels = []
    for x, lv in zip(provenance, levels):
        if lv in ("coparallel", "parallel"):
            labels.append((len(x),))
        else:  # root 0, locked rho, sink r(E)
            labels.append((s.rho[x],))
    return LabeledDag(len(provenance), arcs, tuple(labels), levels, provenance)


def recover_cardinality(d: LabeledDag, locked_vertex: int) -> int:
    """Maximum root-to-vertex flow, with capacity 1 on the coparallel-to-
    parallel arcs and no bound elsewhere; equals the cardinality of the
    represented locked subset."""
    if (not isinstance(locked_vertex, int) or not 0 <= locked_vertex < d.vertex_count
            or d.levels[locked_vertex] != "locked"):
        raise errors.NotLockedVertex("vertex %r is not a locked-level vertex" % (locked_vertex,))
    if any(len(lab) != 1 for lab in d.labels):
        raise errors.LabelArityMismatch("cardinality recovery expects a reduced lattice")
    residual: dict[int, dict[int, int]] = {v: {} for v in range(d.vertex_count)}
    for u, v in d.arcs:
        c = 1 if (d.levels[u], d.levels[v]) == ("coparallel", "parallel") else _INF
        residual[u][v] = residual[u].get(v, 0) + c
        residual[v].setdefault(u, 0)
    source, target = 0, locked_vertex
    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and target not in parent:
            x = queue.popleft()
            for y, c in residual[x].items():
                if c > 0 and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if target not in parent:
            return flow
        path_flow = _INF
        y = target
        while y != source:
            x = parent[y]
            path_flow = min(path_flow, residual[x][y])
            y = x
        y = target
        while y != source:
            x = parent[y]
            residual[x][y] -= path_flow
            residual[y][x] += path_flow
            y = x
        flow += path_flow


def series_encode(d: LabeledDag) -> ColoredDigraph:
    """Replace each vertex of label m by a chain of m arcs (m+1 vertices);
    incoming arcs attach to the chain head, outgoing arcs leave its tail.
    The result carries no labels (all colors zero)."""
    heads = []
    tails = []
    total = 0
    chain_arcs: list[tuple[int, int]] = []
    for lab in d.labels:
        if len(lab) != 1:
            raise errors.LabelArityMismatch("series encoding expects single-number labels")
        m = lab[0]
        heads.append(total)
        for i in range(m):
            chain_arcs.append((total + i, total + i + 1))
        total += m + 1
        tails.append(total - 1)
    arcs = chain_arcs + [(tails[u], heads[v]) for (u, v) in d.arcs]
    arcs.sort()
    return ColoredDigraph(total, tuple(arcs), (0,) * total)


def to_colored(d: LabeledDag) -> ColoredDigraph:
    """Encode (level, label tuple) injectively into one integer color per
    vertex, so isomorphism testing respects levels even when labels agree."""
    colors = []
    for lab, lv in zip(d.labels, d.levels):
        c = LEVELS.index(lv)
        for part in lab:
            c = c * _COLOR_BASE + part
        if len(lab) == 2:
            c += _COLOR_BASE ** 3  # keep arity-2 colors disjoint from arity-1
        colors.append(c)
    return ColoredDigraph(d.vertex_count, d.arcs, tuple(colors))


def label_text(lab: tuple[int, ...]) -> str:
    """A vertex label as text: "(c,r)" for a pair, "m" for one number;
    LabelArityMismatch for any other length."""
    if len(lab) not in (1, 2):
        raise errors.LabelArityMismatch("a label is one or two numbers: %r" % (lab,))
    return "(%d,%d)" % lab if len(lab) == 2 else "%d" % lab


def dot_text(d: LabeledDag) -> str:
    """Deterministic DOT export, with label_text labels."""
    lines = ["digraph locked_lattice {"]
    for v in range(d.vertex_count):
        lines.append('  v%d [label="%s"];' % (v, label_text(d.labels[v])))
    for (u, v) in d.arcs:
        lines.append("  v%d -> v%d;" % (u, v))
    lines.append("}")
    return "\n".join(lines) + "\n"
