"""Independent oracles for the test suite.

Everything here is deliberately written from the definitions, without the
bitmask tables or shortcuts of the package under test: ranks by scanning
the basis list, connectivity by trying every partition, locked sets by the
bare definition, spanning trees by brute-force edge subsets.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random


def naive_rank(bases, subset) -> int:
    s = set(subset)
    return max(len(s & set(b)) for b in bases)


def naive_connected(n, bases) -> bool:
    return naive_minor_connected(bases, list(range(n)))


def naive_dual_bases(n, bases):
    full = set(range(n))
    return [tuple(sorted(full - set(b))) for b in bases]


def naive_restriction_bases(n, bases, keep):
    """Bases of M|keep, as subsets of `keep` (original labels).  A set of size
    equal to its rank is independent."""
    keep = sorted(set(keep))
    best = naive_rank(bases, keep)
    return [c for c in itertools.combinations(keep, best)
            if naive_rank(bases, c) == best]


def naive_is_locked(n, bases, subset) -> bool:
    """Direct definition: M|L and M*|(E\\L) connected, both ranks >= 2."""
    l = set(subset)
    if not l or l == set(range(n)):
        raise ValueError("not a proper nonempty subset")
    comp = sorted(set(range(n)) - l)
    dual = naive_dual_bases(n, bases)
    if naive_rank(bases, l) < 2 or naive_rank(dual, comp) < 2:
        return False
    return (naive_minor_connected(bases, sorted(l))
            and naive_minor_connected(dual, comp))


def naive_is_cyclic_flat(bases, ground, subset) -> bool:
    """X is a cyclic flat of M|ground: X is its own closure in `ground` (no
    e outside X keeps the rank) and X is cyclic (every e in X lies on a
    circuit inside X, so removing it keeps the rank)."""
    x = set(subset)
    r = naive_rank(bases, x)
    closure = {e for e in ground if naive_rank(bases, x | {e}) == r}
    cyclic = all(naive_rank(bases, x - {e}) == r for e in x)
    return closure == x and cyclic


def naive_minor_connected(bases, ground, contract=()) -> bool:
    """(M/C)|X connected, from the definition: with r'(Y) = r(Y+C) - r(C),
    no split of X into nonempty parts A, B has r'(A) + r'(B) = r'(X)."""
    c = set(contract)

    def r(y):
        return naive_rank(bases, set(y) | c) - naive_rank(bases, c)

    r_full = r(ground)
    for k in range(1, len(ground)):
        for part in itertools.combinations(ground, k):
            rest = [e for e in ground if e not in part]
            if r(part) + r(rest) == r_full:
                return False
    return True


def naive_locked_sets(n, bases):
    """All locked subsets of a connected matroid, by the bare definition."""
    out = []
    for k in range(1, n):
        for comb in itertools.combinations(range(n), k):
            if naive_is_locked(n, bases, comb):
                out.append(comb)
    return out


def shuffled_direct_sum(parts, rng):
    """(n, bases) of the direct sum of (n, bases) parts, elements shuffled
    by rng."""
    n, bases = 0, [()]
    for pn, pbases in parts:
        bases = [b + tuple(e + n for e in pb) for b in bases for pb in pbases]
        n += pn
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [[perm[e] for e in b] for b in bases]


def spanning_trees(n_vertices, edges):
    """Edge-index subsets forming spanning trees, by checking every subset."""
    out = []
    for comb in itertools.combinations(range(len(edges)), n_vertices - 1):
        seen = {}

        def find(x):
            while seen.get(x, x) != x:
                x = seen[x]
            return x

        acyclic = True
        for ei in comb:
            u, v = edges[ei]
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            seen[ru] = rv
        if acyclic and len({find(v) for v in range(n_vertices)}) == 1:
            out.append(comb)
    return out


def exhaustive_max_basis(m, weights) -> int:
    return max(sum(weights[e] for e in b) for b in m.bases)


def random_colored_dag(rng: Random, n: int, colors: int = 3):
    """Random DAG on vertices 0..n-1 with arcs respecting a random topological
    order, plus random colors."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                arcs.add((order[i], order[j]))
    cols = tuple(rng.randrange(colors) for _ in range(n))
    return sorted(arcs), cols


def permute_digraph(rng: Random, n, arcs, cols):
    perm = list(range(n))
    rng.shuffle(perm)
    new_arcs = sorted((perm[u], perm[v]) for (u, v) in arcs)
    new_cols = [0] * n
    for v in range(n):
        new_cols[perm[v]] = cols[v]
    return new_arcs, tuple(new_cols)


def fraction_member(sys, point):
    """polytope.member in plain Fraction arithmetic: the first violated row
    of the system in order, or (True, None)."""
    x = tuple(Fraction(c) for c in point)
    for row in sys.rows:
        total = sum((x[i] for i in row.support), Fraction(0))
        if ((row.rel == "==" and total != row.bound) or (row.rel == "<=" and total > row.bound)
                or (row.rel == ">=" and total < row.bound)):
            return False, row
    return True, None


def fraction_member_Q(m, point) -> bool:
    """polytope.member_Q from the definition, in Fraction arithmetic:
    x(E) = r(E), 0 <= x <= 1, and x(A) <= r(A) for every subset A."""
    x = tuple(Fraction(c) for c in point)
    if sum(x) != m.rank or any(c < 0 or c > 1 for c in x):
        return False
    return all(sum((x[e] for e in a), Fraction(0)) <= naive_rank(m.bases, a)
               for k in range(1, m.n + 1) for a in itertools.combinations(range(m.n), k))
