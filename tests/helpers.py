"""Independent oracles for the test suite.

Everything here is deliberately written from the definitions, without the
bitmask tables or shortcuts of the package under test: ranks by scanning
the basis list, loops and coloops by scanning the basis masks,
connectivity by trying every partition, locked sets by the bare
definition, spanning trees by brute-force edge subsets, digraph
isomorphism by backtracking over every colour-respecting bijection.  The
exceptions are frozen copies of earlier code paths that the package's
faster ones must reproduce: `reference_canonical_form` (the search before
its worklist refinement), `reference_are_isomorphic` (two such searches and
a digest compare per pair), `reference_rank_table`,
`reference_locked_iter` and `reference_locally_submodular` (the per-subset
loops before the byte lanes and the packed lanes), and
`separator`, `is_cyclic_flat` and `components` (the rank-table submask
walks before the separator lanes and the cyclic-flat pair test), and
`reference_sample_rational_points` (the Fraction sampler before the
integer one), and `reference_bits_of`, `reference_closures` and
`reference_shape_arcs` (the bit walk, the per-pair lambdas and the
pairwise lattice scans before the byte tables, the per-element
comprehensions and the per-element bitmasks), and
`reference_locked_structure` (the structure assembled from tuples, each
stored rank read through mask_of, before its subsets stayed masks), and
`reference_two_sum` and
`reference_zero_locked` (the 2-sum through per-basis index remaps and the
zero-locked route with its hand-written counted comparisons, before the
masks and functools.cmp_to_key), and `ReferenceSimplexProgram` and
`reference_lp_maximize` (the simplex that divided every updated row by its
gcd and summed a Fraction witness, before unit pivots skipped the gcd and
the LP answered on integers), and `reference_component_flats` (one
cyclic-flat sweep per component, before one sweep served every
component), and `reference_zero_one_vertices` (the scan of every
r-subset by `itertools.combinations` and bit counts, before the byte
lanes).  `cyclic_flat_iso` decides matroid isomorphism from the
cyclic flats and their ranks, with a checked element witness, apart from
the locked lattice.  `pg32_blocks` and `pasch_trade` build
Steiner triple systems on 15 points, and `steiner_matroid` their sparse
paving matroids.  `sparse_paving` builds seeded sparse paving matroids
from a greedy packing of circuit-hyperplanes.
"""

from __future__ import annotations

import itertools
import math
from array import array
from fractions import Fraction
from random import Random
from typing import Optional

from lockedmatroid import errors
from lockedmatroid._bits import bits_of, mask_of, subset_key
from lockedmatroid.dagiso import CanonicalForm, ColoredDigraph, _digest, _profile, are_isomorphic
from lockedmatroid.isoengine import IsoReport
from lockedmatroid.locked import LockedStructure, _locked_iter
from lockedmatroid.matroid import (GroundSet, Matroid, _check_elements, _refuse_large,
                                   _reject_disconnected, _reject_loops_coloops, closures,
                                   cyclic_flats, from_bases, is_connected)
from lockedmatroid.polytope import MAX_DENOMINATOR, _integral
from lockedmatroid.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, SimplexProgram


def naive_rank(bases, subset) -> int:
    s = set(subset)
    return max(len(s & set(b)) for b in bases)


def naive_connected(n, bases) -> bool:
    return naive_minor_connected(bases, list(range(n)))


def basis_scan_loops(m: Matroid) -> tuple[int, ...]:
    """The elements in no basis, from the union of the basis masks."""
    union = 0
    for b in m._basis_masks:
        union |= b
    return bits_of(m.full_mask ^ union)


def basis_scan_coloops(m: Matroid) -> tuple[int, ...]:
    """The elements in every basis, from the intersection of the basis masks."""
    inter = m.full_mask
    for b in m._basis_masks:
        inter &= b
    return bits_of(inter)


def naive_dual_bases(n, bases):
    full = set(range(n))
    return [tuple(sorted(full - set(b))) for b in bases]


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


def random_colored_digraph(rng: Random, n: int, colors: int = 2):
    """Random digraph on vertices 0..n-1: each ordered pair, loops included,
    is an arc with probability 0.35, so cycles and 2-cycles occur."""
    arcs = [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.35]
    cols = tuple(rng.randrange(colors) for _ in range(n))
    return arcs, cols


def random_multi_digraph(rng: Random, n: int, colors: int = 2):
    """Random digraph on vertices 0..n-1 whose arcs may repeat: about a
    third of the vertices get no arc, and up to 1.5 arcs per other vertex
    are drawn with replacement, loops included.  Colour classes so mix
    isolated vertices, sources, sinks, in- and out-degree one and higher
    degrees."""
    active = [v for v in range(n) if rng.random() < 0.7]
    arcs = [(rng.choice(active), rng.choice(active))
            for _ in range(rng.randint(0, 3 * len(active) // 2))] if active else []
    cols = tuple(rng.randrange(colors) for _ in range(n))
    return arcs, cols


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


def reference_zero_one_vertices(sys, cardinality: int) -> tuple[tuple[int, ...], ...]:
    """polytope.zero_one_vertices by one pass over the subsets of the given
    cardinality in itertools.combinations order, each row checked by the bit
    count of its support within the subset."""
    rows = {"==": [], "<=": [], ">=": []}
    for row in sys.rows:
        rows[row.rel].append((sum(1 << i for i in set(row.support)), row.bound))
    eq, le, ge = rows["=="], rows["<="], rows[">="]
    bits = [1 << i for i in range(sys.dimension)]
    return tuple(comb for comb, c in zip(itertools.combinations(range(sys.dimension), cardinality),
                                         map(sum, itertools.combinations(bits, cardinality)))
                 if all((c & a).bit_count() == b for a, b in eq)
                 and all((c & a).bit_count() <= b for a, b in le)
                 and all((c & a).bit_count() >= b for a, b in ge))


def reference_sample_rational_points(n: int, target_sum: int, count: int,
                                     rng: Random) -> list[tuple[Fraction, ...]]:
    """Seeded rational sample points: coordinates with denominators up to
    MAX_DENOMINATOR drawn in [0,1], then shifted onto the hyperplane
    x(E) = target_sum.  Points may leave the unit box; they are kept."""
    points = []
    for _ in range(count):
        coords = []
        for _ in range(n):
            den = rng.randint(1, MAX_DENOMINATOR)
            coords.append(Fraction(rng.randint(0, den), den))
        shift = Fraction(target_sum - sum(coords), n)
        points.append(tuple(c + shift for c in coords))
    return points


def _dense(values) -> list[int]:
    ranking = {v: i for i, v in enumerate(sorted(set(values)))}
    return [ranking[v] for v in values]


def brute_force_iso(g1: ColoredDigraph, g2: ColoredDigraph, max_n: int = 12) -> bool:
    """Exhaustive backtracking over color-respecting bijections.  Cheap
    invariant mismatches (sizes, color multisets, degree profiles) answer
    False before the size cap applies; larger equal-profile inputs raise
    TooLarge."""
    n = g1.vertex_count
    p1, in1, out1 = _profile(g1)
    p2, in2, out2 = _profile(g2)
    if p1 != p2:
        return False
    if n > max_n:
        raise errors.TooLarge("brute force capped at %d vertices" % max_n)
    if n == 0:
        return True

    adj1 = set(g1.arcs)
    adj2 = set(g2.arcs)
    if len(adj1) != len(g1.arcs) or len(adj2) != len(g2.arcs):
        raise errors.InvalidParams("brute force expects simple digraphs")
    used = [False] * n
    mapping = [-1] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or g1.colors[v] != g2.colors[w]:
                continue
            if in1[v] != in2[w] or out1[v] != out2[w]:
                continue
            ok = True
            for u in range(v):
                mu = mapping[u]
                if ((u, v) in adj1) != ((mu, w) in adj2):
                    ok = False
                    break
                if ((v, u) in adj1) != ((w, mu) in adj2):
                    ok = False
                    break
            if ok and ((v, v) in adj1) != ((w, w) in adj2):
                ok = False
            if not ok:
                continue
            mapping[v] = w
            used[w] = True
            if extend(v + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    return extend(0)


def reference_canonical_form(g: ColoredDigraph) -> CanonicalForm:
    """dagiso.canonical_form as it was before the worklist refinement and the
    best-path backjump: every round re-ranks every vertex, and only orbit
    pruning cuts the search.  The (digest, perm) it returns is the one the
    package must reproduce."""
    n = g.vertex_count
    if n == 0:
        return CanonicalForm((), (), (), _digest(0, (), ()))
    in_adj = [[] for _ in range(n)]
    out_adj = [[] for _ in range(n)]
    for (u, v) in g.arcs:
        out_adj[u].append(v)
        in_adj[v].append(u)

    def refine(col: list[int]) -> list[int]:
        # col is dense, and the old colour is the first sort key, so a vertex
        # alone in its cell keeps its rank whatever its neighbour colours are:
        # it gets the signature (colour, (), ()) and no neighbour tuples
        while True:
            size = [0] * n
            for c in col:
                size[c] += 1
            sigs = [
                (c, (), ()) if size[c] == 1 else
                (c,
                 tuple(sorted(col[u] for u in in_adj[v])),
                 tuple(sorted(col[u] for u in out_adj[v])))
                for v, c in enumerate(col)
            ]
            ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
            new = [ranking[s] for s in sigs]
            if new == col:
                return col
            col = new

    best_key: Optional[tuple] = None
    best_perm: Optional[list[int]] = None
    best_inv: Optional[list[int]] = None
    autos: list[list[int]] = []

    def leaf(col: list[int]) -> None:
        nonlocal best_key, best_perm, best_inv
        inv = [0] * n
        for v in range(n):
            inv[col[v]] = v
        colors_canon = tuple(g.colors[inv[p]] for p in range(n))
        arcs_canon = tuple(sorted((col[u], col[v]) for (u, v) in g.arcs))
        key = (colors_canon, arcs_canon)
        if best_key is None or key < best_key:
            best_key, best_perm, best_inv = key, list(col), inv
        elif key == best_key:
            autos.append([best_inv[col[v]] for v in range(n)])

    def target_cell(col: list[int]) -> Optional[list[int]]:
        cells: dict[int, list[int]] = {}
        for v in range(n):
            cells.setdefault(col[v], []).append(v)
        cand = [vs for vs in cells.values() if len(vs) > 1]
        if not cand:
            return None
        cand.sort(key=lambda vs: (len(vs), col[vs[0]]))
        return cand[0]

    def dfs(col: list[int], fixed: list[int]) -> None:
        cell = target_cell(col)
        if cell is None:
            leaf(col)
            return
        # orbit[w] names w's orbit under the automorphisms found so far that
        # fix every vertex of `fixed`; each automorphism is merged in once
        orbit = list(range(n))
        merged = 0
        done: list[int] = []
        for v in cell:
            if done:
                for a in autos[merged:]:
                    if all(a[f] == f for f in fixed):
                        for w in range(n):
                            old, new = orbit[w], orbit[a[w]]
                            if old != new:
                                orbit = [new if o == old else o for o in orbit]
                merged = len(autos)
                if any(orbit[v] == orbit[d] for d in done):
                    continue
            split = [c * 2 + (0 if u == v else 1) for c, u in zip(col, range(n))]
            dfs(refine(_dense(split)), fixed + [v])
            done.append(v)

    dfs(refine(_dense(list(g.colors))), [])
    if best_perm is None:
        raise errors.LockedMatroidError("canonical search reached no leaf")
    colors_canon, arcs_canon = best_key
    return CanonicalForm(tuple(best_perm), colors_canon, arcs_canon,
                         _digest(n, colors_canon, arcs_canon))


def reference_are_isomorphic(g1: ColoredDigraph, g2: ColoredDigraph):
    """dagiso.are_isomorphic on the reference search: two full canonical
    searches and a digest compare.  The (answer, witness) it returns is the
    one the package must reproduce."""
    cf1, cf2 = reference_canonical_form(g1), reference_canonical_form(g2)
    if cf1.digest != cf2.digest:
        return False, None
    inv2 = [0] * g2.vertex_count
    for v, p in enumerate(cf2.perm):
        inv2[p] = v
    return True, tuple(inv2[cf1.perm[v]] for v in range(g1.vertex_count))


def reference_rank_table(m) -> list[int]:
    """Matroid._build_tables as it was before the byte lanes: close the
    basis masks downward subset by subset, then take each dependent set's
    rank as the largest rank of a set one element smaller."""
    n = m.n
    size = 1 << n
    ind = bytearray(size)
    for b in m._basis_masks:
        ind[b] = 1
    for x in range(size - 1, -1, -1):
        if ind[x]:
            rest = x
            while rest:
                low = rest & -rest
                ind[x ^ low] = 1
                rest ^= low
    ranks = [0] * size
    for x in range(1, size):
        if ind[x]:
            ranks[x] = x.bit_count()
        else:
            best = 0
            rest = x
            while rest:
                low = rest & -rest
                r = ranks[x ^ low]
                if r > best:
                    best = r
                rest ^= low
            ranks[x] = best
    return ranks


def reference_rank_steps(ranks: bytes, n: int) -> list[tuple[int, int]]:
    """matroid._rank_steps as it was before the biased subtraction: for each
    e, both r shifted down by 2^e lanes and r itself are masked to the lanes
    without e by a 0xFF product, then subtracted, on HAS patterns built
    for this call."""
    size = 1 << n
    r = int.from_bytes(ranks, "little")
    ones = int.from_bytes(b"\1" * size, "little")
    steps = []
    for e in range(n):
        has = int.from_bytes((bytes(1 << e) + b"\1" * (1 << e)) * (1 << (n - 1 - e)), "little")
        rest = (ones ^ has) * 0xFF  # the lanes without e
        steps.append((has, ((r >> (8 << e)) & rest) - (r & rest)))
    return steps


def reference_component_flats(ranks: bytes, n: int, comp: int) -> list[int]:
    """matroid.cyclic_flats as it was with a component argument: the cyclic
    flats of M|comp, in increasing order, from one sweep over all n
    elements per component that drops the lanes of the sets meeting an
    element outside comp.  The steps are reference_rank_steps'."""
    flats = -1
    for e, (has, d) in enumerate(reference_rank_steps(ranks, n)):
        if not comp >> e & 1:
            flats &= ~has  # X inside comp
            continue
        flats &= d | (has ^ (d << (8 << e)))
    lanes = flats.to_bytes(1 << n, "little")
    return [x for x, v in enumerate(lanes) if v]


def cyclic_flat_iso(m1: Matroid, m2: Matroid) -> tuple[bool, Optional[tuple[int, ...]]]:
    """(answer, element map) for matroid isomorphism from the cyclic flats,
    without the paper's axioms or the locked lattice.  A matroid is
    determined by its cyclic flats and their ranks, as r(X) is the least
    r(F) + |X - F| over cyclic flats F (Bonin and de Mier 2008), so a
    bijection of E is an isomorphism exactly when it maps the cyclic flats
    onto cyclic flats of equal rank.  Each matroid is encoded with one
    vertex per element, one vertex per cyclic flat coloured by its rank and
    size, and an arc e -> F for each e in F; dagiso.are_isomorphic compares
    the encodings, and the element part of a "yes" witness is checked on
    the basis masks."""
    def encode(m: Matroid) -> ColoredDigraph:
        ranks = m._rank_table()
        flats = list(cyclic_flats(ranks, m.n))
        # sizes are at most MAX_N = 16, so each (rank, size) gets its own colour
        colors = [0] * m.n + [1 + ranks[f] * 17 + f.bit_count() for f in flats]
        arcs = tuple((e, m.n + i) for i, f in enumerate(flats) for e in bits_of(f))
        return ColoredDigraph(len(colors), arcs, tuple(colors))

    answer, witness = are_isomorphic(encode(m1), encode(m2))
    if not answer:
        return False, None
    elements = witness[:m1.n]
    image = {sum(1 << elements[e] for e in bits_of(b)) for b in m1._basis_masks}
    if image != set(m2._basis_masks):
        raise AssertionError("the element map does not carry bases onto bases")
    return True, elements


def separator(ranks, x: int, c: int = 0) -> Optional[int]:
    """A separator of the minor (M/C)|X, read from M's rank table: a submask
    A of X that holds X's lowest element, with A != X and
    r(A+C) + r(X-A+C) = r(X+C) + r(C).  Submasks are tried largest first.
    None when (M/C)|X is connected; X of at most one element always is."""
    if x & (x - 1) == 0:
        return None
    low = x & -x
    rest = x ^ low
    # C folded into the loop constants: lowc | b = A+C, restc ^ b = X-A+C
    lowc = low | c
    restc = rest | c
    target = ranks[x | c] + ranks[c]
    b = (rest - 1) & rest
    while True:
        if ranks[lowc | b] + ranks[restc ^ b] == target:
            return low | b
        if b == 0:
            return None
        b = (b - 1) & rest


def is_cyclic_flat(ranks, comp: int, x: int) -> bool:
    """X is a cyclic flat of M|comp, read from M's rank table: r(X-e) = r(X)
    for every e in X (X is a union of circuits) and r(X+e) > r(X) for every
    e in comp\\X (X is closed in comp).  X must be a submask of comp."""
    r = ranks[x]
    b = x
    while b:
        low = b & -b
        if ranks[x ^ low] != r:
            return False
        b ^= low
    b = comp ^ x
    while b:
        low = b & -b
        if ranks[x | low] == r:
            return False
        b ^= low
    return True


def components(ranks, x: int) -> list[int]:
    """The connected components of M|X, as masks, split recursively at the
    first separator found."""
    a = separator(ranks, x)
    if a is None:
        return [x]
    return components(ranks, a) + components(ranks, x ^ a)


def reference_is_locked_in_component(ranks, comp: int, lm: int) -> bool:
    """locked._is_locked_in_component as it was before the cyclic-flat pair
    test: rank, corank, the cyclic-flat test, then separator scans of M|L
    and of (M/L)|(C\\L)."""
    r_l = ranks[lm]
    if r_l < 2:
        return False
    co_rank = (comp ^ lm).bit_count() + r_l - ranks[comp]
    if co_rank < 2:
        return False
    if not is_cyclic_flat(ranks, comp, lm):
        return False
    if separator(ranks, lm) is not None:
        return False
    return separator(ranks, comp ^ lm, lm) is None


def reference_locked_iter(m):
    """locked._locked_iter as it was before the cyclic-flat lanes: every
    proper nonempty submask of each component, in decreasing integer order,
    through the separator-scan lockedness rule, with the components split
    by `components`."""
    ranks = m._rank_table()
    for comp in components(ranks, m.full_mask):
        x = (comp - 1) & comp
        while x:
            if reference_is_locked_in_component(ranks, comp, x):
                yield x
            x = (x - 1) & comp


def reference_locally_submodular(ranks, n: int) -> bool:
    """matroid._locally_submodular as it was before the packed lanes: for
    each non-spanning X, from the largest down, the elements of cl(X)\\X,
    and a failure where two of them, e < f, have f outside cl(X+e)."""
    size = 1 << n
    full = size - 1
    r_full = ranks[full]
    spanned = array("I", [0]) * size
    for x in range(full, -1, -1):
        r = ranks[x]
        if r == r_full:
            spanned[x] = full ^ x
            continue
        s = 0
        rest = full ^ x
        while rest:
            low = rest & -rest
            rest ^= low
            if ranks[x | low] == r:
                s |= low
        spanned[x] = s
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            # spanned[x | low] is final: x | low > x
            if rest & ~spanned[x | low]:
                return False
    return True


def reference_bits_of(mask: int) -> tuple[int, ...]:
    """_bits.bits_of as it was before the byte tables: one bit at a time,
    lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def pg32_blocks() -> list[tuple[int, int, int]]:
    """The Steiner triple system PG(3,2) on 15 points: point p stands for
    the nonzero vector p + 1 of F_2^4, and {a, b, a xor b} is a block."""
    return sorted({tuple(sorted((a - 1, b - 1, (a ^ b) - 1)))
                   for a in range(1, 16) for b in range(a + 1, 16)})


def pasch_configurations(blocks) -> list[tuple[int, ...]]:
    """Every Pasch configuration of a triple system, as one labelling
    (a, b, c, d, e, f) of its blocks abc, ade, bdf, cef, in a fixed order:
    four blocks on six points, each point on two of them."""
    third = {}
    for blk in blocks:
        for x, y in itertools.permutations(blk, 2):
            third[x, y] = next(z for z in blk if z not in (x, y))
    found = {}
    for blk1, blk2 in itertools.combinations(blocks, 2):
        common = set(blk1) & set(blk2)
        if len(common) != 1:
            continue
        a = common.pop()
        b, c = (x for x in blk1 if x != a)
        for d, e in itertools.permutations([x for x in blk2 if x != a]):
            f = third[b, d]
            if third.get((c, e)) == f:
                quad = frozenset(map(frozenset, ((a, b, c), (a, d, e), (b, d, f), (c, e, f))))
                found.setdefault(quad, (a, b, c, d, e, f))
    return sorted(found.values())


def pasch_trade(blocks, rng: Random) -> list[tuple[int, int, int]]:
    """Another triple system on the same points: one seeded Pasch
    configuration {abc, ade, bdf, cef} replaced by {abd, ace, bcf, def},
    which covers the same twelve pairs."""
    a, b, c, d, e, f = rng.choice(pasch_configurations(blocks))
    old = {tuple(sorted(t)) for t in ((a, b, c), (a, d, e), (b, d, f), (c, e, f))}
    new = {tuple(sorted(t)) for t in ((a, b, d), (a, c, e), (b, c, f), (d, e, f))}
    return sorted((set(blocks) - old) | new)


def steiner_matroid(blocks, points: int = 15):
    """The rank-3 sparse paving matroid whose circuit-hyperplanes are the
    blocks of a Steiner triple system: every other 3-set is a basis."""
    from lockedmatroid import from_bases
    nonbases = set(blocks)
    return from_bases(points, [t for t in itertools.combinations(range(points), 3)
                               if t not in nonbases])


def reference_closures(m):
    """matroid.closures as it was before the per-element comprehensions:
    one rank-table test per pair (e, f), through a lambda."""
    ranks = m._rank_table()
    n, full = m.n, m.full_mask
    r_e = ranks[full]

    def classes(same):
        found = {tuple(f for f in range(n) if f == e or same(e, f)) for e in range(n)}
        return tuple(sorted(found, key=lambda t: (len(t), t)))

    return (classes(lambda e, f: ranks[(1 << e) | (1 << f)] == 1),
            classes(lambda e, f: ranks[full ^ (1 << e) ^ (1 << f)] == r_e - 1))


def reference_locked_structure(m):
    """locked.locked_structure as it was assembled before its subsets stayed
    masks: the closures as sets of per-element tuples, the locked sets
    through bits_of and a sort by subset_key, and every stored rank read by
    mask_of of its tuple, in the stored-domain order ({}, E, each parallel
    and then each coparallel class with its complement, the locked sets).
    The locked masks are the package's own enumeration."""
    ranks = m._rank_table()
    _reject_loops_coloops(m)
    n, full = m.n, m.full_mask
    r_e = ranks[full]
    bit = [1 << f for f in range(n)]
    parallel = {tuple(f for f in range(n) if ranks[bit[e] | bit[f]] <= 1) for e in range(n)}
    coparallel = {tuple(f for f in range(n) if f == e or ranks[full ^ bit[e] ^ bit[f]] < r_e)
                  for e in range(n)}
    parallel = tuple(sorted(parallel, key=subset_key))
    coparallel = tuple(sorted(coparallel, key=subset_key))
    locked = tuple(sorted((bits_of(x) for x in _locked_iter(m)), key=subset_key))
    domain = [(), tuple(range(n))]
    for x in itertools.chain(parallel, coparallel):
        domain += (x, bits_of(full ^ mask_of(x)))
    rho = {x: ranks[mask_of(x)] for x in domain + list(locked)}
    return LockedStructure(n, m.names, parallel, coparallel, locked, rho)


def reference_shape_arcs(s) -> list[tuple[int, int]]:
    """The arcs of lattice._shape as it drew them before the per-element
    bitmasks, with the root 0, then the coparallel, parallel and locked
    sets in order, then the sink: every coparallel class to each parallel
    class it meets, a parallel class to each locked set that contains it
    (to the sink when none does), and a locked set a to b when a lies
    strictly inside b and no third set lies between them (to the sink when
    no set contains a)."""
    def masks(family):
        return [sum(1 << e for e in x) for x in family]

    co, pa, lo = masks(s.coparallel), masks(s.parallel), masks(s.locked)
    co0, pa0 = 1, 1 + len(co)
    lo0 = pa0 + len(pa)
    sink = lo0 + len(lo)
    arcs = [(0, co0 + i) for i in range(len(co))]
    arcs += [(co0 + i, pa0 + j) for i, cm in enumerate(co) for j, pm in enumerate(pa) if cm & pm]
    for j, pm in enumerate(pa):
        above = [lo0 + k for k, lm in enumerate(lo) if pm & ~lm == 0]
        arcs += [(pa0 + j, v) for v in above or [sink]]
    for a, la in enumerate(lo):
        for b, lb in enumerate(lo):
            if a == b or la & ~lb:
                continue
            if any(c not in (a, b) and la & ~lo[c] == 0 and lo[c] & ~lb == 0
                   for c in range(len(lo))):
                continue
            arcs.append((lo0 + a, lo0 + b))
    for a, la in enumerate(lo):
        if not any(a != b and la & ~lb == 0 for b, lb in enumerate(lo)):
            arcs.append((lo0 + a, sink))
    return sorted(arcs)


def reference_two_sum(m1: Matroid, m2: Matroid, e1: int, e2: int) -> Matroid:
    """matroid.two_sum as it was before it worked on masks: every basis
    through bits_of, two position dicts and mask_of."""
    for m in (m1, m2):
        if m.n < 3:
            raise errors.TooSmall("2-sum needs at least 3 elements on each side")
    _refuse_large(m1.n + m2.n - 2)
    _check_elements(m1.n, (e1,))
    _check_elements(m2.n, (e2,))
    for m, e in ((m1, e1), (m2, e2)):
        if e in m.loops() or e in m.coloops():
            raise errors.BasepointIsLoopOrColoop("basepoint %d" % e)
        if not is_connected(m):
            raise errors.Disconnected("%s is not connected" % m.name)
    left = [i for i in range(m1.n) if i != e1]
    right = [i for i in range(m2.n) if i != e2]
    lpos = {old: new for new, old in enumerate(left)}
    rpos = {old: new + len(left) for new, old in enumerate(right)}
    b1mask = 1 << e1
    b2mask = 1 << e2
    out = set()
    for b1 in m1._basis_masks:
        has1 = bool(b1 & b1mask)
        part1 = mask_of(lpos[e] for e in bits_of(b1 & ~b1mask))
        for b2 in m2._basis_masks:
            if has1 == bool(b2 & b2mask):
                continue
            out.add(part1 | mask_of(rpos[e] for e in bits_of(b2 & ~b2mask)))
    names = [m1.names[i] for i in left]
    taken = set(names)
    for i in right:
        nm = m2.names[i]
        while nm in taken:
            nm += "'"
        taken.add(nm)
        names.append(nm)
    ground = GroundSet(len(names), tuple(names))
    res = Matroid(ground, out, "twosum(%s,%s)" % (m1.name, m2.name))
    if res.rank != m1.rank + m2.rank - 1:
        raise errors.LockedMatroidError("2-sum has rank %d, expected %d"
                                        % (res.rank, m1.rank + m2.rank - 1))
    return res


class _CountedValue:
    __slots__ = ("value", "cell")

    def __init__(self, value, cell):
        self.value = value
        self.cell = cell

    def __lt__(self, other):
        self.cell[0] += 1
        return self.value < other.value

    def __eq__(self, other):
        self.cell[0] += 1
        return self.value == other.value


def reference_zero_locked(m1: Matroid, m2: Matroid) -> IsoReport:
    """isoengine.mip_zero_locked as it was with its own counted-value
    wrapper and a separate loop and coloop pass before connectivity."""
    for m in (m1, m2):
        _reject_loops_coloops(m)
    for m in (m1, m2):
        _reject_disconnected(m)
        if next(iter(_locked_iter(m)), None) is not None:
            raise errors.NotZeroLocked("%s has a locked subset" % m.name)
    p1, s1 = closures(m1)
    p2, s2 = closures(m2)
    cell = [0]
    # ground size and rank are not carried by the closure sequences (they are
    # the lattice's sink label) and must match as well
    cell[0] += 2
    answer = m1.n == m2.n and m1.rank == m2.rank
    for f1, f2 in ((s1, s2), (p1, p2)):
        if not answer:
            break
        if len(f1) != len(f2):
            cell[0] += 1
            answer = False
            continue
        a = sorted(_CountedValue(len(x), cell) for x in f1)
        b = sorted(_CountedValue(len(x), cell) for x in f2)
        for u, v in zip(a, b):
            if not (u == v):
                answer = False
                break
    return IsoReport(answer, "zero-locked", locked_counts=(0, 0), opcount=cell[0])


def reference_primitive(nums: list[int]) -> list[int]:
    """nums divided by their gcd; an all-zero row stays as it is."""
    g = math.gcd(*nums)
    return [x // g for x in nums] if g > 1 else nums


def reference_eliminate(row: list[int], c: int, p: int, cells: list[tuple[int, int]]) -> list[int]:
    """simplex._eliminate as it was: every updated row divided by its gcd,
    after unit pivots too."""
    a = row[c]
    new = [x * p for x in row] if p != 1 else row[:]
    for j, y in cells:
        new[j] -= a * y
    return reference_primitive(new)


class ReferenceSimplexProgram(SimplexProgram):
    """SimplexProgram with its pivoting and its maximize as they were before
    unit pivots skipped the gcd and the result was computed on integers:
    every row update goes through reference_eliminate, and maximize sums
    its Fraction witness basic row by basic row.  Construction and phase
    one are inherited and call these methods.  ``counts`` records the unit
    pivots, the other pivots and the ratio-test ties of every phase."""

    def __init__(self, *args, **kwargs):
        self.counts = {"unit pivots": 0, "other pivots": 0, "ratio ties": 0}
        super().__init__(*args, **kwargs)

    def _pivot(self, rows, basis, obj: list[int], r: int, c: int) -> list[int]:
        prow = rows[r]
        if prow[c] < 0:
            rows[r] = prow = [-x for x in prow]
        p, cells = prow[c], [(j, y) for j, y in enumerate(prow) if y]
        self.counts["unit pivots" if p == 1 else "other pivots"] += 1
        for i, row in enumerate(rows):
            if row[c] and i != r:
                rows[i] = reference_eliminate(row, c, p, cells)
        basis[r] = c
        return reference_eliminate(obj, c, p, cells) if obj[c] else obj

    def _bland(self, rows, basis, obj: list[int]) -> tuple[str, list[int]]:
        ncols = self.ncols
        while True:
            enter = next((j for j in range(ncols) if obj[j] < 0), -1)
            if enter < 0:
                return OPTIMAL, obj
            leave = -1
            lb = la = 0
            for i, row in enumerate(rows):
                a = row[enter]
                if a <= 0:
                    continue
                b = row[-1]
                if leave >= 0 and b * la == lb * a:
                    self.counts["ratio ties"] += 1
                if leave < 0 or b * la < lb * a or (b * la == lb * a and basis[i] < basis[leave]):
                    leave, lb, la = i, b, a
            if leave < 0:
                return UNBOUNDED, obj
            obj = self._pivot(rows, basis, obj, leave, enter)

    @staticmethod
    def _objective_row(rows, basis, c_vec) -> list[int]:
        obj = [-c for c in c_vec] + [0, 1]
        for row, col in zip(rows, basis):
            if obj[col]:
                cells = [(j, y) for j, y in enumerate(row) if y]
                obj = reference_eliminate(obj, col, row[col], cells)
        return obj

    def maximize(self, objective):
        if len(objective) != self.n_vars:
            raise errors.DimensionMismatch("objective width mismatch")
        if not self.feasible:
            return INFEASIBLE, None, None
        rows = list(self._rows0)
        basis = self._basis0[:]
        c_vec = [0] * self.ncols
        for j, w in enumerate(objective):
            c_vec[j] = w
            if not self.nonneg:
                c_vec[self.n_vars + j] = -w
        obj = self._objective_row(rows, basis, c_vec)
        status, obj = self._bland(rows, basis, obj)
        if status != OPTIMAL:
            return status, None, None
        value = Fraction(obj[-2], obj[-1])
        point = [Fraction(0)] * self.n_vars
        for i, row in enumerate(rows):
            col = basis[i]
            val = Fraction(row[-1], row[col])
            if col < self.n_vars:
                point[col] += val
            elif not self.nonneg and col < 2 * self.n_vars:
                point[col - self.n_vars] -= val
        return OPTIMAL, value, tuple(point)


def reference_lp_maximize(sys, weights, add_box: bool = True):
    """polytope.lp_maximize on a fresh ReferenceSimplexProgram: the same
    constraints, the same statuses raised as Infeasible and Unbounded, and
    the optimum scaled back by the weights' common denominator."""
    constraints = []
    for row in sys.rows:
        coeffs = [0] * sys.dimension
        for i in row.support:
            coeffs[i] = 1
        constraints.append((coeffs, row.rel, row.bound))
    if add_box:
        for i in range(sys.dimension):
            coeffs = [0] * sys.dimension
            coeffs[i] = 1
            constraints.append((coeffs, "<=", 1))
    ints, scale = _integral(weights)
    prog = ReferenceSimplexProgram(sys.dimension, constraints, nonneg=add_box)
    status, value, point = prog.maximize(ints)
    if status == INFEASIBLE:
        raise errors.Infeasible("system has no feasible point")
    if status == UNBOUNDED:
        raise errors.Unbounded("objective is unbounded over the system")
    return Fraction(value, scale), point


def sparse_paving(n: int, r: int, seed: int) -> Matroid:
    """A seeded sparse paving matroid of rank r on n elements: the r-sets,
    taken in a seeded order, are packed greedily so that any two kept ones
    meet in at most r - 2 elements, and the kept ones (its
    circuit-hyperplanes) are dropped from U(r,n)'s bases."""
    rng = Random(seed)
    sets = [mask_of(c) for c in itertools.combinations(range(n), r)]
    rng.shuffle(sets)
    kept: list[int] = []
    for a in sets:
        if all((a & b).bit_count() <= r - 2 for b in kept):
            kept.append(a)
    dropped = set(kept)
    bases = [bits_of(a) for a in sorted(sets) if a not in dropped]
    return from_bases(n, bases, name="sparse_paving_%d_%d_%d" % (n, r, seed))
