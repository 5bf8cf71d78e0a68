"""Matroid isomorphism and self-duality testing.

Three routes:

* mip_bruteforce: backtracking over element bijections, pruned by rank
  signatures of every subset of the mapped prefix; produces a witness
  bijection verified against the full basis lists.
* mip_locked: builds the reduced locked lattices and compares them as
  colored DAGs (optionally through the unlabeled series-arc encoding);
  answer-only, no element witness.
* mip_zero_locked: for matroids without locked subsets, compares the
  sorted coparallel and parallel closure cardinality sequences; the
  comparison is instrumented with an operation count.

tsd tests self-duality, building the dual's lattice from the dual locked
structure rather than re-enumerating locked subsets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from . import errors
from ._bits import bits_of, mask_of
from .dagiso import are_isomorphic
from .lattice import reduced_lattice, series_encode, to_colored
from .locked import LockedStructure, _locked_iter, dual_structure, locked_structure
from .matroid import Matroid, closures, is_connected


@dataclass
class IsoReport:
    answer: bool
    method: str  # bruteforce | lattice | zero-locked
    witness: Optional[tuple[int, ...]] = None  # witness[e] = image of element e
    locked_counts: Optional[tuple[int, int]] = None
    timings: dict = field(default_factory=dict, compare=False)  # wall clock, not identity
    opcount: Optional[int] = None


def mip_bruteforce(m1: Matroid, m2: Matroid, max_n: int = 10) -> IsoReport:
    """Exhaustive isomorphism search; the returned witness maps the basis
    family of m1 exactly onto that of m2."""
    t0 = time.perf_counter()
    if m1.n != m2.n:
        return IsoReport(False, "bruteforce", timings={"search": time.perf_counter() - t0})
    if m1.n > max_n:
        raise errors.TooLarge("brute force capped at %d elements" % max_n)
    n = m1.n
    if m1.rank != m2.rank or len(m1.bases) != len(m2.bases):
        return IsoReport(False, "bruteforce", timings={"search": time.perf_counter() - t0})

    def signature(m: Matroid) -> list[int]:
        counts = [0] * n
        for b in m._basis_masks:
            for e in bits_of(b):
                counts[e] += 1
        return counts

    sig1, sig2 = signature(m1), signature(m2)
    if sorted(sig1) != sorted(sig2):
        return IsoReport(False, "bruteforce", timings={"search": time.perf_counter() - t0})

    r1 = m1._rank_table()
    r2 = m2._rank_table()
    used = [False] * n
    image = [-1] * n
    # all (subset of prefix, image) mask pairs, grown as the map extends
    pairs: list[tuple[int, int]] = [(0, 0)]
    witness: Optional[tuple[int, ...]] = None

    def extend(v: int) -> bool:
        nonlocal witness
        if v == n:
            witness = tuple(image)
            return True
        vbit = 1 << v
        for w in range(n):
            if used[w] or sig1[v] != sig2[w]:
                continue
            wbit = 1 << w
            old_len = len(pairs)
            ok = True
            for (a, b) in pairs[:old_len]:
                na, nb = a | vbit, b | wbit
                if r1[na] != r2[nb]:
                    ok = False
                    break
                pairs.append((na, nb))
            if ok:
                used[w] = True
                image[v] = w
                if extend(v + 1):
                    return True
                used[w] = False
                image[v] = -1
            del pairs[old_len:]
        return False

    found = extend(0)
    elapsed = time.perf_counter() - t0
    if not found:
        return IsoReport(False, "bruteforce", timings={"search": elapsed})
    mapped = {mask_of(witness[e] for e in b) for b in m1.bases}
    if mapped != m2._basis_mask_set:
        raise errors.LockedMatroidError("witness does not carry bases onto bases")
    return IsoReport(True, "bruteforce", witness=witness,
                     timings={"search": elapsed})


_ROUTES = {"labels": ("labels",), "series": ("series",), "both": ("labels", "series")}


def mip_locked(m1: Matroid, m2: Matroid, route: str = "labels") -> IsoReport:
    """Locked-lattice isomorphism test.

    route: "labels" compares the reduced lattices as colored DAGs;
    "series" compares their unlabeled series-arc encodings; "both" runs the
    two and insists they agree.
    """
    if route not in _ROUTES:
        raise errors.InvalidParams("unknown mip_locked route %r" % route)
    t0 = time.perf_counter()
    return _compare_lattices(locked_structure(m1), locked_structure(m2), _ROUTES[route],
                             (m1.name, m2.name), t0)


def _compare_lattices(s1: LockedStructure, s2: LockedStructure, routes: tuple[str, ...],
                      names: tuple[str, str], t0: float) -> IsoReport:
    """Build the reduced lattices of s1 and s2 and compare them on each
    route in turn; the routes must agree.  t0 is when building began."""
    d1 = reduced_lattice(s1)
    d2 = reduced_lattice(s2)
    t1 = time.perf_counter()
    answers = {}
    for route in routes:
        if route == "labels":
            g1, g2 = to_colored(d1), to_colored(d2)
        else:
            g1, g2 = series_encode(d1), series_encode(d2)
        answers[route] = are_isomorphic(g1, g2)[0]
    if len(set(answers.values())) > 1:
        raise errors.LockedMatroidError(
            "lattice routes disagree on %s vs %s: %r" % (names + (answers,)))
    t2 = time.perf_counter()
    return IsoReport(answers[routes[0]], "lattice",
                     locked_counts=(len(s1.locked), len(s2.locked)),
                     timings={"build": t1 - t0, "iso": t2 - t1})


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


def mip_zero_locked(m1: Matroid, m2: Matroid) -> IsoReport:
    """Isomorphism for matroids without locked subsets: compare the sorted
    coparallel (and, symmetrically, parallel) closure cardinality sequences."""
    t0 = time.perf_counter()
    for m in (m1, m2):
        if not is_connected(m):
            raise errors.Disconnected("%s is not connected" % m.name)
        if next(iter(_locked_iter(m)), None) is not None:
            raise errors.NotZeroLocked("%s has a locked subset" % m.name)
    p1, s1 = closures(m1)
    p2, s2 = closures(m2)
    t1 = time.perf_counter()
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
    t2 = time.perf_counter()
    return IsoReport(answer, "zero-locked",
                     locked_counts=(0, 0),
                     timings={"closures": t1 - t0, "compare": t2 - t1},
                     opcount=cell[0])


def tsd(m: Matroid, method: str = "lattice") -> IsoReport:
    """Self-duality test.  The lattice method derives the dual's locked
    structure by complementation (no second enumeration) and compares the
    two reduced lattices; the bruteforce method searches for an explicit
    bijection between M and its dual."""
    if method == "bruteforce":
        return mip_bruteforce(m, m.dual())
    if method != "lattice":
        raise errors.InvalidParams("unknown tsd method %r" % method)
    t0 = time.perf_counter()
    s = locked_structure(m)
    return _compare_lattices(s, dual_structure(s), ("labels",), (m.name, "its dual"), t0)
