"""Matroid isomorphism and self-duality testing.

Three routes:

* mip_bruteforce: backtracking over element bijections, pruned by rank
  signatures of every subset of the mapped prefix; produces a witness
  bijection verified against the full basis lists.
* mip_locked: builds the reduced locked lattices and compares them on one
  encoding: as colored DAGs (the labels route, the default) or as their
  unlabeled series-arc encodings (the series route); answer-only, no
  element witness.
* mip_zero_locked: for matroids without locked subsets, compares the
  sorted coparallel and parallel closure cardinality sequences; the
  comparison is instrumented with an operation count.

tsd tests self-duality, building the dual's lattice from the dual locked
structure rather than re-enumerating locked subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import errors
from ._bits import bits_of, mask_of
from .dagiso import are_isomorphic
from .lattice import reduced_lattice, series_encode, to_colored
from .locked import LockedStructure, _locked_iter, dual_structure, locked_structure
from .matroid import Matroid, closures, is_connected

# brute force is exponential in n; larger inputs raise TooLarge
BRUTEFORCE_MAX_N = 10


@dataclass
class IsoReport:
    answer: bool
    method: str  # bruteforce | lattice | zero-locked
    witness: Optional[tuple[int, ...]] = None  # witness[e] = image of element e
    locked_counts: Optional[tuple[int, int]] = None
    opcount: Optional[int] = None


def mip_bruteforce(m1: Matroid, m2: Matroid) -> IsoReport:
    """Exhaustive isomorphism search; the returned witness maps the basis
    family of m1 exactly onto that of m2."""
    if m1.n == m2.n > BRUTEFORCE_MAX_N:
        raise errors.TooLarge("brute force capped at %d elements" % BRUTEFORCE_MAX_N)
    n = m1.n

    def signature(m: Matroid) -> list[int]:
        counts = [0] * n
        for b in m._basis_masks:
            for e in bits_of(b):
                counts[e] += 1
        return counts

    sig1 = sig2 = None
    if (m1.n, m1.rank, len(m1.bases)) == (m2.n, m2.rank, len(m2.bases)):
        sig1, sig2 = signature(m1), signature(m2)
    if sig1 is None or sorted(sig1) != sorted(sig2):
        return IsoReport(False, "bruteforce")

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

    if not extend(0):
        return IsoReport(False, "bruteforce")
    mapped = {mask_of(witness[e] for e in b) for b in m1.bases}
    if mapped != set(m2._basis_masks):
        raise errors.LockedMatroidError("witness does not carry bases onto bases")
    return IsoReport(True, "bruteforce", witness=witness)


def mip_locked(m1: Matroid, m2: Matroid, route: str = "labels") -> IsoReport:
    """Locked-lattice isomorphism test.

    route: "labels" compares the reduced lattices as colored DAGs; "series"
    compares their unlabeled series-arc encodings.
    """
    if route not in ("labels", "series"):
        raise errors.InvalidParams("unknown mip_locked route %r" % route)
    return _compare_lattices(locked_structure(m1), locked_structure(m2), route)


def _compare_lattices(s1: LockedStructure, s2: LockedStructure, route: str) -> IsoReport:
    """Build the reduced lattices of s1 and s2 and compare them on the
    route's encoding."""
    d1 = reduced_lattice(s1)
    d2 = reduced_lattice(s2)
    encode = to_colored if route == "labels" else series_encode
    return IsoReport(are_isomorphic(encode(d1), encode(d2))[0], "lattice",
                     locked_counts=(len(s1.locked), len(s2.locked)))


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
    for m in (m1, m2):
        if not is_connected(m):
            raise errors.Disconnected("%s is not connected" % m.name)
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


def tsd(m: Matroid, method: str = "lattice") -> IsoReport:
    """Self-duality test.  The lattice method derives the dual's locked
    structure by complementation (no second enumeration) and compares the
    two reduced lattices; the bruteforce method searches for an explicit
    bijection between M and its dual."""
    if method == "bruteforce":
        return mip_bruteforce(m, m.dual())
    if method != "lattice":
        raise errors.InvalidParams("unknown tsd method %r" % method)
    s = locked_structure(m)
    return _compare_lattices(s, dual_structure(s), "labels")
