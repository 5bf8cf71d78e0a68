"""Locked subsets and the locked structure of a matroid.

A proper nonempty subset L of a connected matroid M is locked when the
restriction M|L and the dual restriction M*|(E\\L) are both connected and
both have rank at least 2.  For a disconnected matroid the locked subsets
are those of its connected components.  The locked structure bundles the
parallel closures P, the coparallel closures S, the locked family L and
the ranks rho of these sets, of the closures' complements, of {} and E.

Lockedness is read from cyclic flats (Bonin and de Mier, "The lattice of
cyclic flats of a matroid", 2008), which matroid.cyclic_flats lists once.
As M has no loops, those inside a component C are the list Z of cyclic
flats of M|C: closure in M|C is closure in M met with C, and an element
outside C raises the rank of every subset of C.  A locked L is in Z, as
M|L, connected of rank >= 2, has no coloops, and (M/L)|(C\\L), connected
on >= 2 elements, has no loops.  For L in Z:

- M|L is connected exactly when no nonempty proper subset A of L in Z has
  r(A) + r(L\\A) = r(L).  Such an A separates M|L.  Conversely, let K be a
  component of a disconnected M|L.  K is cyclic, as M|L has no coloops.
  K is closed in C: no element of C\\L is in cl(L) = L, which holds
  cl(K), and an element of L\\K in cl(K) would lie on a circuit that
  meets two components of M|L.  So K is such an A.
- M*|(C\\L) is connected exactly when N = (M/L)|(C\\L) is, because
  (M|C)*|(C\\L) is the dual of N.  A nonempty proper subset Y of C\\L
  separates N exactly when X = L + Y has
  r(X) + r(L + (C\\X)) = r(C) + r(L).  N has no loops, as L is closed,
  and no coloops, as C is connected on >= 2 elements.  So a component K of
  a disconnected N is cyclic and closed in N, and X = L + K is cyclic and
  closed in C: X is in Z, strictly between L and C, and satisfies that
  equation.

Each candidate L in Z then needs rank and corank |C\\L| + r(L) - r(C)
at least 2 (which rejects {} and C), and one rank lookup for each flat of
Z inside or around it: O(|Z|) lookups per candidate, where the walks over
the splits of L and of C\\L read up to 2^|C| ranks.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import errors
from ._bits import bits_of, complement, mask_key, subset_key, subset_text
from .matroid import Matroid, _check_elements, _closure_masks, _reject_loops_coloops, cyclic_flats


@dataclass(frozen=True)
class LockedStructure:
    """The quadruple (parallel, coparallel, locked, rho) over named elements."""

    ground_size: int
    names: tuple[str, ...]
    parallel: tuple[tuple[int, ...], ...]
    coparallel: tuple[tuple[int, ...], ...]
    locked: tuple[tuple[int, ...], ...]
    rho: dict

    @property
    def rank(self) -> int:
        return self.rho[tuple(range(self.ground_size))]


def _stored_domain(full, complement_of, parallel, coparallel, locked) -> list:
    """The subsets whose ranks a structure stores, as tuples or as masks,
    whichever full (E) and complement_of take: {}, E, each parallel and then
    each coparallel class followed by its complement, then the locked sets."""
    out = [complement_of(full), full]
    for x in itertools.chain(parallel, coparallel):
        out += (x, complement_of(x))
    return out + list(locked)


@dataclass(frozen=True)
class KLockedVerdict:
    """Outcome of the k-locked decision: count if within threshold, else a No."""

    k: int
    threshold: int
    locked_count: Optional[int]  # None when enumeration aborted past threshold
    structure: Optional[LockedStructure]

    @property
    def yes(self) -> bool:
        return self.locked_count is not None


def is_locked(m: Matroid, subset) -> bool:
    """Lockedness of one subset L, per component as in locked_structure: L
    lies inside one component C of M, and M|L and M*|(C\\L) are connected
    with both ranks >= 2."""
    _reject_loops_coloops(m)
    lm = _check_elements(m.n, subset)
    if lm == 0 or lm == m.full_mask:
        raise errors.NotProperSubset("locked subsets are proper and nonempty")
    comp = next(c for c in m._components() if c & lm)
    ranks = m._rank_table()
    flats = [x for x in cyclic_flats(ranks, m.n) if x | comp == comp]
    return lm in flats and _is_locked_in_component(ranks, comp, flats, lm)


def _is_locked_in_component(ranks, comp: int, flats: list[int], lm: int) -> bool:
    """The lockedness rule for a cyclic flat L of the component C, given the
    list Z of C's cyclic flats: rank and corank >= 2, no flat of Z strictly
    inside L splits it, and no flat of Z strictly between L and C splits
    C\\L with L contracted (see the module docstring)."""
    r_l = ranks[lm]
    r_c = ranks[comp]
    if r_l < 2 or (comp ^ lm).bit_count() + r_l - r_c < 2:
        return False
    for x in flats:
        if x | lm == lm:
            if x and x != lm and ranks[x] + ranks[lm ^ x] == r_l:
                return False
        elif x & lm == lm and x != comp:
            if ranks[x] + ranks[lm | (comp ^ x)] == r_c + r_l:
                return False
    return True


def _locked_iter(m: Matroid) -> Iterator[int]:
    """Masks of the locked subsets, component by component, in increasing
    integer order within each; callers that need an order sort.  M has no
    loops; its cyclic flats inside each component are the only candidates."""
    ranks = m._rank_table()
    every = list(cyclic_flats(ranks, m.n))
    for comp in m._components():
        flats = [x for x in every if x | comp == comp]
        for x in flats:
            if _is_locked_in_component(ranks, comp, flats, x):
                yield x


def locked_structure(m: Matroid) -> LockedStructure:
    """Enumerate the locked subsets and assemble the full quadruple.  The rank
    table and the cyclic flats read one memo of lane constants,
    lane_constants(n)."""
    return _assemble(m, _locked_iter(m))


def _assemble(m: Matroid, locked_masks) -> LockedStructure:
    """The structure from the locked masks: every stored subset stays a mask
    until its one conversion to a tuple, which is both its rho key and its
    entry in P, S or L."""
    parallel, coparallel = _closure_masks(m)
    full = m.full_mask
    masks = _stored_domain(full, full.__xor__, parallel, coparallel,
                           sorted(locked_masks, key=mask_key))
    keys = list(map(bits_of, masks))
    rho = dict(zip(keys, map(m._rank_table().__getitem__, masks)))
    co = 2 + 2 * len(parallel)  # keys[co:lo] alternate coparallel classes and complements
    lo = co + 2 * len(coparallel)
    return LockedStructure(m.n, m.names, tuple(keys[2:co:2]), tuple(keys[co:lo:2]),
                           tuple(keys[lo:]), rho)


def k_locked_decision(m: Matroid, k: int, c=1) -> KLockedVerdict:
    """Count locked subsets against the threshold ceil(c * n**k); abort the
    enumeration as soon as the threshold is exceeded.  InvalidParams unless k
    is an integer >= 0 and c a positive rational."""
    refused = errors.InvalidParams("k must be a natural number and c positive")
    try:
        k, c = operator.index(k), Fraction(c)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise refused from None
    if k < 0 or c <= 0:
        raise refused
    _reject_loops_coloops(m)
    threshold = math.ceil(c * Fraction(m.n) ** k)
    found = []
    for x in _locked_iter(m):
        found.append(x)
        if len(found) > threshold:
            return KLockedVerdict(k, threshold, None, None)
    return KLockedVerdict(k, threshold, len(found), _assemble(m, found))


def dual_structure(s: LockedStructure) -> LockedStructure:
    """Locked structure of the dual of a connected matroid, without a second
    enumeration: swap the closure families, complement each locked set in
    E, and store r*(E\\X) = r(X) + |E\\X| - r(E) for each stored X.

    For connected input only.  On a disconnected matroid the dual's locked
    sets are complements within each component, not within E, so the
    result differs from locked_structure(m.dual()); every caller in the
    package (tsd, and the CLI through it) refuses disconnected input with
    Disconnected before calling this."""
    n, r = s.ground_size, s.rank
    locked = tuple(sorted((complement(n, x) for x in s.locked), key=subset_key))
    rho = {complement(n, x): v + n - len(x) - r for x, v in s.rho.items()}
    return LockedStructure(n, s.names, s.coparallel, s.parallel, locked, rho)


def structure_text(s: LockedStructure) -> str:
    """Deterministic text dump: P/S/L sections with rank annotations."""
    lines = [
        "# format: 1",
        "ground %d" % s.ground_size,
        "elements %s" % ",".join(s.names),
        "rank %d" % s.rank,
    ]
    for tag, fam in (("P", s.parallel), ("S", s.coparallel), ("L", s.locked)):
        for x in fam:
            lines.append("%s: %s rank=%d" % (tag, subset_text(s.names, x), s.rho[x]))
    return "\n".join(lines) + "\n"
