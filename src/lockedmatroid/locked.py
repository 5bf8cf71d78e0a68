"""Locked subsets and the locked structure of a matroid.

A proper nonempty subset L of a connected matroid M is locked when the
restriction M|L and the dual restriction M*|(E\\L) are both connected and
both have rank at least 2.  For a disconnected matroid the locked subsets
are those of its connected components.  The locked structure bundles the
parallel closures P, the coparallel closures S, the locked family L and
the rank values of all of them (plus the empty set and E).

Enumeration is exhaustive over the proper nonempty subsets of each
component C, walked as submasks of C.  Each subset meets three cheap
tests before the connectivity scans: rank >= 2, corank >= 2, and
matroid.is_cyclic_flat.  The last one is exact: a locked L is a cyclic
flat of C, because M|L, connected of rank >= 2, has no coloops, and
(M/L)|(C\\L), connected on >= 2 elements, has no loops (Bonin and de Mier,
"The lattice of cyclic flats of a matroid", 2008).  That O(|C|) rank-table
test rejects nearly every subset.  Both scans are matroid.separator on the
same rank table: one on L, and one on C\\L with L contracted, because
M*|(C\\L) is connected exactly when (M/L)|(C\\L) is.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from . import errors
from ._bits import bits_of, complement, mask_of, subset_key, subset_text
from .matroid import (Matroid, _check_elements, _reject_loops_coloops, closures, components,
                      is_cyclic_flat, separator)


@dataclass(frozen=True)
class LockedStructure:
    """The quadruple (parallel, coparallel, locked, rho) plus ground data."""

    ground_size: int
    rank: int
    names: tuple[str, ...]
    parallel: tuple[tuple[int, ...], ...]
    coparallel: tuple[tuple[int, ...], ...]
    locked: tuple[tuple[int, ...], ...]
    rho: dict


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
    ranks = m._rank_table()
    comp = next(c for c in components(ranks, m.full_mask) if c & lm)
    return lm & ~comp == 0 and _is_locked_in_component(ranks, comp, lm)


def _is_locked_in_component(ranks, comp: int, lm: int) -> bool:
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


def _locked_iter(m: Matroid) -> Iterator[int]:
    """Masks of the locked subsets, per connected component, each component's
    proper nonempty submasks walked in decreasing integer order; callers
    that need an order sort.  Every subset goes through the rank, corank and
    cyclic-flat tests, in that order, and only the survivors through the two
    separator scans."""
    ranks = m._rank_table()
    for comp in sorted(components(ranks, m.full_mask)):
        x = (comp - 1) & comp
        while x:
            if _is_locked_in_component(ranks, comp, x):
                yield x
            x = (x - 1) & comp


def locked_structure(m: Matroid) -> LockedStructure:
    """Enumerate the locked subsets and assemble the full quadruple."""
    return _assemble(m, _locked_iter(m))


def _assemble(m: Matroid, locked_masks) -> LockedStructure:
    parallel, coparallel = closures(m)
    locked = tuple(sorted((bits_of(x) for x in locked_masks), key=subset_key))
    ranks = m._rank_table()
    r_e = ranks[m.full_mask]
    rho: dict = {(): 0, tuple(range(m.n)): r_e}
    for fam in (parallel, coparallel, locked):
        for x in fam:
            rho[x] = ranks[mask_of(x)]
    return LockedStructure(m.n, r_e, m.names, parallel, coparallel, locked, rho)


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
    """Locked structure of the dual matroid, computed without re-enumeration:
    swap the two closure families, complement every locked set, and map every
    rank through rho*(X) = rho(E\\X) + |X| - rank."""
    n, r = s.ground_size, s.rank
    full = tuple(range(n))
    locked = tuple(sorted((complement(n, x) for x in s.locked), key=subset_key))
    rho: dict = {(): 0, full: n - r}
    for p in s.coparallel:  # parallel classes of the dual
        rho[p] = min(1, n - r)
    for c in s.parallel:  # coparallel classes of the dual; a class equal to E
        # has rank r*(E), not its cardinality
        rho[c] = min(len(c), n - r)
    for x in s.locked:
        comp = complement(n, x)
        rho[comp] = s.rho[x] + len(comp) - r
    return LockedStructure(n, n - r, s.names, s.coparallel, s.parallel, locked, rho)


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
