"""The locked-system axioms and the structured rank recursion.

A locked system over a ground set E is a candidate LockedStructure (P, S,
L, rho), with rho written r below, whose validity is judged against the
rule list L1..L19 (labels are part of the reporting contract):

  L1   E is nonempty
  L2   P and S are partitions of E
  L3   intersecting classes P, S have |P| = 1 or |S| = 1
  L4   locked sets are proper, nonempty and distinct from every closure
  L5   a closure meeting a locked set lies inside it
  L6   r is a nonnegative function (stored values tally with the rank table)
  L7   r(empty) = 0 and r(E) is a maximum of r
  L8   r(P) = min(1, r(E))
  L9   r(E\\P) = min(|E\\P|, r(E))
  L10  r(S) = min(|S|, r(E))
  L11  r(E\\S) = min(|E\\S|, r(E) + 1 - |S|)
  L12  r(L) >= max(2, r(E) + 2 - |E\\L|)
  L13  r is strictly increasing on nested members of P, L, {empty, E}
  L14  r is submodular on pairs from P, S, L, {empty, E}
  L15  r(L) < r(X) + r(Y) for every split L = X + Y into nonempty parts
  L16  r(L) < r(X) + r(Y) - r(E) whenever X and Y cover E and meet in L,
       with both X and Y proper supersets of L
  L17  (not checked directly) every other subset decomposes by P1..P4 below
  L18  a nonempty intersection of two locked sets that is not itself locked
       decomposes downward (P1/P2) to its true rank
  L19  a proper union of two locked sets that is not itself locked
       decomposes upward (P3/P4) to its true rank

The decomposition rules for a set X outside the structured family:

  P1  r(X) = r(L) + r(X\\L)                for a locked L inside X
  P2  r(X) = r(P) + r(X\\P)                for a parallel class P meeting X
  P3  r(X) = r(L) + r(X + (E\\L)) - r(E)   for a locked L containing X
  P4  r(X) = r(E\\S) + r(X + S) + |S & X| - r(E)
                                           for a coparallel S not inside X

Every rule value is an upper bound on the true rank of a genuine matroid
(each follows from submodularity), so ranks are computed as the minimum
over rule chains, taken to a fixpoint.  Chains may mix downward and
upward steps: on 2-sums there are subsets whose rank is only reached by
peeling a parallel class and then growing the remainder onto a locked
set, so the pure-chain reading is too weak.  The L18/L19 checks, whose
statements are explicitly about one-directional decompositions, use the
pure downward/upward chain values.  The reported trace follows the first
rule (P1 before P2 before P3 before P4, witnesses in canonical order)
that attains the computed value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import errors
from ._bits import bits_of, complement, mask_of, splits, subset_key, subset_text
from .locked import LockedStructure, _stored_domain, locked_structure
from .matroid import Matroid, _check_elements, _refuse_large


@dataclass(frozen=True)
class Violation:
    axiom: str
    witnesses: tuple[tuple[int, ...], ...]
    message: str


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def text(self) -> str:
        if self.ok:
            return "ok: 0 violations\n"
        return "".join("%s %s\n" % (v.axiom, v.message) for v in self.violations)


def extract_system(m: Matroid) -> LockedStructure:
    """Locked system of a matroid: its locked structure.  The axioms are
    stated for connected matroids; on a disconnected one validate reports
    violations (two L3, two L9 and two L10 lines on U(1,2)+U(1,2)), and
    `axioms check` refuses it with Disconnected."""
    return locked_structure(m)


def _checked_mask(n: int, t) -> int:
    if not isinstance(t, tuple):
        raise errors.InvalidParams("subset %r is not a tuple of element indices" % (t,))
    return _check_elements(n, t)


class RankExtender:
    """The one owner of a system's ranks, and the one way to extend them to
    subsets outside the structured family by the P1..P4 chains.

    Construction checks the system once, where it enters: ground_size
    (InvalidParams unless an int, TooLarge over MAX_N), each family member,
    rank key and rank (InvalidParams unless a tuple, a tuple and an int;
    OutOfRange for a member or key off the ground set), and then the
    stored domain (DomainMismatch when a rank is missing), so no rule meets
    a missing value.  The rules live in one place: _down_steps yields the
    P1/P2 steps out of a set and _up_steps the P3/P4 steps, each as (rule,
    witness, next set, offset), where the step's value is offset +
    value(next set).  down() and up() are the pure one-directional chain
    values (memoized recursions over one kind of step, used by the L18/L19
    checks); value() is the mixed-chain fixpoint over the whole subset
    lattice, computed once on demand, and trace() follows the first step,
    in rule order, that attains it.  A chain value below zero, which no
    genuine system has, raises NoDecomposition; it also bounds the
    fixpoint, whose values only fall.
    """

    def __init__(self, s: LockedStructure):
        n = self.n = s.ground_size
        _refuse_large(n)
        self.locked_masks = [_checked_mask(n, t) for t in s.locked]
        self.parallel_masks = [_checked_mask(n, t) for t in s.parallel]
        self.coparallel_masks = [_checked_mask(n, t) for t in s.coparallel]
        self.base = {}
        for t, val in s.rho.items():
            if not isinstance(val, int):
                raise errors.InvalidParams("rank %r of %r is not an int" % (val, t))
            self.base[_checked_mask(n, t)] = val
        # after the index checks: the domain complements classes by mask_of
        domain = _stored_domain(tuple(range(n)), lambda x: complement(n, x),
                                s.parallel, s.coparallel, s.locked)
        missing = [x for x in domain if x not in s.rho]
        if missing:
            raise errors.DomainMismatch("missing stored ranks for %r" % (missing[:3],))
        self.full = (1 << n) - 1
        self.r_e = self.base[self.full]
        self._down: dict[int, Optional[int]] = {}
        self._up: dict[int, Optional[int]] = {}
        self._mixed: Optional[list[int]] = None

    # -- the rules ----------------------------------------------------------

    def _down_steps(self, m: int) -> Iterator[tuple[str, int, int, int]]:
        for lm in self.locked_masks:
            if lm and lm & ~m == 0 and lm != m:
                yield "P1", lm, m & ~lm, self.base[lm]
        for pm in self.parallel_masks:
            if pm & m:
                yield "P2", pm, m & ~pm, self.base[pm]

    def _up_steps(self, m: int) -> Iterator[tuple[str, int, int, int]]:
        for lm in self.locked_masks:
            if lm != self.full and m & ~lm == 0 and m != lm:
                yield "P3", lm, m | (self.full ^ lm), self.base[lm] - self.r_e
        for sm in self.coparallel_masks:
            if sm & ~m:
                yield "P4", sm, m | sm, self.base[self.full ^ sm] + (sm & m).bit_count() - self.r_e

    def _steps(self, m: int) -> Iterator[tuple[str, int, int, int]]:
        return itertools.chain(self._down_steps(m), self._up_steps(m))

    # -- chain values -----------------------------------------------------

    def down(self, m: int) -> Optional[int]:
        return self._chain(m, self._down_steps, self._down)

    def up(self, m: int) -> Optional[int]:
        return self._chain(m, self._up_steps, self._up)

    def _chain(self, m: int, steps, memo: dict) -> Optional[int]:
        # every step strictly shrinks (down) or grows (up) the set, so the
        # recursion ends
        if m in self.base:
            return self.base[m]
        if m not in memo:
            best = None
            for _, _, nxt, off in steps(m):
                v = self._chain(nxt, steps, memo)
                if v is not None and (best is None or off + v < best):
                    best = off + v
            memo[m] = best
        return memo[m]

    # -- mixed-chain fixpoint ------------------------------------------------

    _INF = 1 << 30

    def _mixed_table(self) -> list[int]:
        if self._mixed is not None:
            return self._mixed
        size = 1 << self.n
        v = [self._INF] * size
        for m, val in self.base.items():
            v[m] = val
        changed = True
        while changed:
            changed = False
            for m in range(size):
                if m in self.base:
                    continue
                best = v[m]
                for _, _, nxt, off in self._steps(m):
                    if v[nxt] < self._INF and off + v[nxt] < best:
                        best = off + v[nxt]
                if best < v[m]:
                    if best < 0:
                        raise errors.NoDecomposition(
                            "P1..P4 chain for %r falls below zero" % (bits_of(m),))
                    v[m] = best
                    changed = True
        self._mixed = v
        return v

    def _lookup(self, subset: Iterable[int]) -> tuple[int, list[int]]:
        """The checked mask of subset and the mixed table; raises for both."""
        m = _check_elements(self.n, subset)
        v = self._mixed_table()
        if v[m] >= self._INF:
            raise errors.NoDecomposition("no P1..P4 chain for %r" % (bits_of(m),))
        return m, v

    def value(self, subset: Iterable[int]) -> int:
        """Rank of subset by the mixed P1..P4 chains.  Raises OutOfRange off
        the ground set and NoDecomposition when no chain ends in stored ranks."""
        m, v = self._lookup(subset)
        return v[m]

    # -- trace --------------------------------------------------------------

    def trace(self, subset: Iterable[int]) -> list[tuple]:
        """Steps (rule, set, witness, value) of a chain attaining value(subset),
        preferring P1, P2, P3, P4 and canonical witness order; raises as value."""
        m, v = self._lookup(subset)
        steps: list[tuple] = []
        seen = set()
        while True:
            if m in self.base:
                steps.append(("base", bits_of(m), None, self.base[m]))
                return steps
            if m in seen:  # pragma: no cover - guards degenerate synthetic systems
                raise errors.NoDecomposition("trace cycles at %r" % (bits_of(m),))
            seen.add(m)
            want = v[m]
            for rule, witness, nxt, off in self._steps(m):
                if v[nxt] < self._INF and off + v[nxt] == want:
                    steps.append((rule, bits_of(m), bits_of(witness), want))
                    m = nxt
                    break
            else:  # pragma: no cover - fixpoint value implies a step
                raise errors.NoDecomposition("trace failed at %r" % (bits_of(m),))


def validate(s: LockedStructure, m: Matroid) -> AxiomReport:
    """Check the axioms L1..L16, L18, L19 of a system against the matroid m,
    exhaustively over their quantifier domains.  Ranks of sets outside the
    stored domain are read from m's rank table; stored values disagreeing
    with it are reported under L6.

    The rules describe the systems of connected matroids; the system of a
    disconnected matroid can violate them (see extract_system).

    Raises what RankExtender raises on a malformed system (InvalidParams,
    TooLarge, OutOfRange, or DomainMismatch when a stored rank is missing),
    then DomainMismatch when the system's ground set is not the size of
    m's.  The size check also decides L1, because a matroid has at least
    one element.
    """
    ext = RankExtender(s)
    n = s.ground_size
    if n != m.n:
        raise errors.DomainMismatch("system has %d elements, the matroid %d" % (n, m.n))
    ranks = m._rank_table()
    base, r_e, fullmask = ext.base, ext.r_e, ext.full

    def r_of(xm: int) -> int:
        return base[xm] if xm in base else ranks[xm]

    out: list[Violation] = []

    def bad(axiom: str, witnesses, message: str) -> None:
        out.append(Violation(axiom, tuple(witnesses), message))

    def fmt(t: tuple[int, ...]) -> str:
        return subset_text(s.names, t)

    parallel = list(zip(s.parallel, ext.parallel_masks))
    coparallel = list(zip(s.coparallel, ext.coparallel_masks))
    locked = list(zip(s.locked, ext.locked_masks))

    # L2: both closure families partition E
    for tag, fam, masks in (("parallel", s.parallel, ext.parallel_masks),
                            ("coparallel", s.coparallel, ext.coparallel_masks)):
        seen = 0
        ok = True
        for xm in masks:
            if xm == 0 or xm & seen:
                ok = False
            seen |= xm
        if not ok or seen != fullmask:
            bad("L2", tuple(fam), "%s classes do not partition the ground set" % tag)

    # L3
    for p, pm in parallel:
        for c, cm in coparallel:
            if pm & cm and len(p) > 1 and len(c) > 1:
                bad("L3", (p, c),
                    "intersecting classes %s and %s are both non-singletons"
                    % (fmt(p), fmt(c)))

    # L4
    closure_set = set(s.parallel) | set(s.coparallel)
    seen_locked = set()
    for x, xm in locked:
        if xm == 0 or xm == fullmask:
            bad("L4", (x,), "locked set %s is not proper and nonempty" % fmt(x))
        if x in closure_set:
            bad("L4", (x,), "locked set %s equals a closure class" % fmt(x))
        if x in seen_locked:
            bad("L4", (x,), "locked set %s repeated" % fmt(x))
        seen_locked.add(x)

    # L5
    for x, xm in parallel + coparallel:
        for l, lm in locked:
            if xm & lm and xm & ~lm:
                bad("L5", (x, l),
                    "closure %s meets locked %s without being inside it"
                    % (fmt(x), fmt(l)))

    # L6: nonnegative and consistent with the rank table
    for t in sorted(s.rho, key=subset_key):
        val = s.rho[t]
        if val < 0:
            bad("L6", (t,), "negative rank r(%s)=%d" % (fmt(t), val))
        ov = ranks[mask_of(t)]
        if ov != val:
            bad("L6", (t,),
                "stored rank r(%s)=%d disagrees with the oracle value %d"
                % (fmt(t), val, ov))

    # L7
    if base[0] != 0:
        bad("L7", ((),), "r(empty) = %d, expected 0" % base[0])
    for t in sorted(s.rho, key=subset_key):
        if s.rho[t] > r_e:
            bad("L7", (t,), "r(%s)=%d exceeds r(E)=%d" % (fmt(t), s.rho[t], r_e))

    # L8..L11
    for p, pm in parallel:
        if base[pm] != min(1, r_e):
            bad("L8", (p,), "r(%s)=%d, expected %d" % (fmt(p), base[pm], min(1, r_e)))
        want, got = min(n - pm.bit_count(), r_e), base[fullmask ^ pm]
        if got != want:
            bad("L9", (p,), "r(E\\%s)=%d, expected %d" % (fmt(p), got, want))
    for c, cm in coparallel:
        want = min(len(c), r_e)
        if base[cm] != want:
            bad("L10", (c,), "r(%s)=%d, expected %d" % (fmt(c), base[cm], want))
        want, got = min(n - cm.bit_count(), r_e + 1 - len(c)), base[fullmask ^ cm]
        if got != want:
            bad("L11", (c,), "r(E\\%s)=%d, expected %d" % (fmt(c), got, want))

    # L12
    for l, lm in locked:
        want = max(2, r_e + 2 - (n - len(l)))
        if base[lm] < want:
            bad("L12", (l,), "r(%s)=%d below the bound %d" % (fmt(l), base[lm], want))

    # L13: strictly increasing on nested members of P, L, {empty, E}
    chain_fam = [(x, mask_of(x)) for x in sorted(
        set(s.parallel) | set(s.locked) | {(), tuple(range(n))}, key=subset_key)]
    for x, xm in chain_fam:
        for y, ym in chain_fam:
            if xm != ym and xm & ~ym == 0 and r_of(xm) >= r_of(ym):
                bad("L13", (x, y),
                    "r not strictly increasing: r(%s)=%d, r(%s)=%d"
                    % (fmt(x), r_of(xm), fmt(y), r_of(ym)))

    # L14: submodular on the structured family
    fam14 = [(x, mask_of(x)) for x in sorted(
        set(s.parallel) | set(s.coparallel) | set(s.locked) | {(), tuple(range(n))},
        key=subset_key)]
    for i, (x, xm) in enumerate(fam14):
        for y, ym in fam14[i + 1:]:
            if r_of(xm | ym) + r_of(xm & ym) > r_of(xm) + r_of(ym):
                bad("L14", (x, y),
                    "submodularity fails on %s, %s" % (fmt(x), fmt(y)))

    # L15: every 2-split of a locked set is rank-deficient
    for l, lm in locked:
        for xm in splits(lm):
            if r_of(lm) >= r_of(xm) + r_of(lm ^ xm):
                x, y = bits_of(xm), bits_of(lm ^ xm)
                bad("L15", (l, x, y),
                    "r(%s)=%d not below r(%s)+r(%s)"
                    % (fmt(l), r_of(lm), fmt(x), fmt(y)))

    # L16: dual splits through every covering pair meeting in the locked set
    for l, lm in locked:
        comp = fullmask ^ lm
        for am in splits(comp):
            xm, ym = lm | am, lm | (comp ^ am)
            if r_of(lm) >= r_of(xm) + r_of(ym) - r_e:
                x, y = bits_of(xm), bits_of(ym)
                bad("L16", (l, x, y),
                    "r(%s)=%d not below r(%s)+r(%s)-r(E)"
                    % (fmt(l), r_of(lm), fmt(x), fmt(y)))

    # L18/L19: decompositions of intersections and unions of locked pairs
    locked_set = set(ext.locked_masks)
    for i, (l1, m1) in enumerate(locked):
        for l2, m2 in locked[i + 1:]:
            inter = m1 & m2
            if inter and inter not in locked_set:
                got = ext.down(inter)
                want = r_of(inter)
                if got != want:
                    it = bits_of(inter)
                    bad("L18", (l1, l2, it),
                        "intersection %s has no downward chain to its rank %d (got %s)"
                        % (fmt(it), want, got))
            union = m1 | m2
            if union != fullmask and union not in locked_set:
                got = ext.up(union)
                want = r_of(union)
                if got != want:
                    ut = bits_of(union)
                    bad("L19", (l1, l2, ut),
                        "union %s has no upward chain to its rank %d (got %s)"
                        % (fmt(ut), want, got))

    return AxiomReport(tuple(out))
