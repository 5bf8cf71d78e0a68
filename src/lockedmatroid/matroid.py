"""Matroids on small ground sets, represented by an explicit basis list.

Subsets of the ground set travel as sorted tuples of element indices at the
public surface and as bitmasks internally.  Everything is deterministic:
bases are kept in canonical order (all bases share one cardinality, so the
order is lexicographic on the sorted index tuples), and derived matroids
(dual, minor, 2-sum, relabeling) reuse that canonical form.

Ranks of arbitrary subsets come from scanning the basis list; modules that
need many rank queries share a full rank table (2^n entries), built once per
matroid.  That is the intended scale here: validated construction accepts
ground sets of at most MAX_N = 16 elements.

Every connectivity test goes through one primitive, separator(ranks, X, C),
which looks up a 1-separation of the minor (M/C)|X in M's rank table;
components, find_separator, is_connected and the lockedness tests of the
locked module are built on it.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import errors
from ._bits import bits_of, mask_of, subset_key


@dataclass(frozen=True)
class GroundSet:
    """An indexed ground set with distinct printable element names."""

    n: int
    names: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1:
            raise errors.InvalidParams("ground set needs at least one element")
        if len(self.names) != self.n:
            raise errors.InvalidParams(
                "expected %d names, got %d" % (self.n, len(self.names))
            )
        if len(set(self.names)) != self.n:
            raise errors.InvalidParams("element names must be distinct")
        for nm in self.names:
            if not nm or any(c.isspace() for c in nm) or "," in nm:
                raise errors.InvalidParams("bad element name %r" % (nm,))

    @staticmethod
    def default(n: int, prefix: str = "e") -> "GroundSet":
        return GroundSet(n, tuple("%s%d" % (prefix, i) for i in range(n)))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise errors.OutOfRange("unknown element name %r" % (name,)) from None


def _check_elements(n: int, elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        if not isinstance(e, int) or e < 0 or e >= n:
            raise errors.OutOfRange("element index %r not in 0..%d" % (e, n - 1))
        m |= 1 << e
    return m


# Validation builds a rank table with 2^n entries, as does every layer
# downstream of it.
MAX_N = 16


def _refuse_large(n: int) -> None:
    if n > MAX_N:
        raise errors.TooLarge("validation builds a 2^n rank table; |E| capped at %d, got %d"
                              % (MAX_N, n))


def _check_exchange(masks: Sequence[int], mask_set: set[int]) -> None:
    for b1 in masks:
        for b2 in masks:
            if b1 == b2:
                continue
            only1 = b1 & ~b2
            cand = b2 & ~b1
            rest = only1
            while rest:
                elow = rest & -rest
                rest ^= elow
                swapped_base = b1 ^ elow
                c = cand
                while c:
                    flow = c & -c
                    c ^= flow
                    if (swapped_base | flow) in mask_set:
                        break
                else:
                    raise errors.ExchangeViolation(
                        bits_of(b1), bits_of(b2), elow.bit_length() - 1
                    )


def _locally_submodular(ranks: list[int], n: int) -> bool:
    """Local submodularity of a normalised, unit-increasing rank table.

    r(X) + r(X+e+f) <= r(X+e) + r(X+f) holds by unit increase unless
    r(X+e) = r(X+f) = r(X), so only pairs e, f in cl(X) \\ X are scanned.
    For those it asks r(X+e+f) = r(X), that is f in cl(X+e).  Spanning sets
    pass by monotonicity and are skipped.
    """
    size = 1 << n
    full = size - 1
    r_full = ranks[full]
    # spanned[X]: the elements of cl(X) \ X; an array, because 2^n int
    # objects would cost ~1 MB at n = 15
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


def _check_bases(m: "Matroid", scan_order: Sequence[int]) -> None:
    """Raise unless the bases of m form a matroid.

    The verdict comes from the rank table, which stays on m as its memo.
    On a rejected family the pairwise exchange scan, run over scan_order,
    names the first failing (B1, B2, e).
    """
    cards = {b.bit_count() for b in scan_order}
    if len(cards) != 1:
        raise errors.UnequalCardinality("bases of different sizes: %s" % sorted(cards))
    if _locally_submodular(m._rank_table(), m.n):
        return
    _check_exchange(scan_order, set(scan_order))
    raise errors.LockedMatroidError("rank table is not submodular, yet no basis "
                                    "exchange fails")


class Matroid:
    """A matroid given by the explicit list of its bases.

    Values are immutable after construction; the rank table is an internal
    memo computed at most once.
    """

    __slots__ = (
        "ground",
        "bases",
        "rank",
        "name",
        "index_map",
        "_basis_masks",
        "_mask_set",
        "_ranks",
    )

    def __init__(self, ground: GroundSet, basis_masks: Iterable[int], name: str = "M",
                 index_map: Optional[dict] = None):
        # Internal constructor: trusts that the masks form a matroid.
        # Use from_bases() for validated construction from raw input.
        bases = sorted({bits_of(m) for m in basis_masks})
        if not bases:
            raise errors.EmptyBases("a matroid needs at least one basis")
        self.ground = ground
        self.bases = tuple(bases)
        self.rank = len(bases[0])
        self.name = name
        self.index_map = index_map
        self._basis_masks = tuple(mask_of(b) for b in bases)
        self._mask_set = None
        self._ranks = None

    # -- identity ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def names(self) -> tuple[str, ...]:
        return self.ground.names

    @property
    def full_mask(self) -> int:
        return (1 << self.ground.n) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        # display name and provenance maps are metadata, not identity
        return (self.ground == other.ground) and (self.bases == other.bases)

    def __hash__(self) -> int:
        return hash((self.ground, self.bases))

    def __repr__(self) -> str:
        return "Matroid(%s, n=%d, rank=%d, bases=%d)" % (
            self.name, self.n, self.rank, len(self.bases)
        )

    @property
    def _basis_mask_set(self) -> frozenset:
        # the package asks the rank table instead; this set, built on first
        # read, is kept only for perfbench's input builders
        if self._mask_set is None:
            self._mask_set = frozenset(self._basis_masks)
        return self._mask_set

    # -- ranks --------------------------------------------------------------

    def rank_of(self, elements: Iterable[int]) -> int:
        """Rank of a subset: the largest intersection with a basis."""
        m = _check_elements(self.n, elements)
        return self._rank_mask(m)

    def _rank_mask(self, m: int) -> int:
        if self._ranks is not None:
            return self._ranks[m]
        return max((b & m).bit_count() for b in self._basis_masks)

    def _rank_table(self) -> list[int]:
        if self._ranks is None:
            self._build_tables()
        return self._ranks

    def _build_tables(self) -> None:
        n = self.n
        size = 1 << n
        ind = bytearray(size)
        for b in self._basis_masks:
            ind[b] = 1
        for m in range(size - 1, -1, -1):
            if ind[m]:
                rest = m
                while rest:
                    low = rest & -rest
                    ind[m ^ low] = 1
                    rest ^= low
        ranks = [0] * size
        for m in range(1, size):
            if ind[m]:
                ranks[m] = m.bit_count()
            else:
                best = 0
                rest = m
                while rest:
                    low = rest & -rest
                    r = ranks[m ^ low]
                    if r > best:
                        best = r
                    rest ^= low
                ranks[m] = best
        self._ranks = ranks

    def is_independent(self, elements: Iterable[int]) -> bool:
        m = _check_elements(self.n, elements)
        return self._rank_table()[m] == m.bit_count()

    # -- basic invariants -----------------------------------------------------

    def loops(self) -> tuple[int, ...]:
        union = 0
        for b in self._basis_masks:
            union |= b
        return bits_of(self.full_mask ^ union)

    def coloops(self) -> tuple[int, ...]:
        inter = self.full_mask
        for b in self._basis_masks:
            inter &= b
        return bits_of(inter)

    # -- duality / minors ------------------------------------------------------

    def dual(self) -> "Matroid":
        full = self.full_mask
        if self.name.startswith("dual(") and self.name.endswith(")"):
            name = self.name[5:-1]
        else:
            name = "dual(%s)" % self.name
        return Matroid(self.ground, (full ^ b for b in self._basis_masks), name)

    def validate(self) -> None:
        """Re-run full basis-axiom validation, as from_bases does.

        Checks equicardinality, then that the rank table is locally
        submodular, which holds exactly when the basis exchange axiom does;
        the table stays as this matroid's memo.  Raises UnequalCardinality,
        TooLarge (n > MAX_N) or ExchangeViolation with a concrete triple.
        """
        _refuse_large(self.n)
        _check_bases(self, self._basis_masks)


def from_bases(n: int, bases: Iterable[Iterable[int]], names: Optional[Sequence[str]] = None,
               name: str = "M") -> Matroid:
    """Build a matroid from a raw basis list, validating the basis axioms.

    Validation builds the rank table r(X) = max |B & X|, which the matroid
    keeps for every later rank query, and checks local submodularity:
    r(X) + r(X+e+f) <= r(X+e) + r(X+f).  An equicardinal family is a basis
    family exactly when its rank function passes (Oxley, Matroid Theory,
    ch. 1), so this decides the basis exchange axiom in O(2^n n^2) table
    lookups.  Only a rejected family gets the pairwise exchange scan, which
    names the failing triple.

    Raises EmptyBases, UnequalCardinality or ExchangeViolation (with a
    concrete failing triple) when the input is not a matroid, and TooLarge
    when n > MAX_N, before it reads any basis.
    """
    _refuse_large(n)
    ground = GroundSet(n, tuple(names)) if names is not None else GroundSet.default(n)
    masks = sorted({_check_elements(n, b) for b in bases})
    m = Matroid(ground, masks, name)
    _check_bases(m, masks)
    return m


def rank(m: Matroid, elements: Iterable[int]) -> int:
    return m.rank_of(elements)


def dual(m: Matroid) -> Matroid:
    return m.dual()


def minor(m: Matroid, delete: Iterable[int] = (), contract: Iterable[int] = ()) -> Matroid:
    """Delete ``delete`` and contract ``contract``; re-packs element indices.

    The returned matroid keeps the surviving element names and records the
    old-to-new index map in its ``index_map`` attribute.
    """
    dmask = _check_elements(m.n, delete)
    cmask = _check_elements(m.n, contract)
    if dmask & cmask:
        raise errors.OverlappingSets("delete and contract sets overlap")
    keep_mask = m.full_mask & ~(dmask | cmask)
    if keep_mask == 0:
        raise errors.EmptyResult("minor has empty ground set")
    ranks = m._rank_table()
    keep = bits_of(keep_mask)
    r_c = ranks[cmask]
    target = ranks[keep_mask | cmask] - r_c
    index_map = {old: new for new, old in enumerate(keep)}
    new_bases = []
    for comb in itertools.combinations(keep, target):
        if ranks[mask_of(comb) | cmask] == r_c + target:
            new_bases.append(mask_of(index_map[e] for e in comb))
    ground = GroundSet(len(keep), tuple(m.names[e] for e in keep))
    return Matroid(ground, new_bases, "minor(%s)" % m.name, index_map=index_map)


def restriction(m: Matroid, elements: Iterable[int]) -> Matroid:
    """M|L: deletion of the complement of L."""
    keep = _check_elements(m.n, elements)
    return minor(m, delete=bits_of(m.full_mask & ~keep))


def separator(ranks: Sequence[int], x: int, c: int = 0) -> Optional[int]:
    """A separator of the minor (M/C)|X, read from M's rank table: a submask
    A of X that holds X's lowest element, with A != X and
    r(A+C) + r(X-A+C) = r(X+C) + r(C).  Submasks are tried largest first.
    None when (M/C)|X is connected; X of at most one element always is.

    This one test covers every connectivity question here: M|X is
    connected when separator(ranks, X) is None, and M*|(E\\L) is connected
    exactly when (M/L)|(E\\L) is, because (M*)|Y = (M/(E\\Y))* and
    connectivity does not change under duality.
    """
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


def is_cyclic_flat(ranks: Sequence[int], comp: int, x: int) -> bool:
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


def components(ranks: Sequence[int], x: int) -> list[int]:
    """The connected components of M|X, as masks."""
    a = separator(ranks, x)
    if a is None:
        return [x]
    return components(ranks, a) + components(ranks, x ^ a)


def find_separator(m: Matroid) -> Optional[tuple[int, ...]]:
    """First (cardinality, then lexicographic) subset A with
    rank(A) + rank(E\\A) = rank(E), both sides nonempty; None if connected.

    Separators are the proper unions of components, so this is the
    smallest component, lexicographically first.
    """
    comps = components(m._rank_table(), m.full_mask)
    if len(comps) == 1:
        return None
    return min((bits_of(c) for c in comps), key=subset_key)


def is_connected(m: Matroid) -> bool:
    """Matroid connectivity: no 1-separation exists."""
    return find_separator(m) is None


def _reject_loops_coloops(m: Matroid) -> None:
    lo = m.loops()
    if lo:
        raise errors.LoopPresent(lo[0])
    co = m.coloops()
    if co:
        raise errors.ColoopPresent(co[0])


def closures(m: Matroid) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(parallel classes, coparallel classes) of a loopless, coloopless matroid.

    Parallel classes are the maximal sets of pairwise rank-1 pairs; coparallel
    classes are the parallel classes of the dual.  Without loops and coloops
    both relations are equivalences, so each family partitions E and the
    class of e is every f related to it.
    """
    _reject_loops_coloops(m)
    n = m.n
    ranks = m._rank_table()
    full = m.full_mask
    r_e = ranks[full]

    def classes(same) -> tuple[tuple[int, ...], ...]:
        found = {tuple(f for f in range(n) if f == e or same(e, f)) for e in range(n)}
        return tuple(sorted(found, key=subset_key))

    parallel = classes(lambda e, f: ranks[(1 << e) | (1 << f)] == 1)
    coparallel = classes(lambda e, f: ranks[full ^ (1 << e) ^ (1 << f)] == r_e - 1)
    return parallel, coparallel


def two_sum(m1: Matroid, m2: Matroid, e1: int, e2: int) -> Matroid:
    """2-sum of two connected matroids along the basepoints e1 in M1, e2 in M2.

    Ground set is (E1 minus e1) followed by (E2 minus e2); the result has
    |E1|+|E2|-2 elements and rank r1+r2-1.
    """
    for m in (m1, m2):
        if m.n < 3:
            raise errors.TooSmall("2-sum needs at least 3 elements on each side")
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


def relax(m: Matroid, subset: Iterable[int], name: Optional[str] = None) -> Matroid:
    """Add a non-basis of full rank cardinality as a basis (circuit-hyperplane
    relaxation); the result is revalidated by from_bases."""
    x = _check_elements(m.n, subset)
    if x.bit_count() != m.rank:
        raise errors.InvalidParams("relaxation set must have %d elements" % m.rank)
    if m._rank_table()[x] == m.rank:
        raise errors.InvalidParams("set is already a basis")
    new = [bits_of(b) for b in m._basis_masks] + [bits_of(x)]
    return from_bases(m.n, new, names=m.names, name=name or "relax(%s)" % m.name)


def with_names(m: Matroid, names: Sequence[str], name: Optional[str] = None) -> Matroid:
    """Same matroid structure over freshly named elements."""
    ground = GroundSet(m.n, tuple(names))
    return Matroid(ground, m._basis_masks, name or m.name)


def relabel(m: Matroid, perm: Sequence[int], name: Optional[str] = None) -> Matroid:
    """Permute element indices: new element perm[e] plays the role of old e.

    Names stay attached to positions (not moved with the elements), so a
    relabeled matroid is genuinely a different labeled object.
    """
    if sorted(perm) != list(range(m.n)):
        raise errors.InvalidParams("not a permutation of 0..%d" % (m.n - 1))
    bases = [mask_of(perm[e] for e in b) for b in m.bases]
    return Matroid(m.ground, bases, name or "relabel(%s)" % m.name)


# -- text format ----------------------------------------------------------
#
# matroid <name>
# elements <comma-separated names>
# basis <space-separated element names>     (one line per basis, canonical order)
#
# UTF-8, LF line endings.  The reader accepts bases in any order and
# canonicalizes; the writer is bit-exact.

def to_text(m: Matroid) -> str:
    lines = ["matroid %s" % m.name, "elements %s" % ",".join(m.names)]
    for b in m.bases:
        if b:
            lines.append("basis %s" % " ".join(m.names[i] for i in b))
        else:
            lines.append("basis")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Matroid:
    lines = [ln.rstrip("\r") for ln in text.split("\n") if ln.strip() != ""]
    if len(lines) < 3:
        raise errors.FormatError("matroid file needs a header and at least one basis")
    if not lines[0].startswith("matroid "):
        raise errors.FormatError("first line must be 'matroid <name>'")
    name = lines[0][len("matroid "):].strip()
    if not lines[1].startswith("elements "):
        raise errors.FormatError("second line must be 'elements <names>'")
    names = tuple(s.strip() for s in lines[1][len("elements "):].split(","))
    idx = {nm: i for i, nm in enumerate(names)}
    if len(idx) != len(names):
        raise errors.FormatError("duplicate element names")
    bases = []
    for ln in lines[2:]:
        if ln != "basis" and not ln.startswith("basis "):
            raise errors.FormatError("bad line: %r" % ln)
        toks = ln.split()[1:]
        try:
            bases.append(tuple(idx[t] for t in toks))
        except KeyError as k:
            raise errors.FormatError("unknown element %s in basis line" % k) from None
    return from_bases(len(names), bases, names=names, name=name)


def save(m: Matroid, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_text(m))


def load(path) -> Matroid:
    """Read a matroid file; bytes that are not UTF-8 raise FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise errors.FormatError("%s is not UTF-8: %s" % (path, exc)) from None
    return from_text(text)
