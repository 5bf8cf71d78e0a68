"""Matroids on small ground sets, represented by an explicit basis list.

Subsets of the ground set travel as sorted tuples of element indices at the
public surface and as bitmasks internally.  A Matroid keeps its bases as
masks only, sorted by value; from_text parses each basis line straight to a
mask.  Everything is deterministic: Matroid.bases, built from the masks on
first read, lists the bases in canonical order (all bases share one
cardinality, so the order is lexicographic on the sorted index tuples), and
derived matroids (dual, minor, 2-sum, relabeling) reuse that canonical form.

Every rank query, rank_of included, reads one full rank table, built once
per matroid on first use: a bytes object of 2^n ranks indexed by mask.  It
is built by byte-lane arithmetic, with byte x of one big integer holding
the value for the subset x, so that each pass over all 2^n subsets is a
few integer operations: the bases are closed downward, each independent
set's lane gets the thermometer code of |X|, and the max over subsets is
one OR per element.  A rank above 8, whose code a byte cannot hold, is read
from the complement family's table, of rank n - r <= 7, as
r(X) = r'(E-X) + |X| - (n - r).  cyclic_flats reads the table the same
way, and validation packs the same lanes to one bit per subset to test
local submodularity.  That is the intended scale here: the table refuses
ground sets of more than MAX_N = 16 elements with TooLarge, whichever
constructor made the matroid.

Connectivity has one primitive, the separator lanes of Matroid._components:
byte X of r + reversed r is r(X) + r(E-X), which equals r(E) exactly when X
is a separator, so one lane pass marks every separator and the components
are peeled off as the least ones.  find_separator and is_connected read
those components, and the lockedness test of the locked module reads the
cyclic flats of each.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from . import errors
from ._bits import bits_of, lane_constants, mask_key, mask_of, subset_bits


@dataclass(frozen=True)
class GroundSet:
    """An indexed ground set with distinct printable element names."""

    n: int
    names: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.n, int):
            raise errors.InvalidParams("ground set size %r is not an int" % (self.n,))
        if self.n < 1:
            raise errors.InvalidParams("ground set needs at least one element")
        if len(self.names) != self.n:
            raise errors.InvalidParams(
                "expected %d names, got %d" % (self.n, len(self.names))
            )
        if len(set(self.names)) != self.n:
            raise errors.InvalidParams("element names must be distinct")
        for nm in self.names:
            if not isinstance(nm, str) or not nm or any(c.isspace() for c in nm) or "," in nm:
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
    try:
        elements = iter(elements)
    except TypeError:
        raise errors.InvalidParams("%r is not a collection of indices" % (elements,)) from None
    m = 0
    for e in elements:
        if not isinstance(e, int) or e < 0 or e >= n:
            raise errors.OutOfRange("element index %r not in 0..%d" % (e, n - 1))
        m |= 1 << e
    return m


def _tuple_of(items: Iterable, what: str) -> tuple:
    """tuple(items), with InvalidParams when items is not a collection."""
    try:
        it = iter(items)
    except TypeError:
        raise errors.InvalidParams("%s %r is not a collection" % (what, items)) from None
    return tuple(it)


# The rank table has 2^n entries; its one writer, Matroid._build_tables,
# refuses larger ground sets before it allocates.
MAX_N = 16

# bytes.translate tables between a lane value v <= 8 and its thermometer
# code (1 << v) - 1, the byte whose set bits are the values below v: the
# max of two codes is their OR, and a code's popcount is its value
_THERMOMETER = bytes((1 << min(v, 8)) - 1 for v in range(256))
_POPCOUNT = bytes(b.bit_count() for b in range(256))


def _refuse_large(n: int) -> None:
    if not isinstance(n, int):
        raise errors.InvalidParams("ground set size %r is not an int" % (n,))
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


def _rank_steps(ranks: bytes, n: int) -> Iterator[tuple[int, int]]:
    """(HAS_e, D_e) for e = 0, ..., n-1, over the byte lanes of a rank
    table, one lane per subset X: lane X of D_e holds r(X+e) - r(X) on the
    lanes X without e and 0 on the others.  It is one biased subtraction:
    each lane of (r shifted down by 2^e lanes, OR 0x80) minus r lies in
    0x70..0x90, since ranks are at most 16, so no lane borrows; on a lane X
    without e it is 0x80 + r(X+e) - r(X), and r is monotone and grows by at
    most one, so bit 0 is the step, which one AND with the lanes without e
    keeps.  The constants are lane_constants(n)'s, a pure function of n."""
    has, ones, _ = lane_constants(n)
    r = int.from_bytes(ranks, "little")
    bias = ones << 7
    for e, h in enumerate(has):
        yield h, (((r >> (8 << e)) | bias) - r) & (ones ^ h)


def _locally_submodular(ranks: bytes, n: int) -> bool:
    """Local submodularity of a normalised, unit-increasing rank table:
    r(X) + r(X+e+f) <= r(X+e) + r(X+f) for every X and e, f outside it.

    By unit increase it can fail only where D_e(X) = D_f(X) = 0 and
    D_f(X+e) = 1.  Each D_e of _rank_steps is packed to one bit per subset:
    three shifts gather the 0/1 lanes 8k..8k+7 into the low bits of lane 8k,
    and a slice keeps every eighth byte.  With Z_e the subsets X without e
    where D_e(X) = 0, the table fails exactly when (D_f >> 2^e) & Z_e & Z_f
    is nonzero for some e < f.  The packed integers take 2^n bits each, an
    eighth of a lane table.
    """
    size = 1 << n
    everything = (1 << size) - 1
    zeros = []  # Z_e for each e scanned so far
    for (_, lanes), has in zip(_rank_steps(ranks, n), subset_bits(n)):
        lanes |= lanes >> 7
        lanes |= lanes >> 14
        lanes |= lanes >> 28
        d = int.from_bytes(lanes.to_bytes(size, "little")[::8], "little")
        z = everything ^ d ^ has
        for e, z_e in enumerate(zeros):
            if (d >> (1 << e)) & z_e & z:
                return False
        zeros.append(z)
    return True


class Matroid:
    """A matroid given by the explicit list of its bases.

    Values are immutable after construction; the rank table is an internal
    memo computed at most once.
    """

    __slots__ = (
        "ground",
        "rank",
        "name",
        "index_map",
        "_basis_masks",
        "_bases",
        "_mask_set",
        "_ranks",
        "_comps",
    )

    def __init__(self, ground: GroundSet, basis_masks: Iterable[int], name: str = "M",
                 index_map: Optional[dict] = None):
        # Internal constructor: trusts that the masks form a matroid, but
        # refuses what its rank table cannot read: masks that are not ints,
        # or not subsets of the ground set, or of unequal sizes.  Use
        # from_bases() for validated construction from raw input.
        if not isinstance(name, str):
            raise errors.InvalidParams("matroid name %r is not a string" % (name,))
        if "\n" in name or "\r" in name:  # save writes the name on the header line
            raise errors.InvalidParams("matroid name %r holds a line break" % (name,))
        if name != name.strip():  # load strips the header line
            raise errors.InvalidParams("matroid name %r has leading or trailing whitespace"
                                       % (name,))
        try:
            masks = tuple(sorted(set(basis_masks)))
            cards = set(map(int.bit_count, masks))
        except TypeError:
            raise errors.InvalidParams("basis masks %r are not a collection of ints"
                                       % (basis_masks,)) from None
        if not masks:
            raise errors.EmptyBases("a matroid needs at least one basis")
        if masks[0] < 0 or masks[-1] >> ground.n:
            raise errors.OutOfRange("basis mask %d is not a subset of 0..%d"
                                    % (masks[0] if masks[0] < 0 else masks[-1], ground.n - 1))
        if len(cards) != 1:
            raise errors.UnequalCardinality("bases of different sizes: %s" % sorted(cards))
        self.ground = ground
        self.rank = masks[0].bit_count()
        self.name = name
        self.index_map = index_map
        self._basis_masks = masks  # sorted by value
        self._bases = None
        self._mask_set = None
        self._ranks = None
        self._comps = None

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
        return (self.ground == other.ground) and (self._basis_masks == other._basis_masks)

    def __hash__(self) -> int:
        return hash((self.ground, self._basis_masks))

    def __repr__(self) -> str:
        return "Matroid(%s, n=%d, rank=%d, bases=%d)" % (
            self.name, self.n, self.rank, len(self._basis_masks)
        )

    @property
    def bases(self) -> tuple[tuple[int, ...], ...]:
        """The bases as sorted index tuples in canonical (lexicographic)
        order, built from the masks on first read."""
        if self._bases is None:
            self._bases = tuple(sorted(map(bits_of, self._basis_masks)))
        return self._bases

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
        return self._rank_table()[_check_elements(self.n, elements)]

    def _rank_table(self) -> bytes:
        if self._ranks is None:
            self._build_tables()
        return self._ranks

    def _components(self) -> list[int]:
        """The connected components of M as masks, in increasing order; found
        once, on first use, and shared by every connectivity question on M.

        Byte lane X of r + reversed r holds r(X) + r(E-X), which is at least
        r(E) and at most |X| + |E-X| = n <= 16, so the sum does not carry:
        lane X is r(E) exactly when X is a separator, which one translate
        marks.  Every nonzero separator is a union of components,
        so the least one is a component C; the separators that avoid C are
        the unions of the other components, so clearing every lane that
        meets C and taking the least nonzero separator again gives the next
        component, in increasing order, until E is covered.  Loops and
        coloops are components of one element like any other."""
        if self._comps is None:
            ranks = self._rank_table()
            n, full = self.n, self.full_mask
            size, r_e = 1 << n, ranks[full]
            both = int.from_bytes(ranks, "little") + int.from_bytes(ranks[::-1], "little")
            lanes = both.to_bytes(size, "little").translate(bytes(r_e) + b"\1" + bytes(255 - r_e))
            comps = [lanes.find(1, 1)]  # lane 0, the empty set, is a separator
            if comps[0] != full:
                has = lane_constants(n)[0]
                seps = int.from_bytes(lanes, "little")
                covered = comps[0]
                while covered != full:
                    for e in bits_of(comps[-1]):
                        seps &= ~has[e]
                    comps.append(seps.to_bytes(size, "little").find(1, 1))
                    covered |= comps[-1]
            self._comps = comps
        return self._comps

    def _build_tables(self) -> None:
        """Builds the rank table in two passes over the HAS patterns of
        lane_constants(n), memoized for the largest n asked for only and a
        pure function of n: the downward closure of the bases, then a
        running max of thermometer codes, one OR per element.  The table is
        r(X) = max |B & X| for every equicardinal family, matroid or not;
        the constructor refuses any other family."""
        n = self.n
        _refuse_large(n)
        size = 1 << n
        ind = bytearray(size)
        for b in self._basis_masks:
            ind[b] = 1
        # A byte holds thermometer codes of ranks up to 8 only; above that,
        # build the table r' of the complement family {E - B}, of rank
        # n - r <= 7: lane X of the reversed indicator marks E - X.
        dual = self.rank > 8
        if dual:
            ind.reverse()
        # Byte lane x of each integer below holds a value for the subset x.
        # Values stay below 0x80, so a lane never carries into the next.
        ind = int.from_bytes(ind, "little")
        has, ones, pop = lane_constants(n)  # pop: |X| on lane X
        for i, h in enumerate(has):
            ind |= (ind & h) >> (8 << i)  # subsets of independent sets
        t = ((ind * 0xFF) & pop).to_bytes(size, "little").translate(_THERMOMETER)
        t = int.from_bytes(t, "little")
        for i, h in enumerate(has):
            # on the lanes X that hold i: r(X) = max(r(X), r(X - i)), an OR
            t |= (t << (8 << i)) & (h * 0xFF)
        ranks = t.to_bytes(size, "little").translate(_POPCOUNT)
        if dual:
            # r(X) = r'(E - X) + |X| - (n - r), exact for every equicardinal
            # family; every lane stays in 0..n, so nothing carries or borrows
            ranks = int.from_bytes(ranks[::-1], "little") + pop - (n - self.rank) * ones
            ranks = ranks.to_bytes(size, "little")
        self._ranks = ranks

    def is_independent(self, elements: Iterable[int]) -> bool:
        m = _check_elements(self.n, elements)
        return self._rank_table()[m] == m.bit_count()

    # -- basic invariants -----------------------------------------------------

    def loops(self) -> tuple[int, ...]:
        """The elements e with r({e}) = 0, read from the rank table."""
        ranks = self._rank_table()
        return tuple(e for e in range(self.n) if not ranks[1 << e])

    def coloops(self) -> tuple[int, ...]:
        """The elements e with r(E-e) < r(E), read from the rank table."""
        ranks = self._rank_table()
        full = self.full_mask
        return tuple(e for e in range(self.n) if ranks[full ^ 1 << e] < ranks[full])

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

        The constructor has already refused a family of unequal sizes; this
        checks that the rank table is locally submodular, which holds
        exactly when the basis exchange axiom does; the table stays as this
        matroid's memo.  Raises TooLarge (n > MAX_N, from the rank table) or
        ExchangeViolation with a concrete triple: on a rejected family the
        pairwise exchange scan, run over the masks in increasing order,
        names the first failing (B1, B2, e).
        """
        masks = self._basis_masks
        if _locally_submodular(self._rank_table(), self.n):
            return
        _check_exchange(masks, set(masks))
        raise errors.LockedMatroidError("rank table is not submodular, yet no basis "
                                        "exchange fails")


def _validated(ground: GroundSet, masks: Iterable[int], name: str) -> Matroid:
    """The tail that from_bases and from_text share: EmptyBases and
    UnequalCardinality from the constructor, then Matroid.validate on the
    new matroid, whose rank table stays as its memo."""
    m = Matroid(ground, masks, name)
    m.validate()
    return m


def from_bases(n: int, bases: Iterable[Iterable[int]], names: Optional[Sequence[str]] = None,
               name: str = "M") -> Matroid:
    """Build a matroid from a raw basis list, validating the basis axioms.

    Validation builds the rank table r(X) = max |B & X|, which the matroid
    keeps for every later rank query, and checks local submodularity:
    r(X) + r(X+e+f) <= r(X+e) + r(X+f).  An equicardinal family is a basis
    family exactly when its rank function passes (Oxley, Matroid Theory,
    ch. 1), so this decides the basis exchange axiom in n lane subtractions
    over the table and n^2/2 operations on integers of 2^n bits, one bit
    per subset (see _locally_submodular).  Only a rejected family gets the
    pairwise exchange scan, which names the failing triple.

    Raises EmptyBases, UnequalCardinality or ExchangeViolation (with a
    concrete failing triple) when the input is not a matroid, TooLarge
    when n > MAX_N, before it reads any basis, and InvalidParams when n is
    not an int (before TooLarge), when names, bases or a basis is not a
    collection, or when a basis lists an element twice, before it builds
    anything, and when name is not a string.
    """
    _refuse_large(n)
    ground = (GroundSet(n, _tuple_of(names, "names")) if names is not None
              else GroundSet.default(n))
    masks = set()
    for b in _tuple_of(bases, "basis list"):
        b = _tuple_of(b, "basis")
        mask = _check_elements(n, b)
        if mask.bit_count() != len(b):
            again = next(e for i, e in enumerate(b) if e in b[:i])
            raise errors.InvalidParams("repeated element %d in basis %r" % (again, b))
        masks.add(mask)
    return _validated(ground, masks, name)


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


def cyclic_flats(ranks: bytes, n: int) -> Iterator[int]:
    """The cyclic flats of M, as masks in increasing order, read from its
    rank table in byte lanes, one lane per subset X, with the lanes
    D_e(X) = r(X+e) - r(X) of _rank_steps (0 on the lanes X with e), which
    read lane_constants(n).  X is a cyclic flat when D_e(X) = 1 for every e
    outside X (X is closed) and D_e(X-e) = 0 for every e in X (X is a union
    of circuits).  When M has no loops, those inside a component C are the
    cyclic flats of M|C, as the locked module docstring shows."""
    size = 1 << n
    # every lane's bit 0 set: the ANDs below read bit 0 of each lane only,
    # and the first element leaves every lane 0 or 1
    flats = -1
    for e, (has, d) in enumerate(_rank_steps(ranks, n)):
        flats &= d | (has ^ (d << (8 << e)))
    lanes = flats.to_bytes(size, "little")
    x = lanes.find(1)
    while x >= 0:
        yield x
        x = lanes.find(1, x + 1)


def find_separator(m: Matroid) -> Optional[tuple[int, ...]]:
    """First (cardinality, then lexicographic) subset A with
    rank(A) + rank(E\\A) = rank(E), both sides nonempty; None if connected.

    Separators are the proper unions of components, so this is the
    smallest component, lexicographically first.
    """
    comps = m._components()
    if len(comps) == 1:
        return None
    return bits_of(min(comps, key=mask_key))


def is_connected(m: Matroid) -> bool:
    """Matroid connectivity: no 1-separation exists."""
    return find_separator(m) is None


def _reject_loops_coloops(m: Matroid) -> None:
    """Raises on the least loop, then on the least coloop.  Both read the
    rank table, so a ground set over MAX_N is refused as such first."""
    loops = m.loops()
    if loops:
        raise errors.LoopPresent(loops[0])
    coloops = m.coloops()
    if coloops:
        raise errors.ColoopPresent(coloops[0])


def _reject_disconnected(m: Matroid) -> None:
    if len(m._components()) > 1:
        raise errors.Disconnected("%s is not connected" % m.name)


def closures(m: Matroid) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(parallel classes, coparallel classes) of a loopless, coloopless matroid.

    Parallel classes are the maximal sets of pairwise rank-1 pairs; coparallel
    classes are the parallel classes of the dual.  Without loops and coloops
    both relations are equivalences, so each family partitions E and the
    class of e is every f related to it.  The tuple view of _closure_masks.
    """
    parallel, coparallel = _closure_masks(m)
    return tuple(map(bits_of, parallel)), tuple(map(bits_of, coparallel))


def _closure_masks(m: Matroid) -> tuple[list[int], list[int]]:
    """closures(m) as masks, each family sorted by mask_key.  The class of
    e is found from its least element only: with no loops, f is parallel to
    e exactly when r({e,f}) <= 1; with no coloops, coparallel exactly when
    f = e or r(E-e-f) < r(E)."""
    ranks = m._rank_table()  # first: a ground set over MAX_N is refused as such
    _reject_loops_coloops(m)
    full = m.full_mask
    r_e = ranks[full]
    bit = [1 << f for f in range(m.n)]
    parallel, coparallel = [], []
    seen_p = seen_c = 0
    for e, b in enumerate(bit):
        if not seen_p & b:
            x = b
            for f in bit[e + 1:]:
                if ranks[b | f] <= 1:
                    x |= f
            seen_p |= x
            parallel.append(x)
        if not seen_c & b:
            x, rest = b, full ^ b
            for f in bit[e + 1:]:
                if ranks[rest ^ f] < r_e:
                    x |= f
            seen_c |= x
            coparallel.append(x)
    parallel.sort(key=mask_key)
    coparallel.sort(key=mask_key)
    return parallel, coparallel


def two_sum(m1: Matroid, m2: Matroid, e1: int, e2: int) -> Matroid:
    """2-sum of two connected matroids along the basepoints e1 in M1, e2 in M2.

    Ground set is (E1 minus e1) followed by (E2 minus e2); the result has
    |E1|+|E2|-2 elements and rank r1+r2-1.  Raises InvalidParams when a
    summand is not a Matroid, then TooSmall, then TooLarge when the sum has
    more than MAX_N elements, before it reads any basis.  The bases are the
    unions B1 - e1 + B2 - e2 where exactly one of B1, B2 holds its basepoint,
    formed on masks: each summand's bases are split by the basepoint bit,
    which is squeezed out, and M2's move up by |E1| - 1 bits.
    """
    for m in (m1, m2):
        if not isinstance(m, Matroid):
            raise errors.InvalidParams("2-sum summand %r is not a Matroid" % (m,))
    for m in (m1, m2):
        if m.n < 3:
            raise errors.TooSmall("2-sum needs at least 3 elements on each side")
    _refuse_large(m1.n + m2.n - 2)
    _check_elements(m1.n, (e1,))
    _check_elements(m2.n, (e2,))
    halves = []
    for m, e, shift in ((m1, e1, 0), (m2, e2, m1.n - 1)):
        # the bases without e and those with it, e squeezed out
        low, half = (1 << e) - 1, ([], [])
        for b in m._basis_masks:
            half[b >> e & 1].append((b & low | b >> (e + 1) << e) << shift)
        if not all(half):  # e is in no basis (a loop) or in every one (a coloop)
            raise errors.BasepointIsLoopOrColoop("basepoint %d" % e)
        _reject_disconnected(m)
        halves.append(half)
    (out1, in1), (out2, in2) = halves
    bases = [a | b for p1, p2 in ((in1, out2), (out1, in2)) for a in p1 for b in p2]
    names = list(m1.names[:e1] + m1.names[e1 + 1:])
    taken = set(names)
    for nm in m2.names[:e2] + m2.names[e2 + 1:]:
        while nm in taken:
            nm += "'"
        taken.add(nm)
        names.append(nm)
    ground = GroundSet(len(names), tuple(names))
    res = Matroid(ground, bases, "twosum(%s,%s)" % (m1.name, m2.name))
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
    return _validated(m.ground, m._basis_masks + (x,), name or "relax(%s)" % m.name)


def with_names(m: Matroid, names: Sequence[str], name: Optional[str] = None) -> Matroid:
    """Same matroid structure over freshly named elements."""
    ground = GroundSet(m.n, _tuple_of(names, "names"))
    return Matroid(ground, m._basis_masks, name or m.name)


def relabel(m: Matroid, perm: Sequence[int], name: Optional[str] = None) -> Matroid:
    """Permute element indices: new element perm[e] plays the role of old e.

    Names stay attached to positions (not moved with the elements), so a
    relabeled matroid is genuinely a different labeled object.  InvalidParams
    unless perm lists the integers 0..n-1 in some order.
    """
    perm = _tuple_of(perm, "permutation")
    if not all(isinstance(e, int) for e in perm) or sorted(perm) != list(range(m.n)):
        raise errors.InvalidParams("not a permutation of 0..%d" % (m.n - 1))
    image = [1 << e for e in perm]
    bases = [sum(image[e] for e in bits_of(b)) for b in m._basis_masks]
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
    """Parse the text format, each basis line straight to a mask, and
    validate as from_bases does.  Raises FormatError on a malformed line and
    TooLarge past MAX_N elements, right after the elements line and before
    any basis line is read."""
    lines = [ln.rstrip("\r") for ln in text.split("\n") if ln.strip() != ""]
    if len(lines) < 3:
        raise errors.FormatError("matroid file needs a header and at least one basis")
    if not lines[0].startswith("matroid "):
        raise errors.FormatError("first line must be 'matroid <name>'")
    name = lines[0][len("matroid "):].strip()
    if not lines[1].startswith("elements "):
        raise errors.FormatError("second line must be 'elements <names>'")
    names = tuple(s.strip() for s in lines[1][len("elements "):].split(","))
    if len(set(names)) != len(names):
        raise errors.FormatError("duplicate element names")
    _refuse_large(len(names))  # before anything of n bits per name is built
    bit = {nm: 1 << i for i, nm in enumerate(names)}
    masks = []
    for ln in lines[2:]:
        if ln != "basis" and not ln.startswith("basis "):
            raise errors.FormatError("bad line: %r" % ln)
        toks = ln[6:].split()
        try:
            # distinct bits sum to a mask of as many bits; a repeat carries
            mask = sum(map(bit.__getitem__, toks))
        except KeyError as k:
            raise errors.FormatError("unknown element %s in basis line" % k) from None
        if mask.bit_count() != len(toks):
            again = next(t for i, t in enumerate(toks) if t in toks[:i])
            raise errors.FormatError("repeated element %r in basis line" % again)
        masks.append(mask)
    return _validated(GroundSet(len(names), names), masks, name)


def _check_path(path) -> None:
    # open() reads an int as a file descriptor, which it would then close
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise errors.InvalidParams("path %r is not a str, bytes or os.PathLike" % (path,))


def save(m: Matroid, path) -> None:
    """Write m in the text format; a path that is not a str, bytes or
    os.PathLike raises InvalidParams."""
    _check_path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(to_text(m))


def load(path) -> Matroid:
    """Read a matroid file; bytes that are not UTF-8 raise FormatError, and
    a path that is not a str, bytes or os.PathLike raises InvalidParams."""
    _check_path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise errors.FormatError("%s is not UTF-8: %s" % (path, exc)) from None
    return from_text(text)
