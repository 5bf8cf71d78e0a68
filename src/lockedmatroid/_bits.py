"""The shared primitives: bitmask helpers for subsets of a small indexed
ground set, and the one union-find, which the canonical search's orbits and
the spanning-tree scan of graphic matroids both use."""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


# _BYTE_BITS[k][b]: the set bits of the byte value b, each plus 8k
_BYTE_BITS = [tuple(tuple(i + 8 * k for i in range(8) if b >> i & 1) for b in range(256))
              for k in range(2)]


def bits_of(mask: int) -> tuple[int, ...]:
    """The elements of mask in increasing order: below 2^16 from one table
    for each of its two bytes, above it one bit at a time."""
    if 0 <= mask < 0x10000:
        low, high = _BYTE_BITS
        return low[mask & 0xFF] + high[mask >> 8]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def complement(n: int, x: tuple[int, ...]) -> tuple[int, ...]:
    """E \\ x for the ground set E = {0, ..., n-1}."""
    return bits_of(((1 << n) - 1) ^ mask_of(x))


def splits(mask: int) -> Iterator[int]:
    """Submasks of mask that hold its lowest element, mask itself excluded,
    largest first: one side of each split of mask into two nonempty parts."""
    low = mask & -mask
    rest = b = mask ^ low
    while b:
        b = (b - 1) & rest
        yield low | b


# the lane constants of the largest n asked for so far: (n, HAS, ONES, POP),
# at first those of n = 0, one lane
_lanes: tuple[int, tuple[int, ...], int, int] = (0, (), 1, 0)


def lane_constants(n: int) -> tuple[tuple[int, ...], int, int]:
    """(HAS, ONES, POP) over 2^n byte lanes, lane x being byte x of a
    little-endian integer: HAS[i] holds 1 in each lane whose index has bit i
    and 0 in the others, a block of 2^(i+1) lanes repeated; ONES holds 1 in
    every lane, and POP holds |x| in lane x.  Every lane pass reads them, so
    they are memoized for the largest n asked for only: (n + 2) * 2^n bytes
    at most, 1.125 MiB at n = 16.  A smaller n reads the low 2^n lanes of
    the memo, which hold its own constants, one AND each, so the result is
    a pure function of n whatever sizes came before."""
    global _lanes
    top, has, ones, pop = _lanes
    if n > top:
        has = tuple(int.from_bytes((bytes(1 << i) + b"\1" * (1 << i)) * (1 << (n - 1 - i)),
                                   "little") for i in range(n))
        ones = int.from_bytes(b"\1" * (1 << n), "little")
        _lanes = top, has, ones, pop = n, has, ones, sum(has)
    if n == top:
        return has, ones, pop
    low = (1 << (8 << n)) - 1
    return tuple(h & low for h in has[:n]), ones & low, pop & low


def subset_bits(n: int) -> Iterator[int]:
    """HAS_0, ..., HAS_{n-1} packed to one bit per subset: bit x of HAS_i
    is bit i of x.  The first three repeat the bytes 0xAA, 0xCC and 0xF0;
    HAS_i for i >= 3 repeats a block of 2^i zero bits and 2^i one bits."""
    size = 1 << n
    for i in range(n):
        if i < 3:
            block = bytes([(0xAA, 0xCC, 0xF0)[i]])
        else:
            block = bytes(1 << (i - 3)) + b"\xff" * (1 << (i - 3))
        reps = max(1, size // (8 * len(block)))
        yield int.from_bytes(block * reps, "little") & ((1 << size) - 1)


def find(parent: list[int], w: int) -> int:
    """w's root in a union-find, halving the path on the way."""
    while parent[w] != w:
        parent[w] = w = parent[parent[w]]
    return w


def subset_key(t: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Canonical order for subsets: by cardinality, then lexicographic."""
    return (len(t), t)


def mask_key(x: int) -> tuple[int, tuple[int, ...]]:
    """subset_key of bits_of(x): masks sort in the canonical subset order."""
    return (x.bit_count(), bits_of(x))


def subset_text(names: tuple[str, ...], t: tuple[int, ...]) -> str:
    """A subset written with element names, as "{a,b}"."""
    return "{%s}" % ",".join(names[i] for i in t)
