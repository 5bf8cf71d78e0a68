"""Bitmask helpers for subsets of a small indexed ground set."""

from __future__ import annotations

from typing import Iterable


def mask_of(elements: Iterable[int]) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def bits_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def subset_key(t: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Canonical order for subsets: by cardinality, then lexicographic."""
    return (len(t), t)
