"""Small helpers for sets-as-integer-bitmasks, and bit-sliced counts: the
number of masks that hold each position, one bit plane per binary digit."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def permute_mask(mask: int, p: Sequence[int]) -> int:
    """The image ``{p[i] : i in mask}`` as a mask (``p`` an injective table)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << p[low.bit_length() - 1]
        mask ^= low
    return out


def count_planes(rows: Sequence[int], members: int) -> list[int]:
    """The bit-sliced sum of ``rows[i]`` over the bits i of ``members``: bit
    j of the count at position p, the number of those rows with bit p set,
    is bit p of ``planes[j]``."""
    planes: list[int] = []
    while members:
        low = members & -members
        members ^= low
        carry = rows[low.bit_length() - 1]
        j = 0
        for plane in planes:  # faster than enumerate's tuples
            if not carry:
                break
            planes[j] = plane ^ carry
            carry &= plane
            j += 1
        if carry:
            planes.append(carry)
    return planes


def count_is(planes: Sequence[int], c: int, full: int) -> int:
    """The positions of ``full`` whose bit-sliced count in ``planes`` is c."""
    if c >> len(planes):
        return 0
    eq = full
    for j, plane in enumerate(planes):
        eq &= plane if c >> j & 1 else ~plane
    return eq
