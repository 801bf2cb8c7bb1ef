"""Small helpers for sets-as-integer-bitmasks."""

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
