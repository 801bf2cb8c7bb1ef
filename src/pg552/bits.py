"""Small helpers for sets-as-integer-bitmasks, bit-sliced counts (the
number of masks that hold each position, one bit plane per binary digit),
and ``Frozen``, the base of the package's immutable value classes."""

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


class Frozen:
    """An immutable value: equal to an object of its own class with equal
    ``_compared`` attributes, hashed on them, and shown by its ``_shown``
    attributes.  A subclass's ``__init__`` sets its attributes with
    ``object.__setattr__``; afterwards none can be set or deleted.  The
    subclasses keep a ``__dict__``, so copy and pickle restore an instance
    without ``__setattr__``, and ``functools.cached_property`` works."""

    _compared: tuple[str, ...] = ()
    _shown: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.__dict__, other.__dict__
        return [a[name] for name in self._compared] == [b[name] for name in self._compared]

    def __hash__(self):
        d = self.__dict__
        return hash(tuple([d[name] for name in self._compared]))

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
