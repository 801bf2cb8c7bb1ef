"""Arithmetic and subspaces of the vector space V = GF(3)^4.

A vector is its index in 0..80, the little-endian base-3 number of its
coordinates (the first coordinate is the least significant digit), so the
unit vectors e1..e4 are 1, 3, 9 and 27.  Every subset of V is an 81-bit
integer mask indexed that way, so set algebra is plain bitwise arithmetic.
A subspace is such a mask too (``span`` and ``enumerate_subspaces`` return
member masks), a coset is a ``translate_mask`` of one, and
``(a & b).bit_count()`` counts an intersection.

Addition and negation are table-driven; the tables are built once at
import time.
"""

from __future__ import annotations

import itertools

from .bits import bits, permute_mask

Q = 3
DIM = 4
NPOINTS = Q**DIM  # 81
FULL_MASK = (1 << NPOINTS) - 1

UNIT = (1, 3, 9, 27)  # e1..e4


def _addition_table() -> tuple[tuple[int, ...], ...]:
    """``ADD[a][b]`` is the index of a + b.  Row 0 is the identity, and row
    a is row a - 3^d with digit d of every entry raised by 1 mod 3, where d
    is a's lowest nonzero base-3 digit."""
    step = [tuple(i - 2 * 3**d if i // 3**d % 3 == 2 else i + 3**d for i in range(NPOINTS))
            for d in range(DIM)]
    rows = [tuple(range(NPOINTS))]
    for a in range(1, NPOINTS):
        d = next(d for d in range(DIM) if a // 3**d % 3)
        rows.append(tuple(map(step[d].__getitem__, rows[a - 3**d])))
    return tuple(rows)


ADD: tuple[tuple[int, ...], ...] = _addition_table()
NEG: tuple[int, ...] = tuple(row.index(0) for row in ADD)


def translate_mask(mask: int, x: int) -> int:
    """The set ``{x + p : p in mask}`` as a mask (``x`` a point index)."""
    return permute_mask(mask, ADD[x])


def negate_mask(mask: int) -> int:
    """The set ``{-p : p in mask}`` as a mask."""
    return permute_mask(mask, NEG)


def span(points) -> int:
    """Member mask of the smallest subspace containing the given point
    indices (which may be dependent): {0} closed under each one's multiples."""
    mask = 1  # the zero vector
    for i in points:
        if not 0 <= i < NPOINTS:
            raise ValueError(f"point index out of range 0..{NPOINTS - 1}: {i}")
        mask |= translate_mask(mask, i) | translate_mask(mask, ADD[i][i])
    return mask


def enumerate_subspaces(dim: int) -> list[int]:
    """Member masks of all subspaces of the given dimension, sorted.

    Enumerates reduced-row-echelon bases directly: one RREF matrix per
    subspace, so no deduplication is needed.
    """
    if not 0 <= dim <= DIM:
        raise ValueError(f"dimension out of range 0..{DIM}: {dim}")
    out = []
    for pivots in itertools.combinations(range(DIM), dim):
        free = [
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, DIM)
            if j not in pivots
        ]
        for values in itertools.product(range(3), repeat=len(free)):
            rows = [3**p for p in pivots]  # each row's index
            for (i, j), val in zip(free, values):
                rows[i] += val * 3**j
            out.append(span(rows))
    out.sort()
    return out


def difference_set(mask: int) -> int:
    """All pairwise differences x - y of distinct elements of the set."""
    pts = list(bits(mask))
    out = 0
    for x in pts:
        row = ADD[x]
        for y in pts:
            if x != y:
                out |= 1 << row[NEG[y]]
    return out

