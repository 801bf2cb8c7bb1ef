"""Arithmetic and subspaces of the vector space V = GF(3)^4.

Vectors are 4-tuples of residues mod 3.  Every vector has a canonical index
in 0..80 (little-endian base 3: the first coordinate is the least
significant digit), and every subset of V is an 81-bit integer mask indexed
that way, so set algebra is plain bitwise arithmetic.  A subspace is such a
mask too (``span`` and ``enumerate_subspaces`` return member masks), a coset
is a ``translate_mask`` of one, and ``(a & b).bit_count()`` counts an
intersection.

Addition and negation of *indices* are table-driven; the tables are built
once at import time.
"""

from __future__ import annotations

import itertools

from .bits import bits, permute_mask

Q = 3
DIM = 4
NPOINTS = Q**DIM  # 81
FULL_MASK = (1 << NPOINTS) - 1

Vector = tuple[int, int, int, int]


def encode(v: Vector) -> int:
    """Canonical index of a vector (little-endian base 3)."""
    if len(v) != DIM or any(c not in (0, 1, 2) for c in v):
        raise ValueError(f"not a GF(3)^{DIM} vector: {v!r}")
    return v[0] + 3 * v[1] + 9 * v[2] + 27 * v[3]


def decode(i: int) -> Vector:
    """Inverse of :func:`encode`."""
    if not 0 <= i < NPOINTS:
        raise ValueError(f"point index out of range 0..{NPOINTS - 1}: {i}")
    return (i % 3, i // 3 % 3, i // 9 % 3, i // 27 % 3)


ALL_VECTORS: tuple[Vector, ...] = tuple(decode(i) for i in range(NPOINTS))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple((x + y) % 3 for x, y in zip(a, b))


def vec_neg(a: Vector) -> Vector:
    return tuple(-x % 3 for x in a)


UNIT: tuple[Vector, ...] = tuple(
    tuple(1 if j == i else 0 for j in range(DIM)) for i in range(DIM)
)



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


# index-level arithmetic tables
ADD: tuple[tuple[int, ...], ...] = _addition_table()
NEG: tuple[int, ...] = tuple(encode(vec_neg(a)) for a in ALL_VECTORS)


def translate_mask(mask: int, x: int) -> int:
    """The set ``{x + p : p in mask}`` as a mask (``x`` a point index)."""
    return permute_mask(mask, ADD[x])


def negate_mask(mask: int) -> int:
    """The set ``{-p : p in mask}`` as a mask."""
    return permute_mask(mask, NEG)


def span(vectors) -> int:
    """Member mask of the smallest subspace containing the given vectors
    (inputs may be dependent): {0} closed under each vector's multiples."""
    mask = 1  # the zero vector
    for v in vectors:
        i = encode(v)
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
            rows = [[0] * DIM for _ in range(dim)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), val in zip(free, values):
                rows[i][j] = val
            out.append(span(tuple(r) for r in rows))
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

