"""Arithmetic and subspace machinery for the vector space V = GF(3)^4.

Vectors are 4-tuples of residues mod 3.  Every vector has a canonical index
in 0..80 (little-endian base 3: the first coordinate is the least
significant digit), and every subset of V is an 81-bit integer mask indexed
that way, so set algebra is plain bitwise arithmetic.

Addition and negation of *indices* are table-driven; the tables are built
once at import time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bits import bits

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


def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple((x - y) % 3 for x, y in zip(a, b))


def vec_scale(c: int, a: Vector) -> Vector:
    return tuple(c * x % 3 for x in a)


UNIT: tuple[Vector, ...] = tuple(
    tuple(1 if j == i else 0 for j in range(DIM)) for i in range(DIM)
)

# index-level arithmetic tables
ADD: tuple[tuple[int, ...], ...] = tuple(
    tuple(encode(vec_add(a, b)) for b in ALL_VECTORS) for a in ALL_VECTORS
)
NEG: tuple[int, ...] = tuple(encode(vec_neg(a)) for a in ALL_VECTORS)


def translate_mask(mask: int, x: int) -> int:
    """The set ``{x + p : p in mask}`` as a mask (``x`` a point index)."""
    row = ADD[x]
    out = 0
    for p in bits(mask):
        out |= 1 << row[p]
    return out


def negate_mask(mask: int) -> int:
    """The set ``{-p : p in mask}`` as a mask."""
    out = 0
    for p in bits(mask):
        out |= 1 << NEG[p]
    return out


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of V: echelonized basis plus full member mask."""

    basis: tuple[Vector, ...]
    members: int
    dim: int

    def __contains__(self, point: int) -> bool:
        return bool(self.members >> point & 1)


@dataclass(frozen=True)
class Coset:
    """A coset ``representative + subspace``."""

    representative: Vector
    subspace: Subspace
    members: int

    def __contains__(self, point: int) -> bool:
        return bool(self.members >> point & 1)


def _rref(vectors) -> list[Vector]:
    """Reduced row echelon form over GF(3); returns the nonzero rows."""
    rows = [list(v) for v in vectors]
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        # eliminate against existing pivots
        for b, p in zip(basis, pivots):
            if row[p]:
                c = row[p]
                row = [(x - c * y) % 3 for x, y in zip(row, b)]
        try:
            p = next(j for j, x in enumerate(row) if x)
        except StopIteration:
            continue
        inv = 1 if row[p] == 1 else 2  # 2 = 2^{-1} in GF(3)
        row = [inv * x % 3 for x in row]
        # back-substitute into earlier rows
        for k, (b, bp) in enumerate(zip(basis, pivots)):
            if b[p]:
                c = b[p]
                basis[k] = [(x - c * y) % 3 for x, y in zip(b, row)]
        basis.append(row)
        pivots.append(p)
    order = sorted(range(len(basis)), key=lambda k: pivots[k])
    return [tuple(basis[k]) for k in order]


def _members_of_basis(basis) -> int:
    mask = 1  # the zero vector
    for b in basis:
        bi = encode(b)
        b2 = ADD[bi][bi]
        mask = mask | translate_mask(mask, bi) | translate_mask(mask, b2)
    return mask


def span(vectors) -> Subspace:
    """Smallest subspace containing the given vectors (inputs may be dependent)."""
    basis = tuple(_rref(vectors))
    return Subspace(basis=basis, members=_members_of_basis(basis), dim=len(basis))


def enumerate_subspaces(dim: int) -> list[Subspace]:
    """All subspaces of the given dimension, sorted by member mask.

    Enumerates reduced-row-echelon bases directly: one RREF matrix per
    subspace, so no deduplication is needed.
    """
    if not 0 <= dim <= DIM:
        raise ValueError(f"dimension out of range 0..{DIM}: {dim}")
    if dim == 0:
        return [Subspace(basis=(), members=1, dim=0)]
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
            basis = tuple(tuple(r) for r in rows)
            out.append(
                Subspace(basis=basis, members=_members_of_basis(basis), dim=dim)
            )
    out.sort(key=lambda s: s.members)
    return out


def cosets_of(sub: Subspace) -> list[Coset]:
    """The cosets of a subspace, a partition of V; the subspace itself comes
    first and the rest follow in order of their smallest member index."""
    seen = 0
    out = []
    for i in range(NPOINTS):
        if seen >> i & 1:
            continue
        members = translate_mask(sub.members, i)
        out.append(Coset(representative=decode(i), subspace=sub, members=members))
        seen |= members
    return out


def coset_containing(sub: Subspace, point: Vector) -> Coset:
    i = encode(point)
    for c in cosets_of(sub):
        if i in c:
            return c
    raise AssertionError("cosets_of did not cover V")  # pragma: no cover


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


def intersect_count(a: int, b: int) -> int:
    return (a & b).bit_count()
