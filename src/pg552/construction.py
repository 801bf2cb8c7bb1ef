"""The two partial geometries pg(5,5,2) on the 81 points of GF(3)^4.

The van Lint-Schrijver geometry takes S = {0, b1, b2, b3, b4, -(b1+..+b4)}
for a basis b1..b4 and uses all 81 translates x + S as lines.  The second
geometry keeps the 54 translates meeting a fixed 3-dimensional subspace N0
and replaces the 27 lines disjoint from N0 by translates of a second set S'
built from another basis, chosen so that the partial linear space axiom
survives the switch.

The point sets are module constants, each an 81-bit mask: the special sets
``S`` and ``S_PRIME``, the subspace ``N0`` and its cosets ``N1 = e3 + N0``
and ``N2 = e3 + e4 + N0``.
"""

from __future__ import annotations

from collections import Counter

from . import gf3space as gf3
from .bits import bits, mask_of
from .gf3space import ADD, NEG, span
from .incidence import IncidenceStructure

E1, E2, E3, E4 = gf3.UNIT
STANDARD_BASIS = (E1, E2, E3, E4)

# basis of the replacement set S'
E1P = ADD[NEG[E1]][E3]  # -e1 + e3
E2P = ADD[E1P][NEG[E4]]  # -e1 + e3 - e4
E3P = ADD[NEG[E2]][E4]  # -e2 + e4
E4P = ADD[E3P][NEG[E3]]  # -e2 - e3 + e4
PRIME_BASIS = (E1P, E2P, E3P, E4P)


def build_special_set(basis) -> int:
    """The mask of {0, b1..b4, -(b1+..+b4)} for a basis b1..b4 of V, given
    as point indices."""
    basis = tuple(basis)
    if len(basis) != 4 or span(basis) != gf3.FULL_MASK:
        raise ValueError("special set requires 4 linearly independent vectors")
    total = 0
    for b in basis:
        total = ADD[total][b]
    return mask_of([0, *basis, NEG[total]])


S = build_special_set(STANDARD_BASIS)
S_PRIME = build_special_set(PRIME_BASIS)
N0 = span([E1, E2, ADD[E3][NEG[E4]]])
N1 = gf3.translate_mask(N0, E3)
N2 = gf3.translate_mask(N0, ADD[E3][E4])


def build_vls() -> IncidenceStructure:
    """The van Lint-Schrijver geometry: all 81 translates of S."""
    return IncidenceStructure(
        gf3.NPOINTS, (gf3.translate_mask(S, x) for x in range(gf3.NPOINTS))
    )


def build_new() -> IncidenceStructure:
    """The switched geometry: S'-translates over N1, S-translates elsewhere."""
    lines = [gf3.translate_mask(S_PRIME, x) for x in bits(N1)]
    lines += [gf3.translate_mask(S, x) for x in bits(N0 | N2)]
    return IncidenceStructure(gf3.NPOINTS, lines)


def secant_profile(g: IncidenceStructure, subset: int) -> dict[int, int]:
    """Histogram of |subset ∩ line| over all lines of g."""
    return dict(Counter((subset & m).bit_count() for m in g.lines))


def find_2_ovoids(g: IncidenceStructure) -> list[int]:
    """All 3-dimensional subspaces meeting every line of g in exactly 2 points."""
    return [m for m in gf3.enumerate_subspaces(3) if secant_profile(g, m) == {2: g.b}]


def negative_lines(g: IncidenceStructure) -> list[int]:
    """The pointwise negations -(x+S) of the lines of g, sorted by mask."""
    return sorted(gf3.negate_mask(m) for m in g.lines)


def translation_check(g: IncidenceStructure, subspace: int) -> bool:
    """True iff x -> x + a preserves the line set for every a in the
    subspace mask (g an incidence structure on the 81 points of GF(3)^4)."""
    line_set = set(g.lines)
    return all(gf3.translate_mask(m, a) in line_set for a in bits(subspace) for m in g.lines)
