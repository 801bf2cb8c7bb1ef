"""Exact-cover reconstruction of geometries from a strongly regular graph,
and zero-sum weighting experiments on the lines.

A pg(5,5,2) induces a partition of the 1215 edges of its point graph into
6-cliques (the lines).  Searching for *all* such partitions among the
maximal 6-cliques decides whether the graph supports any other geometry:
each candidate clique becomes the mask of its 15 edges, indexed in the
order of ``Graph.edges``, and an exact cover of the edge indices is a
partition.

The weighting experiments probe whether stars (the 6 lines through one
point) are the only zero-sum weightings with a minimum number of
nonnegative-sum lines.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .bits import bits
from .cliques import classify_line_cliques, max_cliques
from .graphs import Graph
from .incidence import IncidenceStructure, verify_pg


def _exact_covers(universe_size: int, sets: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All subsets of ``sets`` partitioning 0..universe_size-1.

    Backtracking with least-branching-column selection: always branch on the
    uncovered element contained in the fewest still-usable sets.  Solutions
    are returned as sorted tuples of set indices, in sorted order.  The
    branches run off an explicit stack, so a cover of any size fits.
    """
    full = (1 << universe_size) - 1
    containing: list[list[int]] = [[] for _ in range(universe_size)]
    for i, s in enumerate(sets):
        for e in bits(s):
            containing[e].append(i)
    solutions: list[tuple[int, ...]] = []
    stack = [(0, (1 << len(sets)) - 1, ())]  # (covered, usable, chosen)
    while stack:
        covered, usable, chosen = stack.pop()
        if covered == full:
            solutions.append(tuple(sorted(chosen)))
            continue
        best_opts = None
        for e in bits(full & ~covered):
            opts = [i for i in containing[e] if usable >> i & 1]
            if best_opts is None or len(opts) < len(best_opts):
                best_opts = opts
                if len(opts) <= 1:
                    break
        for i in best_opts:
            s = sets[i]
            blocked = 0
            for e in bits(s):
                for j in containing[e]:
                    blocked |= 1 << j
            stack.append((covered | s, usable & ~blocked, chosen + (i,)))
    solutions.sort()
    return solutions


def edge_clique_partitions(g: Graph) -> list[tuple[int, ...]]:
    """Every partition of the edge set of ``g`` into 6-cliques, each
    returned as a tuple of clique vertex masks sorted ascending."""
    edge_index = {e: i for i, e in enumerate(g.edges())}
    cands = max_cliques(g).cliques_of_size_6
    edge_masks = []
    for c in cands:
        m = 0
        for e in itertools.combinations(bits(c), 2):
            m |= 1 << edge_index[e]
        edge_masks.append(m)
    return [
        tuple(sorted(cands[i] for i in sol))
        for sol in _exact_covers(len(edge_index), tuple(edge_masks))
    ]


def all_geometries_on(g: Graph) -> list[IncidenceStructure]:
    """Every partition of the edge set of ``g`` into 6-cliques, returned as
    a verified pg(5,5,2) (lines = chosen cliques).

    Each solution is passed through verify_pg; a solution that fails the
    axioms raises, rather than being silently dropped.
    """
    out = []
    for masks in edge_clique_partitions(g):
        structure = IncidenceStructure(g.n, masks)
        verify_pg(structure)
        out.append(structure)
    return out


@dataclass(frozen=True)
class Weighting:
    """Rational point weights summing to zero exactly."""

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if sum(self.weights, Fraction(0)) != 0:
            raise ValueError("weights do not sum to zero")

    def line_sum(self, line_mask: int) -> Fraction:
        return sum((self.weights[p] for p in bits(line_mask)), Fraction(0))


def star_weighting(g: IncidenceStructure, p: int) -> Weighting:
    """Weight v-1 at p and -1 elsewhere; the nonnegative lines of this
    weighting are exactly the star at p."""
    w = [Fraction(-1)] * g.v
    w[p] = Fraction(g.v - 1)
    return Weighting(tuple(w))


def count_nonnegative_lines(g: IncidenceStructure, w: Weighting) -> tuple[int, int]:
    """Number of lines with nonnegative weight sum, and their index mask."""
    if len(w.weights) != g.v:
        raise ValueError("weighting has the wrong number of points")
    nonneg = 0
    for i, m in enumerate(g.lines):
        if w.line_sum(m) >= 0:
            nonneg |= 1 << i
    return nonneg.bit_count(), nonneg


def _incidence_cells(g: IncidenceStructure, clique: int) -> list[int]:
    """Partition of the points by the clique's incidence pattern: on >= 2 of
    the clique lines, on exactly one, on none.  Empty cells are dropped."""
    cells = [0, 0, 0]
    for p, pencil in enumerate(g.pencils):
        cells[2 - min((pencil & clique).bit_count(), 2)] |= 1 << p
    return [c for c in cells if c]


def _cell_value_grid(ncells: int, bound: int):
    """Integer tuples for all cells but the last, enumerated by growing
    maximum absolute value, lexicographically within each shell."""
    for radius in range(bound + 1):
        rng = range(-radius, radius + 1)
        for values in itertools.product(rng, repeat=ncells - 1):
            if radius == 0 or max(map(abs, values)) == radius:
                yield values


def mms_counterexample_search(
    g: IncidenceStructure, clique: int, bound: int = 81
) -> Weighting | None:
    """Search zero-sum weightings constant on the incidence cells of a
    non-star 6-clique of the line graph for one with at most 6 nonnegative
    lines whose nonnegative set is not a star.

    The last cell's value is forced by the zero-sum constraint; the others
    range over integers in -bound..bound, enumerated deterministically.
    Returns the first witness, or None if the grid is exhausted.
    """
    if clique.bit_count() != 6:
        raise ValueError("clique must consist of 6 lines")
    stars, non_stars = classify_line_cliques(g, [clique])
    if stars:
        raise ValueError("clique is a star")
    cells = _incidence_cells(g, clique)
    if len(cells) < 2:
        return None  # only the all-zero weighting would be available
    sizes = [c.bit_count() for c in cells]
    # per line: how many of its points fall in each cell
    line_profiles = [
        tuple((m & c).bit_count() for c in cells) for m in g.lines
    ]
    star_masks = set(g.pencils)
    last = len(cells) - 1
    for values in _cell_value_grid(len(cells), bound):
        forced = Fraction(-sum(s * x for s, x in zip(sizes, values)), sizes[last])
        cell_w = [Fraction(x) for x in values] + [forced]
        if all(x == 0 for x in cell_w):
            continue
        nonneg = 0
        count = 0
        for i, prof in enumerate(line_profiles):
            if sum(n * w for n, w in zip(prof, cell_w)) >= 0:
                nonneg |= 1 << i
                count += 1
                if count > 6:
                    break
        if count <= 6 and nonneg not in star_masks:
            weights = [Fraction(0)] * g.v
            for c, wv in zip(cells, cell_w):
                for p in bits(c):
                    weights[p] = wv
            return Weighting(tuple(weights))
    return None
