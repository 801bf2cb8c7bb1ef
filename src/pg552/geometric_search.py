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
from fractions import Fraction

from .bits import Frozen, bits
from .cliques import classify_line_cliques, max_cliques
from .graphs import Graph
from .incidence import IncidenceStructure, verify_pg


def _exact_covers(universe_size: int, sets: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All subsets of ``sets`` partitioning 0..universe_size-1.

    Backtracking with least-branching-column selection: always branch on the
    uncovered element contained in the fewest still-usable sets, the lowest
    such element on ties.  ``containing[e]`` masks the sets that hold e and
    ``meets[i]`` the sets that meet set i (i included), so a column's count
    and a choice's blocked sets are one mask operation each.  Solutions are
    returned as sorted tuples of set indices, in sorted order.  The branches
    run off an explicit stack, so a cover of any size fits.
    """
    full = (1 << universe_size) - 1
    containing = [0] * universe_size
    for i, s in enumerate(sets):
        bit = 1 << i
        while s:
            low = s & -s
            containing[low.bit_length() - 1] |= bit
            s ^= low
    meets = []
    for s in sets:
        m = 0
        while s:
            low = s & -s
            m |= containing[low.bit_length() - 1]
            s ^= low
        meets.append(m)
    solutions: list[tuple[int, ...]] = []
    stack = [(0, (1 << len(sets)) - 1, ())]  # (covered, usable, chosen)
    while stack:
        covered, usable, chosen = stack.pop()
        if covered == full:
            solutions.append(tuple(sorted(chosen)))
            continue
        best, best_count = 0, len(sets) + 1
        uncovered = full & ~covered
        while uncovered:
            low = uncovered & -uncovered
            opts = containing[low.bit_length() - 1] & usable
            count = opts.bit_count()
            if count < best_count:
                best, best_count = opts, count
                if count <= 1:
                    break
            uncovered ^= low
        while best:
            low = best & -best
            i = low.bit_length() - 1
            stack.append((covered | sets[i], usable & ~meets[i], chosen + (i,)))
            best ^= low
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


class Weighting(Frozen):
    """Rational point weights summing to zero exactly."""

    _compared = _shown = ("weights",)

    def __init__(self, weights: tuple[Fraction, ...]):
        if sum(weights, Fraction(0)) != 0:
            raise ValueError("weights do not sum to zero")
        object.__setattr__(self, "weights", weights)

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
        yield from _shell(ncells - 1, radius)


def _shell(k: int, radius: int):
    """The k-tuples of maximum absolute value ``radius`` (k >= 1), in
    lexicographic order: after a first entry of absolute value ``radius``
    every tail is allowed, after any other only the (k - 1)-tuples of the
    shell."""
    full = range(-radius, radius + 1)
    for a in full:
        if abs(a) == radius:
            for tail in itertools.product(full, repeat=k - 1):
                yield (a, *tail)
        elif k > 1:
            for tail in _shell(k - 1, radius):
                yield (a, *tail)


def mms_counterexample_search(
    g: IncidenceStructure, clique: int, bound: int = 81
) -> Weighting | None:
    """Search zero-sum weightings constant on the incidence cells of a
    non-star 6-clique of the line graph for one with at most 6 nonnegative
    lines whose nonnegative set is not a star.

    The last cell's value is forced by the zero-sum constraint; the others
    range over integers in -bound..bound, enumerated deterministically.
    Returns the first witness, or None if the grid is exhausted.

    A line's weight sum times the last cell's size is an integer linear
    form in the free cell values, with coefficient n_i s_last - n_last s_i
    on cell i, where the line has n_i of the s_i points of cell i.  Lines
    with equal forms are tested together, and ``Fraction``s are built only
    for the witness.
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
    last = len(cells) - 1
    pad = (0,) * (3 - len(cells))  # at most 3 cells, so at most 2 free values
    groups: dict[tuple[int, ...], list[int]] = {}  # form -> [line mask, lines]
    for i, m in enumerate(g.lines):
        n_last = (m & cells[last]).bit_count()
        form = tuple(
            (m & c).bit_count() * sizes[last] - n_last * s
            for c, s in zip(cells[:last], sizes)
        )
        group = groups.setdefault(form + pad, [0, 0])
        group[0] |= 1 << i
        group[1] += 1
    # the largest groups first, so a point with more than 6 nonnegative
    # lines is left early
    forms = sorted(
        ((a, b, mask, n) for (a, b), (mask, n) in groups.items()),
        key=lambda f: -f[3],
    )
    star_masks = set(g.pencils)
    for values in _cell_value_grid(len(cells), bound):
        if not any(values):
            continue  # the all-zero weighting
        x0, x1 = values + pad
        nonneg = 0
        count = 0
        for a, b, mask, n in forms:
            if a * x0 + b * x1 >= 0:
                nonneg |= mask
                count += n
                if count > 6:
                    break
        if count <= 6 and nonneg not in star_masks:
            forced = Fraction(-sum(s * x for s, x in zip(sizes, values)), sizes[last])
            cell_w = [Fraction(x) for x in values] + [forced]
            weights = [Fraction(0)] * g.v
            for c, wv in zip(cells, cell_w):
                for p in bits(c):
                    weights[p] = wv
            return Weighting(tuple(weights))
    return None
