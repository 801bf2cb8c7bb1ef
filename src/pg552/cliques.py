"""Maximal-clique enumeration over bitset adjacency, and the classification
of 6-cliques of a line graph into stars and non-stars."""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType

from .bits import bits
from .graphs import Graph


@dataclass(frozen=True)
class CliqueReport:
    """The census of one graph; shared by every caller that asks about an
    equal graph, so its histogram is a read-only mapping."""

    size_histogram: MappingProxyType  # clique size -> count
    cliques_of_size_6: tuple[int, ...]  # vertex masks, sorted
    all_cliques: tuple[int, ...]  # every maximal clique, sorted by mask


@functools.lru_cache(maxsize=8)
def max_cliques(g: Graph) -> CliqueReport:
    """All maximal cliques via Bron-Kerbosch with pivoting.

    A node (R, P, X) yields the maximal cliques C with R ⊆ C ⊆ R ∪ P that
    no vertex of X extends.  A node of three or more candidates branches on
    P − N(u) for a pivot u that maximizes |P ∩ N(u)| over u in P ∪ X, ties
    broken by smallest vertex index, except that the scan stops at the
    first u with |P ∩ N(u)| ≥ |P| − 1, as no vertex of P sees more.  Any
    pivot yields every maximal clique once.  Smaller nodes close in place,
    with exactly the cliques their branches would yield:

    - one candidate a: R ∪ {a} if no vertex of X sees a;
    - two adjacent candidates a, b: R ∪ {a, b} if no vertex of X sees both;
    - two others: R ∪ {a} if no vertex of X sees a, and R ∪ {b} if none
      sees b, since b's branch would get (X ∪ {a}) ∩ N(b) = X ∩ N(b).

    A node descends straight into its first branch and stacks only the
    branches that remain, so a clique of any size fits.  Output is sorted
    by mask, so the result is deterministic.  Equal graphs share one
    census: a point graph is enumerated once though both the clique census
    and the exact-cover search (``geometric_search.all_geometries_on``) ask
    for its cliques.
    """
    adj = g.adj
    found: list[int] = []
    stack: list[tuple[int, int, int, int]] = []  # (R, P, X, branches left)
    r, p, x = 0, (1 << g.n) - 1, 0
    while True:
        todo = 0
        rest = p & (p - 1)  # P less its lowest vertex
        if rest & (rest - 1):
            pivot, best = -1, -1
            enough = p.bit_count() - 1
            scan = p | x
            while scan:
                low = scan & -scan
                u = low.bit_length() - 1
                c = (p & adj[u]).bit_count()
                if c > best:
                    pivot, best = u, c
                    if c >= enough:
                        break
                scan ^= low
            todo = p & ~adj[pivot]
        elif rest:  # P = {a, b}, a < b, and rest = {b}
            a = p ^ rest
            na, nb = adj[a.bit_length() - 1], adj[rest.bit_length() - 1]
            if na & rest:
                if not x & na & nb:
                    found.append(r | p)
            else:
                if not x & na:
                    found.append(r | a)
                if not x & nb:
                    found.append(r | rest)
        elif p:
            if not x & adj[p.bit_length() - 1]:
                found.append(r | p)
        elif not x:
            found.append(r)
        if not todo:
            if not stack:
                break
            r, p, x, todo = stack.pop()
        bv = todo & -todo
        todo ^= bv
        if todo:
            stack.append((r, p ^ bv, x | bv, todo))
        v = bv.bit_length() - 1
        r, p, x = r | bv, p & adj[v], x & adj[v]
    found.sort()
    histogram = MappingProxyType(dict(Counter(m.bit_count() for m in found)))
    six = tuple(m for m in found if m.bit_count() == 6)
    return CliqueReport(
        size_histogram=histogram, cliques_of_size_6=six, all_cliques=tuple(found)
    )


def classify_line_cliques(g, cliques) -> tuple[list[int], list[int]]:
    """Split 6-cliques of the line graph of ``g`` into stars and non-stars.

    ``cliques`` are masks over line indices; a clique is a star iff its six
    lines share a common point.
    """
    stars, non_stars = [], []
    for c in cliques:
        common = (1 << g.v) - 1
        for i in bits(c):
            common &= g.lines[i]
        (stars if common else non_stars).append(c)
    return stars, non_stars


def one_secant_lines(g, point_set: int) -> int:
    """Mask of indices of lines meeting the given point set in exactly one point."""
    out = 0
    for i, m in enumerate(g.lines):
        if (m & point_set).bit_count() == 1:
            out |= 1 << i
    return out


def match_negative_lines(g, non_stars, neg_lines) -> dict[int, int]:
    """Match each non-star 6-clique of the line graph of ``g`` to the unique
    negative line whose six 1-secants it consists of.

    Returns {clique mask: negative line mask}; raises if any clique matches
    zero or several negative lines, or if the map is not a bijection.
    ``neg_lines`` may be any iterable: it is read once.
    """
    neg_lines = tuple(neg_lines)
    secants = {one_secant_lines(g, m): m for m in neg_lines}
    if len(secants) != len(neg_lines):
        raise ValueError("two negative lines share their 1-secant set")
    matching: dict[int, int] = {}
    for c in non_stars:
        if c not in secants:
            raise ValueError(f"non-star clique {c:x} matches no negative line")
        matching[c] = secants[c]
    if len(set(matching.values())) != len(matching) or len(matching) != len(secants):
        raise ValueError("clique/negative-line matching is not a bijection")
    return matching
