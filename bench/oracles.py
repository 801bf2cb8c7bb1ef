"""The benchmark's own checks of the program's outputs.

Each check recomputes its answer from the paper or from a property the
method must have, with code that shares nothing with pg552: plain integer
bitmasks and ``fractions.Fraction``.  Every check returns a list of
problems, empty when the output is right.
"""

from __future__ import annotations

from fractions import Fraction

# the paper's table
AUT_ORDERS = {
    "aut_vls": 58320,
    "aut_new": 972,
    "aut_point_graph_vls": 116640,
    "aut_point_graph_new": 972,
}
SIX_CLIQUES = {"point_vls": 162, "point_new": 108}
# line-graph 6-cliques as (stars, non-stars), and geometries on the point graph
LINE_CLIQUES = {"vls": (81, 81), "new": (81, 27)}
COVERS = {"vls": 2, "new": 1}
PG = (5, 5, 2)


def members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def image(mask: int, perm) -> int:
    out = 0
    for i in members(mask):
        out |= 1 << perm[i]
    return out


def collinearity(v: int, lines) -> list[int]:
    adj = [0] * v
    for m in lines:
        for p in members(m):
            adj[p] |= m & ~(1 << p)
    return adj


def pg_counts(s: int, t: int, alpha: int) -> tuple[int, int]:
    """Points and lines of a pg(s,t,alpha)."""
    return ((s + 1) * (s * t + alpha) // alpha, (t + 1) * (s * t + alpha) // alpha)


def pg_srg(s: int, t: int, alpha: int) -> tuple[int, int, int, int]:
    """srg(v,k,lambda,mu) of the point graph of a pg(s,t,alpha); the line
    graph is the point graph of the dual pg(t,s,alpha)."""
    v, _ = pg_counts(s, t, alpha)
    return (v, s * (t + 1), s - 1 + t * (alpha - 1), alpha * (t + 1))


def preserves_lines(line_set: frozenset, perm) -> bool:
    """A point permutation maps every line onto a line, i.e. it extends to a
    colour-preserving automorphism of the point/line incidence graph."""
    return all(image(m, perm) in line_set for m in line_set)


def preserves_adjacency(adj, perm) -> bool:
    return all(image(adj[v], perm) == adj[perm[v]] for v in range(len(adj)))


def check_paper_table(orders: dict, six_cliques: dict | None = None) -> list[str]:
    problems = [f"{k}: order {orders.get(k)}, paper {want}"
                for k, want in AUT_ORDERS.items() if orders.get(k) != want]
    if six_cliques is not None and six_cliques != SIX_CLIQUES:
        problems.append(f"6-cliques {six_cliques}, paper {SIX_CLIQUES}")
    return problems


def check_edge_partition(adj, lines) -> list[str]:
    """Every line is a clique of the graph and every edge lies on exactly
    one line."""
    covered = [0] * len(adj)
    for m in lines:
        for p in members(m):
            rest = m & ~(1 << p)
            if adj[p] & rest != rest:
                return [f"line {members(m)} is not a clique"]
            if covered[p] & rest:
                return [f"an edge at point {p} lies on two lines"]
            covered[p] |= rest
    if covered != list(adj):
        return ["some edge lies on no line"]
    return []


def check_weighting(lines, weights) -> list[str]:
    """The witness sums to 0, has at most 6 lines of nonnegative weight, and
    those lines are not the star of a point (recounted with Fraction)."""
    weights = [Fraction(w) for w in weights]
    if sum(weights, Fraction(0)) != 0:
        return [f"weights sum to {sum(weights, Fraction(0))}"]
    nonneg = [m for m in lines
              if sum((weights[p] for p in members(m)), Fraction(0)) >= 0]
    if len(nonneg) > 6:
        return [f"{len(nonneg)} nonnegative lines"]
    common = (1 << len(weights)) - 1
    for m in nonneg:
        common &= m
    if len(nonneg) == 6 and common:
        return ["the nonnegative lines form a star"]
    return []


def local_edge_counts(adj) -> dict[tuple[int, int], int]:
    """Edges among the common neighbours of each collinear pair x < y."""
    out = {}
    for x in range(len(adj)):
        for y in members(adj[x] >> (x + 1) << (x + 1)):
            common = adj[x] & adj[y]
            out[x, y] = sum((adj[p] & common).bit_count() for p in members(common)) // 2
    return out
