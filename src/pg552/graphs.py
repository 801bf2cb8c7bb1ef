"""Simple graphs as bitset adjacency rows.

Includes exhaustive strongly-regular certification and the local
collinearity configuration around a collinear point pair.  Isomorphism,
the local configurations' shapes included, is decided by the canonical
search in ``symmetry``.
"""

from __future__ import annotations

import functools

from .bits import Frozen, bits, count_is, count_planes


# Adjacency rows pack into a side × side bit matrix, side the power of two
# from 16 up that holds them, row i at bits side·i .. side·i + side - 1, so
# entry (i, j) is bit side·i + j.  Transposing swaps, for k = side / 2, ...,
# 2, 1, every entry (i, j) with i & k == 0 and j & k != 0 with entry
# (i + k, j - k), (side - 1) k bits above it: one delta swap per k, whose
# mask is the columns j & k != 0 of the rows i & k == 0 (Warren, Hacker's
# Delight, 2nd ed., §7-3).
@functools.cache
def _transpose_masks(side: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The mask of the entries (i, i) of the side × side matrix, and its
    transpose's delta swaps ``(shift, mask)``."""
    width = side // 8  # bytes per row
    diag = b"".join((1 << i).to_bytes(width, "little") for i in range(side))
    swaps = []
    k = side // 2
    while k:
        cols = int(("1" * k + "0" * k) * (side // (2 * k)), 2).to_bytes(width, "little")
        rows = (cols * k + bytes(width * k)) * (side // (2 * k))
        swaps.append(((side - 1) * k, int.from_bytes(rows, "little")))
        k //= 2
    return int.from_bytes(diag, "little"), tuple(swaps)


class Graph(Frozen):
    """Undirected simple graph; ``adj[i]`` is the neighbour mask of vertex i."""

    _compared = _shown = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if len(adj) != n:
            raise ValueError("adjacency row count != n")
        check_rows(adj, loops=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (i, j), i < j, in i-major order."""
        return [(i, j) for i, row in enumerate(self.adj) for j in bits(row >> i + 1 << i + 1)]

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.adj)) // 2


def check_rows(adj, loops: bool = True) -> None:
    """Check that ``adj`` are the adjacency rows of a graph on ``len(adj)``
    vertices: each in range, without a self-loop unless ``loops``, and each
    edge with its reverse.  ``ValueError`` names the first faulty row, then
    the first edge (i, j), in i-major order, whose reverse is missing.

    The rows are packed and compared with their transpose and, without
    loops, the diagonal; only rows that fail reach the loops that name the
    fault.  Up to 16 vertices they are shifted in, above that joined as
    bytes: shifting is quadratic in the side."""
    n = len(adj)
    # a negative row passes max; up to 16 vertices it makes m negative
    if not adj or max(adj) >> n == 0 and (n <= 16 or min(adj) >= 0):
        if n <= 16:
            side = 16
            m = 0
            for row in reversed(adj):
                m = m << 16 | row
        else:
            side = 1 << (n - 1).bit_length()
            m = int.from_bytes(b"".join([r.to_bytes(side // 8, "little") for r in adj]), "little")
        diag, swaps = _transpose_masks(side)
        t = m
        for d, mask in swaps:
            x = (t ^ t >> d) & mask
            t ^= x ^ x << d
        if t == m >= 0 and (loops or not m & diag):
            return
    full = (1 << n) - 1
    for i, row in enumerate(adj):
        if row & ~full:
            raise ValueError(f"vertex {i}: neighbour out of range")
        if not loops and row >> i & 1:
            raise ValueError(f"vertex {i}: self-loop")
    for i, row in enumerate(adj):
        for j in bits(row):
            if not adj[j] >> i & 1:
                raise ValueError(f"asymmetric edge ({i}, {j})")


class SrgParams(Frozen):
    """Certified strongly-regular parameters.

    ``complete``/``empty`` flag the degenerate graphs where mu (resp. lam)
    has no witnessing pair; the count is reported as 0 there.
    """

    _compared = _shown = ("v", "k", "lam", "mu", "complete", "empty")

    def __init__(self, v: int, k: int, lam: int, mu: int,
                 complete: bool = False, empty: bool = False):
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "complete", complete)
        object.__setattr__(self, "empty", empty)

    def feasibility_identity(self) -> bool:
        return self.k * (self.k - self.lam - 1) == (self.v - self.k - 1) * self.mu


class SrgViolation(ValueError):
    """Raised by srg_check; carries the first offending pair."""

    def __init__(self, reason: str, pair: tuple[int, int] | None = None,
                 count: int | None = None):
        msg = reason if pair is None else f"{reason} at pair {pair} (count {count})"
        super().__init__(msg)
        self.reason = reason
        self.pair = pair
        self.count = count


def srg_check(g: Graph) -> SrgParams:
    """Certify strong regularity by exhaustive count over all vertex pairs.

    A violation names the first offending pair (x, y), x < y, in x-major
    order.  The pairs are counted one by one on small or dense graphs and a
    row at a time on large sparse ones (``_row_counts``)."""
    if g.n < 2:
        raise SrgViolation("graph too small")
    k = g.adj[0].bit_count()
    for v in range(g.n):
        if g.adj[v].bit_count() != k:
            raise SrgViolation("not regular", (0, v), g.adj[v].bit_count())
    if k == g.n - 1:  # complete: every pair is adjacent with n - 2 common neighbours
        return SrgParams(v=g.n, k=k, lam=g.n - 2, mu=0, complete=True)
    # n²/2 pair counts against n rows of k additions each: the rows win
    # from about n = 9k (measured; 1.5× at n = 12k, 6.6× on the 64×64 grid)
    lam, mu = (_row_counts if 10 * k < g.n else _pair_counts)(g)
    return SrgParams(
        v=g.n,
        k=k,
        lam=0 if lam is None else lam,
        mu=0 if mu is None else mu,
        complete=mu is None,
        empty=lam is None,
    )


def _pair_counts(g: Graph) -> tuple[int | None, int | None]:
    """λ and μ of a regular graph, or None where no pair is adjacent
    (resp. non-adjacent), from |N(x) ∩ N(y)| of each pair x < y in turn."""
    lam = mu = None
    for x in range(g.n):
        ax = g.adj[x]
        for y in range(x + 1, g.n):
            c = (ax & g.adj[y]).bit_count()
            if ax >> y & 1:
                if lam is None:
                    lam = c
                elif c != lam:
                    raise SrgViolation("lambda not constant", (x, y), c)
            else:
                if mu is None:
                    mu = c
                elif c != mu:
                    raise SrgViolation("mu not constant", (x, y), c)
    return lam, mu


def _row_counts(g: Graph) -> tuple[int | None, int | None]:
    """``_pair_counts`` a row at a time, with the same result and the same
    first violation.  For each x the counts |N(x) ∩ N(y)| of all y > x are
    bit-sliced (``bits.count_planes``): bit j of y's count is bit y - x - 1
    of ``planes[j]``, the sum of the rows of x's neighbours shifted down
    past x.  λ and μ are the counts of the first adjacent and the first
    non-adjacent pair in x-major order, so the first violation is the first
    pair whose count is not the one of its kind."""
    adj = g.adj
    lam = mu = None
    for x in range(g.n - 1):
        shift = x + 1
        above = (1 << (g.n - shift)) - 1
        near = adj[x] >> shift
        far = above & ~near
        if lam is None and near:
            lam = (adj[x] & adj[(near & -near).bit_length() + x]).bit_count()
        if mu is None and far:
            mu = (adj[x] & adj[(far & -far).bit_length() + x]).bit_count()
        planes = [p >> shift for p in count_planes(adj, adj[x])]
        bad = 0
        if near:
            bad |= near & ~count_is(planes, lam, above)
        if far:
            bad |= far & ~count_is(planes, mu, above)
        if bad:
            low = bad & -bad
            y = low.bit_length() + x
            reason = "lambda not constant" if near & low else "mu not constant"
            raise SrgViolation(reason, (x, y), (adj[x] & adj[y]).bit_count())
    return lam, mu


class LocalConfig(Frozen):
    """Common neighbourhood of a collinear pair, split into the four points
    of their common line (A), four more points (B), and a ninth point z.
    ``induced`` is the collinearity graph on the points ``vertices``, A, B
    and z in that order; equality and hashing ignore both."""

    _compared = ("a_mask", "b_mask", "z")
    _shown = ("a_mask", "b_mask", "z", "induced", "vertices")

    def __init__(self, a_mask: int, b_mask: int, z: int, induced: Graph,
                 vertices: tuple[int, ...]):
        object.__setattr__(self, "a_mask", a_mask)
        object.__setattr__(self, "b_mask", b_mask)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "induced", induced)
        object.__setattr__(self, "vertices", vertices)

    @property
    def edge_list(self) -> list[tuple[int, int]]:
        """Induced edges, as pairs of original point indices."""
        return [
            (self.vertices[i], self.vertices[j]) for i, j in self.induced.edges()
        ]


def local_configuration(g, x: int, y: int) -> LocalConfig:
    """Decompose the common neighbourhood of distinct collinear points x, y.

    ``g`` is an incidence structure (81 points, 6-point lines).  A is the
    common line minus {x, y}; z is the unique common neighbour isolated in
    the induced collinearity graph; B is the rest.  The collinearity rows
    are read from ``g.collinearity``, built once per structure, so the
    calls over all collinear pairs of one structure share them.  Only B's
    rows are read for the induced graph: A lies on the common line, so A is
    a clique, and z has no neighbour among the common points; the edges
    between A and B are set in the A rows by symmetry.  The induced graph
    is checked as every ``Graph`` is, so a wrong row raises.
    """
    if not (0 <= x < g.v and 0 <= y < g.v):
        raise ValueError(f"point index out of range 0..{g.v - 1}")
    if x == y:  # x's own pencil would pass for a common line
        raise ValueError(f"points {x}, {y} are not collinear: they are one point")
    common_line = g.pencils[x] & g.pencils[y]
    if common_line.bit_count() != 1:
        raise ValueError(f"points {x}, {y} are not collinear on a unique line")
    rows = g.collinearity
    commons = rows[x] & rows[y]  # rows omit their own point, so x, y are out
    a_mask = g.lines[common_line.bit_length() - 1] & commons
    verts = []  # A, then B, each in increasing order, then z
    rest = a_mask
    while rest:
        low = rest & -rest
        verts.append(low.bit_length() - 1)
        rest ^= low
    n_a = len(verts)
    # one pass over the rest of the common neighbours: the isolated ones
    # (z, if unique) and the others (B), with their rows among the commons
    isolated: list[int] = []
    b_rows: list[int] = []
    b_mask = 0
    rest = commons & ~a_mask
    while rest:
        low = rest & -rest
        p = low.bit_length() - 1
        row = rows[p] & commons
        if row:
            verts.append(p)
            b_rows.append(row)
            b_mask |= low
        else:
            isolated.append(p)
        rest ^= low
    if len(isolated) != 1:
        raise ValueError(
            f"expected a unique isolated common neighbour, got {isolated}"
        )
    z = isolated[0]
    verts.append(z)
    # a point's vertex is its rank in A, or n_a plus its rank in B
    induced = [(1 << n_a) - 1 ^ 1 << i for i in range(n_a)]
    for i, row in enumerate(b_rows, n_a):
        out = 0
        near = row & a_mask
        while near:
            low = near & -near
            j = (a_mask & low - 1).bit_count()
            out |= 1 << j
            induced[j] |= 1 << i
            near ^= low
        near = row & b_mask
        while near:
            low = near & -near
            out |= 1 << n_a + (b_mask & low - 1).bit_count()
            near ^= low
        induced.append(out)
    induced.append(0)
    return LocalConfig(
        a_mask=a_mask,
        b_mask=b_mask,
        z=z,
        induced=Graph(len(verts), tuple(induced)),
        vertices=tuple(verts),
    )
