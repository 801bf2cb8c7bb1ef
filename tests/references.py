"""What the tests check against, stated once: copies of earlier ``src/``
code that the current code must match, each naming the commit it keeps;
brute-force recounts that share no code with the library; and the
strategies, structures and helpers that several test modules use."""

import itertools
from collections import Counter, deque

from hypothesis import strategies as st

from pg552 import gf3space as gf3
from pg552 import graphs as gr
from pg552 import groups
from pg552 import incidence as inc
from pg552 import symmetry as sym
from pg552.bits import bits, mask_of, permute_mask

IDENTITY = bytes(range(256))


def chain_levels(chain):
    """Each level of a stabilizer chain that has a base point, top down."""
    while chain is not None and chain.basepoint is not None:
        yield chain
        chain = chain.stab


def chain_contents(chain):
    """Every stored element of a chain, level by level, in stored order."""
    return [
        (lvl.basepoint, lvl.gens, list(lvl.transversal.items()), list(lvl.inverses.items()))
        for lvl in chain_levels(chain)
    ]


def brute_elements(degree, gens, limit=None):
    """Every group element as a byte string, by closing the identity; None past ``limit``."""
    # right multiplication by the generators: ``e.translate(g)`` is e then g
    tables = [bytes(g) + bytes(range(degree, 256)) for g in gens]
    elems = {bytes(range(degree))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for e in frontier:
            for g in tables:
                h = e.translate(g)
                if h not in elems:
                    if len(elems) == limit:
                        return None
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    return elems


def check_complete(chain):
    """Schreier's criterion at every level, recounted from the levels' stored elements."""
    # each orbit is the closure of the base point under every element stored
    # at its level or below, and each Schreier generator of that set sifts to
    # the identity below it (Holt, Eick and O'Brien 2005, section 4.4)
    levels = list(chain_levels(chain))
    assert (levels[-1].stab if levels else chain).gens == []
    below = []
    for level in reversed(levels):
        below = level.gens + below
        assert groups.orbit_closure(1 << level.basepoint, below) == mask_of(level.transversal)
        for p, u in level.transversal.items():
            for s in below:
                schreier = u.translate(s).translate(level.inverses[s[p]])
                assert level.stab.sift(schreier) == IDENTITY


def full_sift(chain, g):
    """The sift of commit 66c27a1, which walks every level with no early stop."""
    level = chain
    while level is not None and level.basepoint is not None:
        u_inv = level.inverses.get(g[level.basepoint])
        if u_inv is None:
            return g
        g = g.translate(u_inv)
        level = level.stab
    return g


def sifted_members(chain, inputs, contains=None):
    """How many of ``inputs`` ``full_sift`` takes through ``chain`` to the
    identity; each residue must be ``chain.sift``'s, or, given ``contains``,
    each membership its answer."""
    members = 0
    for p in inputs:
        padded = groups._pad(p)
        residue = full_sift(chain, padded)
        if contains is None:
            assert chain.sift(padded) == residue, p
        else:
            assert contains(p) == (residue == IDENTITY), p
        members += residue == IDENTITY
    return members


def conjugated(gens, phi):
    """Each of ``gens`` renamed by ``phi``: phi^-1 g phi, composed left to right."""
    inv = groups.inverse(phi)
    return [groups.compose(groups.compose(inv, g), phi) for g in gens]


def full_rescan_grow_orbit(level):
    """``_Chain._grow_orbit`` of commit 218f0a1, which rescans the whole orbit."""
    queue = deque(sorted(level.transversal))
    while queue:
        p = queue.popleft()
        u = level.transversal[p]
        for s in level.gens:
            x = s[p]
            if x not in level.transversal:
                ux = u.translate(s)
                level.transversal[x] = ux
                level.inverses[x] = bytes.maketrans(ux, IDENTITY)
                queue.append(x)


def recursive_insert(level, g):
    """``_Chain.insert`` of commit 67e5dba, one recursion down the levels g joins."""
    if level.basepoint is None:
        level._open(next(i for i in range(256) if g[i] != i))
    level.gens.append(g)
    if g[level.basepoint] == level.basepoint:
        level.stab.insert(g)
    level._grow_orbit()
    level._process_schreier()


def two_translate_schreier_pass(level):
    """``_Chain._process_schreier`` of commit f2216d1, which builds each generator in full."""
    gens, swept, new = level.gens, level._swept, level.gens[level._swept_gens:]
    for p in sorted(level.transversal):
        u_p = level.transversal[p]
        for s in new if p in swept else gens:
            schreier = u_p.translate(s).translate(level.inverses[s[p]])
            if schreier == IDENTITY:
                continue
            residue = level.stab.sift(schreier)
            if residue != IDENTITY:
                level.stab.insert(residue)
    level._swept = set(level.transversal)
    level._swept_gens = len(gens)


def recursive_order(level):
    """``_Chain.order`` of commit f2216d1, the product of every level's orbit length."""
    if level.basepoint is None:
        return 1
    return len(level.transversal) * recursive_order(level.stab)


def conjugated_chain(chain, phi):
    """The chain renamed by ``phi`` element by element, as commit 3ef1bc9 seeded a search."""
    # every stored element g, each level's generating set included, becomes
    # phi^-1 g phi, and every base point and orbit point its image, in order
    p = groups._pad(phi)
    p_inv = bytes.maketrans(p, IDENTITY)

    def conj(g):
        return p_inv.translate(g).translate(p)

    out = level = groups._Chain()
    for src in chain_levels(chain):
        level.basepoint = p[src.basepoint]
        level.gens = [conj(g) for g in src.gens]
        level.transversal = {p[x]: conj(u) for x, u in src.transversal.items()}
        level.inverses = {p[x]: conj(u) for x, u in src.inverses.items()}
        level.stab = groups._Chain()
        level = level.stab
    return out


@st.composite
def colored_graphs(draw, max_n=10):
    """A colored simple graph on up to ``max_n`` vertices in three colours."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    colors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return sym.ColoredGraph(n, tuple(adj), tuple(colors))


def is_automorphism(cg, g):
    """Whether g keeps every colour and maps every row onto the row of the image."""
    return all(
        cg.colors[g[v]] == cg.colors[v] and permute_mask(cg.adj[v], g) == cg.adj[g[v]]
        for v in range(cg.n)
    )


def form_key(cf):
    """What a canonical form prints: labeling, certificate, generators and group order."""
    return cf.labeling, cf.certificate, tuple(cf.group.generators), cf.group.order()


def search_key(cf):
    """``form_key`` and the search's work counters: nodes, leaves and pruned subtrees."""
    return form_key(cf) + (cf.nodes, cf.leaves, cf.pruned)


class _FirstPathSearch(sym._Search):
    """The search under commit 4ffabe0's rules: first-path orbit pruning, first-leaf backjumps."""

    def _orbits(self, prefix, processed, cached):
        if self.base[: len(prefix)] == prefix:
            return super()._orbits(prefix, processed, cached)
        return len(self.group.generators), [], processed

    def _leaf(self, cell_of, prefix):
        super()._leaf(cell_of, prefix)
        if self.backjump is not None and self._certificate(tuple(cell_of)) != self.first_cert:
            self.backjump = None  # set by a leaf equal to the best one only


def refine_reference(adj, mask_at, cell_of, live, active) -> int:
    """``refine`` of commit ed35664, the plain form that the current one must match."""
    # a deque of splitters, a sorted list of split starts for every
    # splitter, fragments built by a comprehension and a bit loop per fragment
    queue = deque(active)
    queued = set(active)
    while queue and live:
        w = queue.popleft()
        if w not in queued:
            continue
        queued.discard(w)
        if w & (w - 1):
            planes: list[int] = []
            hit = 0
            while w:
                low = w & -w
                w ^= low
                carry = adj[low.bit_length() - 1]
                hit |= carry
                for j, plane in enumerate(planes):
                    if not carry:
                        break
                    planes[j] = plane ^ carry
                    carry &= plane
                if carry:
                    planes.append(carry)
        else:
            hit = adj[w.bit_length() - 1]
            planes = [hit]
        multi = len(planes) > 1
        rest = hit & live
        split = []
        while rest:
            s = cell_of[(rest & -rest).bit_length() - 1]
            cell = mask_at[s]
            rest &= ~cell
            if cell & ~hit:
                split.append(s)
            elif multi:
                for plane in planes:
                    part = cell & plane
                    if part and part != cell:
                        split.append(s)
                        break
        split.sort(reverse=True)
        for s in split:
            cell = mask_at[s]
            if multi:
                parts = [cell]
                for plane in reversed(planes):
                    part = cell & plane
                    if part and part != cell:
                        parts = [q for m in parts for q in (m & ~plane, m & plane) if q]
            else:
                parts = [cell & ~hit, cell & hit]
            skip = big = 0
            t = s
            for j, frag in enumerate(parts):
                mask_at[t] = frag
                size = frag.bit_count()
                if size == 1:
                    live &= ~frag
                if t != s:
                    for v in bits(frag):
                        cell_of[v] = t
                if size > big:
                    skip, big = j, size
                t += size
            if cell in queued:
                queued.discard(cell)
            else:
                del parts[skip]
            queue.extend(parts)
            queued.update(parts)
    return live


def relabeled_rows(adj, perm):
    """A graph's rows with each vertex v renamed ``perm[v]``."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        out[perm[v]] = permute_mask(row, perm)
    return tuple(out)


def relabel_incidence(g, perm):
    """The incidence structure with points renamed by ``perm``."""
    return inc.IncidenceStructure(g.v, (permute_mask(m, perm) for m in g.lines))


def relabeling(g, perm):
    """``relabel_incidence(g, perm)`` and φ of its incidence graph, as ``cli._relabeled``."""
    # point p goes to perm[p], line j to the index of its image in h, past h's points
    h = relabel_incidence(g, perm)
    line_of = {m: j for j, m in enumerate(h.lines)}
    return h, tuple(perm) + tuple(h.v + line_of[permute_mask(m, perm)] for m in g.lines)


def complete_graph(n):
    """K_n, from its rows."""
    full = (1 << n) - 1
    return gr.Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def pairwise_point_graph(g):
    """The point graph recounted pair by pair: two points join iff some line holds both."""
    adj = [0] * g.v
    for p in range(g.v):
        for q in range(p + 1, g.v):
            if any(m >> p & 1 and m >> q & 1 for m in g.lines):
                adj[p] |= 1 << q
                adj[q] |= 1 << p
    return gr.Graph(g.v, tuple(adj))


def pairwise_line_graph(g):
    """The line graph recounted pair by pair: two lines join iff their point masks meet."""
    adj = [0] * g.b
    for i in range(g.b):
        for j in range(i + 1, g.b):
            if g.lines[i] & g.lines[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return gr.Graph(g.b, tuple(adj))


def pairwise_verify(g):
    """``verify_pg`` of commit 62b3269: the parameters, or the reason and the witness."""
    # the pairwise line scan, then the degree checks and the alpha check on
    # the collinearity graph, then the count formulas
    if g.b == 0:
        return "no lines", None
    for i in range(g.b):
        for j in range(i + 1, g.b):
            common = g.lines[i] & g.lines[j]
            if common.bit_count() >= 2:
                p, q, *_ = bits(common)
                return "two points on two common lines", (p, q, i, j)
    line_sizes = Counter(m.bit_count() for m in g.lines)
    point_degrees = Counter(sum(m >> p & 1 for m in g.lines) for p in range(g.v))
    if len(line_sizes) != 1:
        return "line degree not uniform", dict(line_sizes)
    if len(point_degrees) != 1:
        return "point degree not uniform", dict(point_degrees)
    s, t = next(iter(line_sizes)) - 1, next(iter(point_degrees)) - 1
    collin = pairwise_point_graph(g)
    alpha = None
    for p in range(g.v):
        for j, m in enumerate(g.lines):
            if not m >> p & 1:
                c = (collin.adj[p] & m).bit_count()
                if alpha is None:
                    alpha = c
                elif c != alpha:
                    return "alpha not constant", (p, j, c, alpha)
    if alpha is None:
        return "no non-incident point-line pair; alpha undefined", None
    if alpha == 0:
        return "alpha is zero", None
    if alpha * g.v != (s + 1) * (s * t + alpha):
        return "point count formula violated", (g.v, s, t, alpha)
    if alpha * g.b != (t + 1) * (s * t + alpha):
        return "line count formula violated", (g.b, s, t, alpha)
    return s, t, alpha, g.v, g.b


@st.composite
def uniform_structures(draw):
    """Unions of up to 12 lines from random parallel classes on up to 12 points."""
    # degrees are uniform and two lines often share at most one point, so
    # the alpha checks are reached
    size = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12 // size))
    classes = draw(st.lists(st.permutations(range(size * m)), min_size=1, max_size=12 // m))
    lines = [mask_of(c[i * size : (i + 1) * size]) for c in classes for i in range(m)]
    return inc.IncidenceStructure(size * m, lines)


# The paper's coordinates: a vector of GF(3)^4 as a 4-tuple of residues
# mod 3, added and negated here with no pg552 arithmetic.  Its point is
# ``index(v)``, the little-endian base-3 number of its coordinates.
ZERO, E1, E2, E3, E4 = (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)


def tadd(a, b):
    """a + b, coordinate by coordinate mod 3."""
    return tuple((x + y) % 3 for x, y in zip(a, b))


def tneg(a):
    """-a, coordinate by coordinate mod 3."""
    return tuple(-x % 3 for x in a)


def index(v):
    """The point of the coordinates v: the first is the least significant base-3 digit."""
    return v[0] + 3 * v[1] + 9 * v[2] + 27 * v[3]


def vector(i):
    """The coordinates of point i, the inverse of ``index``."""
    return (i % 3, i // 3 % 3, i // 9 % 3, i // 27 % 3)


def symplectic_form(x, y):
    """x1 y3 - x3 y1 + x2 y4 - x4 y2 over GF(3)."""
    return (x[0] * y[2] - x[2] * y[0] + x[1] * y[3] - x[3] * y[1]) % 3


def w3():
    """The generalized quadrangle W(3), from the symplectic form and no pg552 geometry."""
    # Payne & Thas, *Finite Generalized Quadrangles*, 3.1.1: the 40 1-spaces
    # of GF(3)^4 as points, and as lines the totally isotropic 2-spaces
    points = gf3.enumerate_subspaces(1)
    lines = []
    for plane in gf3.enumerate_subspaces(2):
        vectors = [vector(i) for i in bits(plane)]
        if all(symplectic_form(x, y) == 0 for x, y in itertools.combinations(vectors, 2)):
            lines.append(mask_of(i for i, p in enumerate(points) if p & plane == p))
    return inc.IncidenceStructure(len(points), lines)


def pg23():
    """The projective plane PG(2,3), from the dot product on GF(3)^3 and no pg552 geometry."""
    # the 13 vectors whose first nonzero coordinate is 1 stand for the
    # 1-spaces as points; the line of u holds the points x with x·u = 0
    points = [x for x in itertools.product(range(3), repeat=3)
              if any(x) and next(c for c in x if c) == 1]
    lines = [mask_of(i for i, x in enumerate(points) if sum(a * b for a, b in zip(x, u)) % 3 == 0)
             for u in points]
    return inc.IncidenceStructure(len(points), lines)


def w2():
    """The generalized quadrangle W(2), from six symbols and no pg552 geometry."""
    # Sylvester's model: the 15 duads of {0..5} as points, and as lines the
    # 15 synthemes, the partitions of {0..5} into three duads
    duads = list(itertools.combinations(range(6), 2))
    lines = [mask_of(duads.index(d) for d in s) for s in itertools.combinations(duads, 3)
             if len(set().union(*s)) == 6]
    return inc.IncidenceStructure(len(duads), lines)


def net(n, k):
    """The net of order n and degree k, a pg(n-1, k-1, k-1) on the points (x, y) mod n."""
    # The columns x = c and the lines y = ax + b of the slopes a = 0..k-2.
    # Two slopes differ by a unit when k - 1 is at most the least prime
    # factor of n, so two lines meet at most once.  k = 2 gives the n×n
    # grid; k = n + 1, for n prime, the affine plane AG(2, n), whose point
    # graph is complete.
    columns = [mask_of(range(n * c, n * c + n)) for c in range(n)]
    slopes = [mask_of(n * x + (a * x + b) % n for x in range(n))
              for a in range(k - 1) for b in range(n)]
    return inc.IncidenceStructure(n * n, columns + slopes)


# the nets of orders 2..7 from the cyclic group, every degree up to the
# least prime factor plus one
NETS = [(n, k) for n, p in [(2, 2), (3, 3), (4, 2), (5, 5), (6, 2), (7, 7)] for k in range(2, p + 2)]

TEXTBOOK = [("w3", w3()), ("pg23", pg23()), ("w2", w2()),
            *((f"net({n},{k})", net(n, k)) for n, k in NETS)]


def latin_net(rows):
    """The 3-net of a Latin square: its cells, and as lines its rows, columns and symbols."""
    m = len(rows)
    lines = [0] * (3 * m)
    for r, row in enumerate(rows):
        for c, symbol in enumerate(row):
            cell = 1 << (r * m + c)
            lines[r] |= cell
            lines[m + c] |= cell
            lines[2 * m + int(symbol)] |= cell
    return inc.IncidenceStructure(m * m, lines)


# a Latin square of order 7 whose 3-net, a pg(6, 2, 2) on 49 points and 21
# lines, has the trivial automorphism group, so its canonical search can
# prune nothing: it enters 131818 nodes without a budget
RIGID_SQUARE = "5321064 1054623 0163245 6430512 2506431 3642150 4215306".split()
