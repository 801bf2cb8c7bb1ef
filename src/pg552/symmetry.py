"""Canonical labeling of colored graphs, automorphism groups, isomorphism
and self-duality testing.

The canonical-labeling engine is an individualization-refinement search:
refine an ordered partition to equitability, branch on the vertices of the
first smallest non-singleton cell in ascending vertex order, and take the
first smallest leaf certificate in that depth-first order as the canonical
form.  Whenever two explored leaves carry equal certificates, the
permutation relating them is an automorphism of the input graph; the
search checks it and adds it to a group whose stabilizer chain has the
first leaf's path as its base.  At the end the group's generators generate
the full automorphism group, whose order the chain certifies.

Without a seed, the automorphisms found so far form, at every step, a
strong generating set relative to that base (McKay 1981, *Practical graph
isomorphism*): each one fixes the first path down to the deepest node on
it whose subtree is still open, and the search has by then found
generators of the full pointwise stabilizer of the path one node deeper.
So each automorphism is placed in the chain without Schreier passes
(``PermutationGroup.add_strong``), which would only sift Schreier
generators to the identity; a seeded search adds them with the passes.

Three rules prune the tree (nauty's, McKay and Piperno 2014, section 3):

- Orbit pruning: a node skips a child in the orbit of a processed sibling
  under the pointwise stabilizer of the node's prefix in the group found so
  far (``PermutationGroup.stabilizer_gens``, from a chain whose base
  starts with the first path).  The node keeps the orbits of its
  processed children and recomputes the stabilizer and the orbits only
  when the group has gained a generator.
- Backjump: a leaf equal to the first or to the best leaf so far yields an
  automorphism that maps that leaf's subtree below the fork of their two
  paths onto the current one, so the search unwinds to the fork.
- Certificate bound: once a first leaf exists, a node is skipped when its
  equitable partition proves that every leaf below it has a certificate
  above the best one so far and unequal to the first one.

The group may be seeded with the group an isomorphic graph's own search
returned, together with a relabeling φ onto this graph (``Carried``).
The search checks φ once as an isomorphism; that search checked each of
the group's generators on its own graph, so each generator conjugated by
φ is an automorphism of this one, and no map is checked twice.  At the
first leaf an unseeded search starts from the trivial group on the first
path; a seeded one from the seed's group renamed through φ, its chain
re-based onto the first path (``PermutationGroup.with_base``), so no chain
is built again.  A verified automorphism maps a processed subtree onto
the subtree it skips, so every skipped leaf has an equal leaf earlier in
depth-first order: the pruning never skips the first smallest leaf.  The
labeling and the certificate are therefore those of the full search
whatever the seed; the generators and the work counters may differ.

A cell of an ordered partition is the mask of its vertices, which take
its positions in ascending vertex order.  The search carries each node's
partition as three position arrays (see ``refine``): the cell starting at
each position, the start of every vertex's cell, and the mask of the
vertices in non-singleton cells.  A child copies its parent's two lists,
rewrites the target cell's entries to split off the individualized vertex,
and ``refine`` updates them in place, so no node rebuilds them from a cell
list.  A discrete partition is read off as the labeling: each vertex's
cell start is its position.

Incidence structures are canonized through their 2-colored bipartite
incidence graph (points color 0, lines color 1), which yields isomorphism
testing, self-duality and automorphism groups with one engine.
"""

from __future__ import annotations

import functools

from .bits import Frozen, bits, count_planes
from .graphs import Graph, check_rows
from .groups import Perm, PermutationGroup, compose, inverse, orbit_closure
from .incidence import IncidenceStructure, dual

# ---------------------------------------------------------------------------
# colored graphs and the individualization-refinement search

NODE_BUDGET = 10_000  # nodes a canonical search may enter


class BudgetExceeded(ValueError):
    """A search that would exceed its work budget."""


class ColoredGraph(Frozen):
    _compared = _shown = ("n", "adj", "colors")

    def __init__(self, n: int, adj: tuple[int, ...], colors: tuple[int, ...]):
        if len(adj) != n or len(colors) != n:
            raise ValueError("adjacency/colors length mismatch")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "colors", colors)

    @classmethod
    def from_graph(cls, g: Graph) -> "ColoredGraph":
        return cls(g.n, g.adj, (0,) * g.n)


def colored_incidence_graph(g: IncidenceStructure) -> ColoredGraph:
    """Bipartite point/line graph of an incidence structure; points get
    vertex ids 0..v-1 and color 0, lines ids v..v+b-1 and color 1."""
    adj = tuple(pencil << g.v for pencil in g.pencils) + g.lines
    return ColoredGraph(g.v + g.b, adj, (0,) * g.v + (1,) * g.b)


def _initial_cells(cg: ColoredGraph) -> list[int]:
    by_color: dict[int, int] = {}
    for v, c in enumerate(cg.colors):
        by_color[c] = by_color.get(c, 0) | 1 << v
    return [by_color[c] for c in sorted(by_color)]


def _partition(n: int, cells) -> tuple[list[int], list[int], int]:
    """The position arrays ``(mask_at, cell_of, live)`` of the ordered
    partition of 0..n-1 into the cell masks ``cells``, listed in order."""
    mask_at = [0] * n
    cell_of = [0] * n
    live = 0
    start = 0
    for cell in cells:
        mask_at[start] = cell
        if cell & (cell - 1):
            live |= cell
        for v in bits(cell):
            cell_of[v] = start
        start += cell.bit_count()
    return mask_at, cell_of, live


def refine(adj, mask_at, cell_of, live, active) -> int:
    """Equitable refinement of an ordered partition, in place; returns the
    new ``live``.

    A cell is the mask of its vertices; its vertices take its positions in
    ascending order.  The partition is three things: ``mask_at[s]`` is the
    cell that starts at position s (0 where no cell starts), ``cell_of[v]``
    is the start of v's cell for every vertex, singletons included, and
    ``live`` masks the vertices of non-singleton cells, the only ones a
    splitter can separate.  ``_partition`` builds them from a list of cells.
    ``active`` is a list of splitter masks to propagate from.  Each splitter
    W splits every cell it touches by the count |N(v) ∩ W|; fragments
    replace their cell in place, ordered by ascending count.  Newly created
    fragments are queued (all of them if the split cell was itself queued,
    else all but one largest).  Deterministic.

    A split never moves the start of the cell it splits, so only the
    vertices of fragments that start elsewhere get a new ``cell_of``.  The
    counts are bit-sliced (``bits.count_planes``): bit j of |N(v) ∩ W| is
    bit v of ``planes[j]``, and ``adj`` must be symmetric, so adding
    ``adj[x]`` for each x in W counts every vertex at once; a one-vertex
    splitter is its one plane ``adj[x]``.  ``hit``, the OR of the planes,
    masks the vertices with a neighbour in W.  A touched cell is split only
    if some member lies outside ``hit`` (count 0) or some plane cuts it.  A
    splitter that touches no live vertex, or splits no cell it touches, does
    no further work, and an empty splitter does nothing.
    """
    queue = list(active)  # read by the index i, in order
    queued = set(queue)
    discard = queued.discard
    discard(0)  # an empty splitter splits nothing
    i = 0
    while live and i < len(queue):
        w = queue[i]
        i += 1
        if w not in queued:
            continue
        discard(w)
        if w & (w - 1):
            planes = count_planes(adj, w)
            hit = 0
            for plane in planes:
                hit |= plane
            # with one plane, that plane is ``hit`` and ``cell & ~hit`` decides
            multi = len(planes) > 1
        else:
            hit = adj[w.bit_length() - 1]
            multi = False
        rest = hit & live
        if not rest:
            continue
        split = []
        miss = ~hit
        while rest:
            s = cell_of[(rest & -rest).bit_length() - 1]
            cell = mask_at[s]
            rest ^= cell & rest
            if cell & miss:
                split.append(s)
            elif multi:
                for plane in planes:
                    part = cell & plane
                    if part and part != cell:
                        split.append(s)
                        break
        if not split:
            continue
        if len(split) > 1:
            split.sort(reverse=True)
        for s in split:
            cell = mask_at[s]
            if multi:
                parts = [cell]
                for plane in reversed(planes):  # high bit first: ascending counts
                    part = cell & plane
                    if part and part != cell:
                        finer = []
                        off = ~plane
                        for m in parts:
                            q = m & off
                            if q:
                                finer.append(q)
                            q = m & plane
                            if q:
                                finer.append(q)
                        parts = finer
            else:
                parts = [cell & miss, cell & hit]
            # the first fragment keeps the start s, and with it its cell_of
            first = parts[0]
            mask_at[s] = first
            if first & (first - 1):
                big = first.bit_count()
            else:
                big = 1
                live ^= first  # the split cell was live
            largest = first
            t = s + big
            for frag in parts[1:]:
                mask_at[t] = frag
                if frag & (frag - 1):
                    size = frag.bit_count()
                    m = frag
                    while m:
                        low = m & -m
                        cell_of[low.bit_length() - 1] = t
                        m ^= low
                    if size > big:
                        largest, big = frag, size
                else:
                    size = 1
                    live ^= frag
                    cell_of[frag.bit_length() - 1] = t
                t += size
            if cell in queued:
                discard(cell)
            else:
                parts.remove(largest)  # the fragments are disjoint masks
            queue += parts
            queued.update(parts)
    return live


def _target_start(mask_at, cell_of, live) -> int:
    """Start of the first smallest non-singleton cell; ``live`` is not 0."""
    best = None
    while live:
        s = cell_of[(live & -live).bit_length() - 1]
        cell = mask_at[s]
        live &= ~cell
        key = (cell.bit_count(), s)
        if best is None or key < best:
            best = key
    return best[1]


class CanonicalForm(Frozen):
    """Canonical labeling (vertex -> canonical position), a certificate that
    two colored graphs share iff they are isomorphic, and the automorphism
    group with its generators and stabilizer chain.

    The work counters are deterministic: ``nodes`` search-tree nodes were
    entered (leaves and pruned subtrees included), ``leaves`` of them were
    discrete and cost a certificate, and ``pruned`` subtrees were skipped
    because every leaf below them was provably worse.  Equality and hashing
    read the labeling and the certificate alone."""

    _compared = ("labeling", "certificate")
    _shown = ("labeling", "certificate", "group", "nodes", "leaves", "pruned")

    def __init__(self, labeling: Perm, certificate: tuple, group: PermutationGroup,
                 nodes: int = 0, leaves: int = 0, pruned: int = 0):
        object.__setattr__(self, "labeling", labeling)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "pruned", pruned)


class Carried(Frozen):
    """A seed for the search of a graph isomorphic to ``source``: vertex x
    of ``source`` is vertex ``phi[x]`` of the graph searched, and ``group``
    is the automorphism group that ``source``'s own search returned, each
    of whose generators that search checked on ``source`` when it recorded
    it.  The search checks ``phi`` as an isomorphism from ``source`` onto
    its graph, so every map it carries through ``phi`` is an automorphism
    there."""

    _compared = _shown = ("source", "group", "phi")

    def __init__(self, source: ColoredGraph, group: PermutationGroup, phi: Perm):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "phi", phi)


class _Search:
    """The search tree of ``cg``, pruned by the three rules of the module
    docstring; its group starts at the first leaf from ``known``, a
    ``Carried`` group whose relabeling it checks first, or trivial."""

    def __init__(self, cg: ColoredGraph, known: Carried | None = None):
        if cg.n > 256:  # the stabilizer chain's byte strings hold 256 points
            raise ValueError(f"graph has {cg.n} vertices; at most 256 are supported")
        if known is None:
            check_rows(cg.adj)
        else:  # a carried graph's rows are checked through φ
            for v, row in enumerate(cg.adj):
                if row >> cg.n:
                    raise ValueError(f"vertex {v}: neighbour out of range")
        self.cg = cg
        self.adj = cg.adj
        self.nbrs = []
        for row in cg.adj:
            members = []
            while row:
                low = row & -row
                members.append(low.bit_length() - 1)
                row ^= low
            self.nbrs.append(tuple(members))
        self.n = cg.n
        self.colors = cg.colors
        if known is not None:
            if known.source.n != self.n or known.group.degree != self.n:
                raise ValueError(f"carried group acts on {known.group.degree} points "
                                 f"of a {known.source.n}-vertex graph, not {self.n}")
            fault = ("is not a permutation of the vertices"
                     if sorted(known.phi) != list(range(self.n))
                     else self._fault(inverse(known.phi), known.source))
            if fault:
                raise ValueError(f"relabeling {fault}")
        self.seed = known
        self.first_cert = None
        self.first_lab: Perm | None = None
        self.base: list[int] = []
        self.group: PermutationGroup | None = None
        self.best_cert = None
        self.best_lab: Perm | None = None
        self.best_path: list[int] = []
        self.backjump: int | None = None
        self.nodes = self.leaves = self.pruned = 0

    def run(self) -> CanonicalForm:
        initial = _initial_cells(self.cg)
        mask_at, cell_of, live = _partition(self.n, initial)
        live = refine(self.adj, mask_at, cell_of, live, initial)
        self._node(mask_at, cell_of, live, [])
        return CanonicalForm(
            labeling=self.best_lab,
            certificate=self.best_cert,
            group=self.group,
            nodes=self.nodes,
            leaves=self.leaves,
            pruned=self.pruned,
        )

    def _node(self, mask_at, cell_of, live, prefix) -> None:
        """Search below the equitable partition ``(mask_at, cell_of, live)``
        (see ``refine``), reached by individualizing ``prefix``."""
        self.nodes += 1
        if self.nodes > NODE_BUDGET:
            raise BudgetExceeded(f"canonical search gave up at node {self.nodes}, "
                                 f"past its budget of {NODE_BUDGET}")
        if not live:
            self._leaf(cell_of, prefix)
            return
        if self.first_cert is not None and self._worse_below(mask_at, cell_of):
            self.pruned += 1
            return
        s = _target_start(mask_at, cell_of, live)
        target = mask_at[s]
        k = len(prefix)
        processed = 0
        orbits = None
        todo = target
        while todo:
            bit = todo & -todo
            todo ^= bit
            v = bit.bit_length() - 1
            if processed:  # so the first leaf, and the group, exist
                orbits = self._orbits(prefix, processed, orbits)
                if orbits[2] & bit:
                    continue
            # individualize v: {v} keeps the start s, the rest starts at s + 1
            rest = target ^ bit
            child_at = mask_at.copy()
            child_at[s] = bit
            child_at[s + 1] = rest
            child_of = cell_of.copy()
            m = rest
            while m:
                low = m & -m
                child_of[low.bit_length() - 1] = s + 1
                m ^= low
            # a two-vertex target leaves two singletons
            child_live = live & ~bit if rest & (rest - 1) else live & ~target
            child_live = refine(self.adj, child_at, child_of, child_live, [bit])
            self._node(child_at, child_of, child_live, prefix + [v])
            processed |= bit
            if self.backjump is not None:
                if self.backjump < k:
                    return  # keep unwinding
                self.backjump = None

    def _orbits(self, prefix, processed: int, cached) -> tuple[int, list[bytes], int]:
        """The orbits of ``processed`` under the pointwise stabilizer of
        ``prefix`` in the group found so far, as ``(generator count, strong
        generators of that stabilizer as identity-padded byte strings, mask
        of the orbits)``.  ``cached`` is the node's previous result, or
        None: while the group has gained no generator since, the orbits of
        the vertices processed after it are added to its mask; otherwise
        the stabilizer and the mask are computed afresh."""
        count = len(self.group.generators)
        if cached is None or cached[0] != count:
            gens = self.group.stabilizer_gens(prefix)
            return count, gens, orbit_closure(processed, gens)
        _, gens, mask = cached
        return count, gens, mask | orbit_closure(processed & ~mask, gens)

    def _worse_below(self, mask_at, cell_of) -> bool:
        """Whether every leaf below the equitable partition ``(mask_at,
        cell_of)`` has a certificate above the best one and unequal to the
        first one, so that none of those leaves could change the search.

        A leaf below puts a vertex of cell C at each position of C's range,
        and the row there has exactly k(C, D) bits in the range of each
        cell D, the neighbour count that equitability makes the same for
        all of C.  The smallest such row, ``lo``, takes the lowest k(C, D)
        positions of each range.  If the best certificate's rows equal
        ``lo`` up to a position where ``lo`` exceeds its row, every leaf
        below is above the best: where a leaf first leaves the best
        certificate's rows, its row is at least ``lo`` and so above.  If
        some row of the first certificate has other counts than k(C, D),
        no leaf below equals the first certificate.  A cell is keyed by its
        start, which ``cell_of`` gives for every vertex."""

        def rows():
            """The counts k(C, .) and the row ``lo`` at each position."""
            s = 0
            while s < self.n:
                cell = mask_at[s]
                k: dict[int, int] = {}
                for u in self.nbrs[(cell & -cell).bit_length() - 1]:
                    d = cell_of[u]
                    k[d] = k.get(d, 0) + 1
                lo = 0
                for d, c in k.items():
                    lo |= (1 << c) - 1 << d
                size = cell.bit_count()
                for _ in range(size):
                    yield k, lo
                s += size

        def fits(row: int, k: dict[int, int]) -> bool:
            return row.bit_count() == sum(k.values()) and all(
                (row >> d & (1 << mask_at[d].bit_count()) - 1).bit_count() == c
                for d, c in k.items()
            )

        best = self.best_cert[1]
        for p, (_, lo) in enumerate(rows()):
            if lo != best[p]:
                break
        else:
            return False  # a leaf below may have the best certificate
        if lo < best[p]:
            return False
        first = self.first_cert[1]
        return not all(fits(first[q], k) for q, (k, _) in enumerate(rows()))

    def _leaf(self, cell_of, prefix) -> None:
        """A discrete partition: each vertex's cell start is its position."""
        self.leaves += 1
        lab = tuple(cell_of)
        cert = self._certificate(lab)
        if self.first_cert is None:
            self.first_cert, self.first_lab = cert, lab
            self.best_cert, self.best_lab = cert, lab
            self.base = self.best_path = list(prefix)
            if self.seed is None:
                self.group = PermutationGroup(self.n, base=prefix)
            else:
                self.group = self.seed.group.with_base(tuple(prefix), self.seed.phi)
            return
        if cert == self.first_cert:
            seen_lab, seen_path = self.first_lab, self.base
        elif cert == self.best_cert:
            seen_lab, seen_path = self.best_lab, self.best_path
        else:
            if cert < self.best_cert:
                self.best_cert, self.best_lab, self.best_path = cert, lab, list(prefix)
            return
        self._record_automorphism(seen_lab, lab)
        # The new automorphism fixes the common prefix of this leaf's path
        # and the earlier leaf's pointwise, and maps the earlier leaf's
        # subtree below their fork, left before this one, onto this leaf's
        # subtree: every leaf certificate left below the fork has been seen.
        # So unwind to the fork and continue with its next sibling.
        self.backjump = _fork(seen_path, prefix)

    def _certificate(self, lab: Perm) -> tuple:
        bit = [1 << pos for pos in lab]
        rows = [0] * self.n
        cols = [0] * self.n
        colors, nbrs = self.colors, self.nbrs
        for v, pos in enumerate(lab):
            cols[pos] = colors[v]
            rows[pos] = sum(map(bit.__getitem__, nbrs[v]))  # distinct bits
        return (tuple(cols), tuple(rows))

    def _record_automorphism(self, lab_a: Perm, lab_b: Perm) -> None:
        gamma = compose(lab_a, inverse(lab_b))
        fault = self._fault(gamma)  # a wrong map would poison the pruning
        if fault:
            raise AssertionError(f"discovered map {fault}")
        if self.seed is None:
            self.group.add_strong(gamma)
        else:
            self.group.add(gamma)

    def _fault(self, gamma: Perm, onto: ColoredGraph | None = None) -> str | None:
        """Why the permutation ``gamma`` is no automorphism, or None; with
        ``onto``, why it is no isomorphism from the graph onto ``onto``.
        It is one exactly when the graph's colours and rows relabeled by
        ``gamma``, its certificate, are the target's."""
        target = self.cg if onto is None else onto
        colors, rows = self._certificate(gamma)
        if colors != target.colors:
            return "does not preserve colors"
        if rows != target.adj:
            return "is not an automorphism" if onto is None else "is not an isomorphism"
        return None


def _fork(path_a, path_b) -> int:
    """The length of the common prefix of two paths."""
    fork = 0
    for a, b in zip(path_a, path_b):
        if a != b:
            break
        fork += 1
    return fork


def canonical_form(cg: ColoredGraph, known: Carried | None = None) -> CanonicalForm:
    """Canonical form of a colored graph on at most 256 vertices (the
    degree the stabilizer chain's byte-string permutations can hold).
    Rows the search cannot decide, with a neighbour out of range or an edge
    without its reverse, raise ``ValueError`` before any refinement.

    ``known``, if given, seeds the pruning group with the ``Carried`` group
    of an isomorphic graph: its relabeling is checked first as an
    isomorphism onto ``cg``, and its stabilizer chain is re-based through
    that relabeling rather than rebuilt.  A relabeling that fails its check
    raises ``ValueError``.  The labeling and the certificate do not depend
    on ``known``; the generators and the counters may.  A search that would
    enter more than ``NODE_BUDGET`` nodes raises ``BudgetExceeded``."""
    return _Search(cg, known).run()


# ---------------------------------------------------------------------------
# high-level operations on graphs and incidence structures


@functools.lru_cache(maxsize=8)
def incidence_form(g: IncidenceStructure) -> CanonicalForm:
    """The canonical form of g's colored incidence graph (points 0..v-1,
    line j as vertex v + j): its certificate is equal for two incidence
    structures iff they are isomorphic, and its group is their automorphism
    group with the search's stabilizer chain.  Isomorphism, self-duality
    and automorphism queries about the same few structures share one
    search, so the group must not be changed; eight entries hold the five
    structures a report asks about (both geometries, their duals and the
    second geometry on the van Lint-Schrijver point graph)."""
    return canonical_form(colored_incidence_graph(g))


def aut_graph(g: Graph) -> PermutationGroup:
    """Automorphism group of an uncolored graph."""
    return canonical_form(ColoredGraph.from_graph(g)).group


def aut_incidence(g: IncidenceStructure, on: str = "points") -> PermutationGroup:
    """Automorphism group of an incidence structure.

    Computed on the 2-colored incidence graph, whose generators the search
    has checked, and restricted to the point class; ``on="lines"`` returns
    the action on line indices instead (line j is vertex v + j).  The
    action on the points is faithful, since no two lines have the same
    points, so it has the incidence group's order and its chain is re-based
    with that order known (``PermutationGroup.restricted``).
    """
    group = incidence_form(g).group
    if on == "points":
        return group.restricted(g.v)
    if on == "lines":
        return PermutationGroup(g.b, [tuple(x - g.v for x in p[g.v:]) for p in group.generators])
    raise ValueError(f"unknown action {on!r}")


def is_isomorphic(g1: IncidenceStructure, g2: IncidenceStructure) -> bool:
    """Isomorphism test for incidence structures via certificates of their
    colored incidence graphs."""
    if g1.v != g2.v or g1.b != g2.b:
        return False
    return incidence_form(g1).certificate == incidence_form(g2).certificate


def is_self_dual(g: IncidenceStructure) -> tuple[bool, Perm | None]:
    """Whether g is isomorphic to its dual; on success also returns a
    witness isomorphism from the incidence graph of g to that of dual(g),
    checked by the search's own check of every map it finds (``_fault``)."""
    d = dual(g)
    form, dual_form = incidence_form(g), incidence_form(d)
    if form.certificate != dual_form.certificate:
        return False, None
    witness = compose(form.labeling, inverse(dual_form.labeling))
    cd = colored_incidence_graph(d)
    fault = _Search(colored_incidence_graph(g))._fault(witness, onto=cd)
    if fault:
        raise AssertionError(f"self-duality witness {fault}")
    return True, witness
