"""Graph type, SRG certification, local configurations."""

import contextlib
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (E1, E2, E3, E4, complete_graph, index, pairwise_point_graph, relabel_incidence,
                        tadd, tneg)

from pg552 import graphs as gr
from pg552 import incidence as inc
from pg552.bits import bits, mask_of


def cycle(n):
    return gr.Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def induced_subgraph(g, vertices):
    """Induced subgraph with vertices relabelled 0.. in the given order."""
    verts = list(vertices)
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in bits(g.adj[v]):
            j = pos.get(u)
            if j is not None:
                adj[i] |= 1 << j
    return gr.Graph(len(verts), tuple(adj))


def test_graph_rejects_asymmetric():
    with pytest.raises(ValueError):
        gr.Graph(2, (0b10, 0b00))


def first_asymmetric_edge(adj):
    """The message of the symmetry check as a loop over every neighbour
    entry: the first edge (i, j), i ascending and then j, without (j, i)."""
    for i, row in enumerate(adj):
        for j in bits(row):
            if not adj[j] >> i & 1:
                return f"asymmetric edge ({i}, {j})"
    return None


@st.composite
def loopless_rows(draw):
    """Adjacency rows with no self-loop, symmetric about half of the time."""
    n = draw(st.integers(0, 40))
    rows = [draw(st.integers(0, (1 << n) - 1)) & ~(1 << i) for i in range(n)]
    if draw(st.booleans()):
        rows = [row | sum(1 << j for j in range(n) if rows[j] >> i & 1)
                for i, row in enumerate(rows)]
        for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
            i, j = draw(st.permutations(range(n)))[:2]
            rows[i] ^= 1 << j
    return n, tuple(rows)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(loopless_rows())
def test_symmetry_check_names_the_first_asymmetric_edge(case):
    n, adj = case
    want = first_asymmetric_edge(adj)
    if want is None:
        assert gr.Graph(n, adj).adj == adj
    else:
        with pytest.raises(ValueError) as e:
            gr.Graph(n, adj)
        assert str(e.value) == want


def loop_check(n, adj, loops=False):
    """The message of Graph's checks as plain loops: range and self-loop
    (unless ``loops``) row by row, then the first asymmetric edge; None for
    a graph."""
    full = (1 << n) - 1
    for i, row in enumerate(adj):
        if row & ~full:
            return f"vertex {i}: neighbour out of range"
        if not loops and row >> i & 1:
            return f"vertex {i}: self-loop"
    return first_asymmetric_edge(adj)


def faulty_rows(rng, n):
    """A random simple graph on n vertices with up to three faults: a
    negative row, a bit at or above n, a self-loop or a one-sided edge."""
    adj = [0] * n
    for i in range(n):
        below = rng.getrandbits(i) if i else 0
        adj[i] |= below
        for j in bits(below):
            adj[j] |= 1 << i
    for _ in range(rng.randint(0, 3) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        fault = rng.choice(["negative", "high", "loop", "one-sided"])
        if fault == "negative":
            adj[i] = -1 - adj[i]
        elif fault == "high":
            adj[i] |= 1 << n + rng.randrange(3)
        elif fault == "loop":
            adj[i] |= 1 << i
        elif i != j:
            adj[i] ^= 1 << j
    return tuple(adj)


@contextlib.contextmanager
def packed_rows_only(monkeypatch):
    """A graph must pass on its packed rows alone: the loop that names an
    asymmetric edge, which only failing rows reach, would call ``bits``."""
    with monkeypatch.context() as m:
        m.setattr(gr, "bits", None)
        yield


# up to 16 vertices the rows are shifted into a 16-bit side; above that they
# are joined as bytes into the side of the next power of two: every size to
# 17 many times, and the sizes on each side's edges up to 257 a few times
PACKED_SIZES = [(n, 300) for n in range(18)] + [
    (n, 6) for n in (31, 32, 33, 63, 64, 65, 127, 128, 129, 255, 256, 257)
]


def test_packed_check_agrees_with_the_loops(monkeypatch):
    rng = random.Random(0)
    seen = set()
    for n, cases in PACKED_SIZES:
        for _ in range(cases):
            adj = faulty_rows(rng, n)
            want = loop_check(n, adj)
            seen.add(want and re.sub(r"\d+", "#", want))
            if want is None:
                with packed_rows_only(monkeypatch):
                    assert gr.Graph(n, adj).adj == adj
            else:
                with pytest.raises(ValueError) as e:
                    gr.Graph(n, adj)
                assert str(e.value) == want
    assert seen == {
        None, "vertex #: neighbour out of range", "vertex #: self-loop", "asymmetric edge (#, #)"
    }


def test_packed_check_with_loops_agrees_with_the_loops(monkeypatch):
    # the canonical search's rows may have self-loops: a self-loop is no
    # fault, and the first fault is a row out of range or else the first
    # asymmetric edge
    rng = random.Random(1)
    seen = set()
    for n, cases in PACKED_SIZES:
        for _ in range(cases):
            adj = faulty_rows(rng, n)
            want = loop_check(n, adj, loops=True)
            if want is None:
                with packed_rows_only(monkeypatch):
                    assert gr.check_rows(adj) is None
                seen.add(any(row >> i & 1 for i, row in enumerate(adj)) and "self-loop")
                continue
            seen.add(re.sub(r"\d+", "#", want))
            with pytest.raises(ValueError) as e:
                gr.check_rows(adj)
            assert str(e.value) == want
    assert seen == {False, "self-loop", "vertex #: neighbour out of range", "asymmetric edge (#, #)"}


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        gr.Graph.from_edges(2, [(0, 0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        gr.Graph(2, (0b100, 0b001))


def test_graph_rejects_a_wrong_row_count():
    with pytest.raises(ValueError, match="adjacency row count != n"):
        gr.Graph(2, (0,))


def test_srg_c5():
    p = gr.srg_check(cycle(5))
    assert (p.v, p.k, p.lam, p.mu) == (5, 2, 0, 1)
    assert p.feasibility_identity()


def test_srg_petersen():
    # Kneser graph K(5,2): vertices are 2-subsets of {0..4}, disjoint ones adjacent
    pairs = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i, a in enumerate(pairs)
        for j, b in enumerate(pairs)
        if i < j and not set(a) & set(b)
    ]
    p = gr.srg_check(gr.Graph.from_edges(10, edges))
    assert (p.v, p.k, p.lam, p.mu) == (10, 3, 0, 1)


def test_srg_complete_graph_flag():
    p = gr.srg_check(complete_graph(4))
    assert (p.v, p.k, p.lam, p.mu) == (4, 3, 2, 0)
    assert p.complete and not p.empty


def pair_loop_params(g):
    """The parameters of a strongly regular graph g from the common
    neighbours of every pair, as ``srg_check`` counts them for every graph
    that is not complete."""
    counts = {True: set(), False: set()}
    for x, y in itertools.combinations(range(g.n), 2):
        counts[bool(g.adj[x] >> y & 1)].add((g.adj[x] & g.adj[y]).bit_count())
    (lam,) = counts[True] or {0}
    (mu,) = counts[False] or {0}
    return gr.SrgParams(g.n, g.adj[0].bit_count(), lam, mu,
                        complete=not counts[False], empty=not counts[True])


@pytest.mark.parametrize("n", range(2, 7))
def test_srg_complete_graphs_match_the_pair_loop(n):
    g = complete_graph(n)
    assert gr.srg_check(g) == pair_loop_params(g)


def test_srg_empty_graph_flag():
    p = gr.srg_check(gr.Graph(3, (0, 0, 0)))
    assert (p.v, p.k, p.lam, p.mu) == (3, 0, 0, 0)
    assert p.empty and not p.complete


def test_srg_violation_not_regular():
    path = gr.Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(gr.SrgViolation) as e:
        gr.srg_check(path)
    assert e.value.reason == "not regular"


def test_srg_violation_mu_with_witness():
    with pytest.raises(gr.SrgViolation) as e:
        gr.srg_check(cycle(6))
    assert e.value.reason == "mu not constant"
    assert e.value.pair == (0, 3)
    assert e.value.count == 0


def rook_graph(rows, cols):
    """The rows × cols grid, two cells adjacent when they share a row or a
    column: srg(m², 2m − 2, m − 2, 2) when rows = cols = m."""
    return gr.Graph.from_edges(rows * cols, [
        (a, b) for a, b in itertools.combinations(range(rows * cols), 2)
        if a // cols == b // cols or a % cols == b % cols
    ])


@st.composite
def pair_count_graphs(draw):
    """Random graphs, and grids with at most two pairs flipped, so that a
    violation may come late in x-major order or not at all."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 12))
        pairs = list(itertools.combinations(range(n), 2))
        return gr.Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)))
    g = rook_graph(draw(st.integers(1, 6)), draw(st.integers(2, 6)))
    adj = list(g.adj)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
        adj[a] ^= 1 << b
        adj[b] ^= 1 << a
    return gr.Graph(g.n, tuple(adj))


def counts_or_violation(count, g):
    try:
        return count(g)
    except gr.SrgViolation as e:
        return e.reason, e.pair, e.count


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pair_count_graphs())
def test_row_counts_equal_the_pair_loop(g):
    assert counts_or_violation(gr._row_counts, g) == counts_or_violation(gr._pair_counts, g)


@pytest.mark.parametrize("m", [19, 24])
def test_srg_check_counts_large_sparse_graphs_by_rows(m, monkeypatch):
    # n = m² is above 10k = 20(m − 1), so srg_check counts by rows.  Trading
    # the edges ab (a row) and cd (a column) for ac and bd keeps the graph
    # regular; srg_check must then name the pair loop's first violation.
    g = rook_graph(m, m)
    a, b, c, d = m + 2, m + 3, 5 * m + 4, 6 * m + 4
    adj = list(g.adj)
    for u, v in [(a, b), (c, d), (a, c), (b, d)]:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    flipped = gr.Graph(g.n, tuple(adj))
    want = counts_or_violation(gr._pair_counts, flipped)
    assert want[0] == "mu not constant"
    monkeypatch.delattr(gr, "_pair_counts")
    assert gr.srg_check(g) == gr.SrgParams(m * m, 2 * m - 2, m - 2, 2)
    assert counts_or_violation(gr.srg_check, flipped) == want


def test_common_neighbors_in_point_graph(point_graph_vls):
    # lambda = 9 for collinear pairs, mu = 12 otherwise
    g = point_graph_vls
    assert (g.adj[0] & g.adj[index(E1)]).bit_count() == 9
    non_neighbor = next(y for y in range(1, 81) if not g.adj[0] >> y & 1)
    assert (g.adj[0] & g.adj[non_neighbor]).bit_count() == 12


def test_induced_subgraph():
    g = cycle(5)
    sub = induced_subgraph(g, [0, 1, 2])
    assert sub.edges() == [(0, 1), (1, 2)]


# --- local configurations -------------------------------------------------

def _expected_abz():
    a = {index(v) for v in (E2, E3, E4, (2, 2, 2, 2))}
    b = {index(tadd(E1, tneg(e))) for e in (E2, E3, E4)}
    b.add(index(tadd(tneg(E1), tadd(E2, tadd(E3, E4)))))
    return a, b, index(tneg(E1))


def isomorphic(g1, g2):
    """networkx's isomorphism test on two ``Graph``s."""
    import networkx as nx

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    return nx.is_isomorphic(to_nx(g1), to_nx(g2))


def two_k4_plus_isolated():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)]
    return gr.Graph.from_edges(9, edges)


def k4_plus_star_plus_isolated():
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(4, 5), (4, 6), (4, 7)]
    return gr.Graph.from_edges(9, edges)


def test_local_configuration_vls(vls, point_graph_vls):
    cfg = gr.local_configuration(vls, 0, index(E1))
    a, b, z = _expected_abz()
    assert set(bits(cfg.a_mask)) == a
    assert set(bits(cfg.b_mask)) == b
    assert cfg.z == z
    assert cfg.induced.edge_count() == 12
    assert isomorphic(cfg.induced, two_k4_plus_isolated())
    # A, B and z partition the common neighbourhood
    commons = point_graph_vls.adj[0] & point_graph_vls.adj[index(E1)]
    assert cfg.a_mask | cfg.b_mask | (1 << cfg.z) == commons
    assert cfg.a_mask.bit_count() == cfg.b_mask.bit_count() == 4


def test_local_configuration_new(new):
    cfg = gr.local_configuration(new, 0, index(E1))
    a, b, z = _expected_abz()
    assert set(bits(cfg.a_mask)) == a
    assert set(bits(cfg.b_mask)) == b
    assert cfg.z == z
    assert cfg.induced.edge_count() == 9
    assert isomorphic(cfg.induced, k4_plus_star_plus_isolated())


def test_local_configurations_not_isomorphic(vls, new):
    c1 = gr.local_configuration(vls, 0, 1)
    c2 = gr.local_configuration(new, 0, 1)
    assert not isomorphic(c1.induced, c2.induced)


def test_local_configuration_rejects_non_collinear(vls):
    from pg552.incidence import point_graph

    pg = point_graph(vls)
    y = next(y for y in range(1, 81) if not pg.adj[0] >> y & 1)
    with pytest.raises(ValueError):
        gr.local_configuration(vls, 0, y)


@pytest.mark.parametrize("x, y", [(-1, 1), (0, -1), (81, 1), (0, 81)])
def test_local_configuration_rejects_out_of_range(vls, x, y):
    with pytest.raises(ValueError, match="out of range 0..80"):
        gr.local_configuration(vls, x, y)


def test_local_edge_list_matches_induced(vls):
    cfg = gr.local_configuration(vls, 0, 1)
    assert len(cfg.edge_list) == 12
    verts = set(cfg.vertices)
    for u, v in cfg.edge_list:
        assert u in verts and v in verts


def test_local_configuration_matches_full_point_graph(vls, new):
    # every collinear pair of both geometries, against the induced subgraph
    # of the whole collinearity graph
    for g in (vls, new):
        pg = pairwise_point_graph(g)
        for x in range(g.v):
            for y in bits(pg.adj[x]):
                cfg = gr.local_configuration(g, x, y)
                commons = pg.adj[x] & pg.adj[y]
                assert cfg.a_mask | cfg.b_mask | (1 << cfg.z) == commons
                assert not pg.adj[cfg.z] & commons
                assert cfg.induced == induced_subgraph(pg, cfg.vertices)


def test_local_configuration_joins_a_and_b_as_the_reference_does():
    # neither geometry has an edge between A and B, which random small
    # structures do; each pair whose common neighbours hold one isolated
    # point outside A is compared with the induced subgraph
    rng = random.Random(0)
    joined = 0
    for _ in range(300):
        v = rng.randint(4, 12)
        lines = [rng.sample(range(v), rng.randint(2, 4)) for _ in range(rng.randint(2, 12))]
        g = inc.IncidenceStructure(v, map(mask_of, lines))
        pg = pairwise_point_graph(g)
        for x in range(v):
            for y in bits(pg.adj[x]):
                common_line = g.pencils[x] & g.pencils[y]
                if common_line.bit_count() != 1:
                    continue
                commons = pg.adj[x] & pg.adj[y]
                a = g.lines[common_line.bit_length() - 1] & commons
                rest = list(bits(commons & ~a))
                isolated = [p for p in rest if not pg.adj[p] & commons]
                if len(isolated) != 1:
                    with pytest.raises(ValueError, match="unique isolated"):
                        gr.local_configuration(g, x, y)
                    continue
                verts = (*bits(a), *(p for p in rest if p not in isolated), *isolated)
                cfg = gr.local_configuration(g, x, y)
                want = induced_subgraph(pg, verts)
                assert (cfg.vertices, cfg.induced.adj) == (verts, want.adj)
                joined += any(pg.adj[p] & a for p in rest)
    assert joined >= 20


def relabeled(g, seed):
    perm = list(range(g.v))
    random.Random(seed).shuffle(perm)
    return relabel_incidence(g, perm)


def test_local_configuration_lists_a_then_b_then_z(vls, new):
    # on all 2430 ordered collinear pairs of each geometry and of a relabeled
    # copy of each, the vertices are A and then B in increasing order, then
    # z, and the induced rows are those of the induced subgraph of the whole
    # collinearity graph
    for g in (vls, new, relabeled(vls, 1), relabeled(new, 2)):
        pg = pairwise_point_graph(g)
        pairs = [(x, y) for x in range(g.v) for y in bits(pg.adj[x])]
        assert len(pairs) == 2430
        for x, y in pairs:
            cfg = gr.local_configuration(g, x, y)
            verts = (*bits(cfg.a_mask), *bits(cfg.b_mask), cfg.z)
            want = induced_subgraph(pg, verts)
            assert (cfg.vertices, cfg.induced.adj) == (verts, want.adj)
