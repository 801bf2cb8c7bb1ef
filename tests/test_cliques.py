"""Maximal clique enumeration and the line-graph clique classification."""

import itertools
import random

import pytest

from pg552 import cliques as cl
from pg552 import construction as con
from pg552 import graphs as gr
from pg552 import incidence as inc
from pg552.bits import bits, mask_of, permute_mask


def complete_graph(n):
    full = (1 << n) - 1
    return gr.Graph(n, tuple(full ^ (1 << i) for i in range(n)))


def brute_maximal_cliques(g):
    """Oracle: test every vertex subset for being a maximal clique.  The
    empty set is one only in the graph with no vertices."""
    found = []
    for r in range(g.n + 1):
        for verts in itertools.combinations(range(g.n), r):
            if all(g.adj[u] >> v & 1 for u, v in itertools.combinations(verts, 2)):
                m = mask_of(verts)
                others = (v for v in range(g.n) if not m >> v & 1)
                if not any(all(g.adj[u] >> v & 1 for u in verts) for v in others):
                    found.append(m)
    return sorted(found)


def test_max_cliques_k4():
    rep = cl.max_cliques(complete_graph(4))
    assert rep.size_histogram == {4: 1}


def test_max_cliques_c5():
    c5 = gr.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    rep = cl.max_cliques(c5)
    assert rep.size_histogram == {2: 5}


def test_max_cliques_beyond_recursion_limit():
    # one clique of 1100 vertices: a search that recursed once per clique
    # vertex would exceed Python's 1000-frame limit
    rep = cl.max_cliques(complete_graph(1100))
    assert rep.all_cliques == ((1 << 1100) - 1,)


def test_max_cliques_against_brute_force():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randrange(2, 9)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = gr.Graph.from_edges(n, edges)
        rep = cl.max_cliques(g)
        assert list(rep.all_cliques) == brute_maximal_cliques(g)


def complete_multipartite(parts, size):
    """K_{size×parts}: a vertex sees every vertex outside its own part."""
    n = parts * size
    full = (1 << n) - 1
    return gr.Graph(n, tuple(full ^ ((1 << size) - 1) << size * (i // size) for i in range(n)))


def test_small_node_closures_against_brute_force():
    # sparse to dense graphs, so that nodes of one and two candidates meet
    # a non-empty X that sees one, both or neither of them
    rng = random.Random(2006)
    for n in range(13):
        for tenths in range(1, 10):
            for _ in range(2):
                edges = [
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, n)
                    if rng.random() < tenths / 10
                ]
                g = gr.Graph.from_edges(n, edges)
                assert list(cl.max_cliques(g).all_cliques) == brute_maximal_cliques(g)
    # K4 on 1..4 and a hub 0 on its edge 12: the root pivots on the hub, so
    # the branch on 4 meets the adjacent candidates 1, 2 with 3 in X, which
    # random graphs this small reach about once in a thousand
    hub = [(0, 1), (0, 2), (0, 5), (0, 6)] + list(itertools.combinations(range(1, 5), 2))
    g = gr.Graph.from_edges(7, hub)
    assert list(cl.max_cliques(g).all_cliques) == brute_maximal_cliques(g)
    for k in range(1, 6):
        g = complete_multipartite(k, 3)
        rep = cl.max_cliques(g)
        assert list(rep.all_cliques) == brute_maximal_cliques(g)
        assert rep.size_histogram == {k: 3**k}


def test_max_cliques_agrees_with_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1973)
    for n in range(20, 61, 10):
        for density in (0.2, 0.5, 0.7):
            theirs = nx.gnp_random_graph(n, density, seed=rng.randrange(1 << 30))
            g = gr.Graph.from_edges(n, list(theirs.edges()))
            found = sorted(mask_of(c) for c in nx.find_cliques(theirs))
            assert list(cl.max_cliques(g).all_cliques) == found


def test_census_point_graphs(point_graph_vls, point_graph_new):
    rep = cl.max_cliques(point_graph_vls)
    assert rep.size_histogram == {3: 405, 6: 162}  # regression histogram
    assert len(rep.cliques_of_size_6) == 162
    rep_new = cl.max_cliques(point_graph_new)
    assert rep_new.size_histogram == {3: 405, 4: 324, 6: 108}
    assert len(rep_new.cliques_of_size_6) == 108
    # lines are maximum cliques: nothing bigger than 6 in either histogram
    assert max(rep.size_histogram) == 6
    assert max(rep_new.size_histogram) == 6


def test_equal_graphs_share_one_read_only_census(point_graph_vls):
    g = point_graph_vls
    rep = cl.max_cliques(g)
    assert cl.max_cliques(gr.Graph(g.n, g.adj)) is rep
    with pytest.raises(TypeError):
        rep.size_histogram[6] = 0
    assert rep.size_histogram == {3: 405, 6: 162}


def test_census_invariant_under_relabeling(point_graph_vls):
    rng = random.Random(5)
    perm = list(range(81))
    rng.shuffle(perm)
    adj = [0] * 81
    for i in range(81):
        adj[perm[i]] = permute_mask(point_graph_vls.adj[i], tuple(perm))
    relabeled = gr.Graph(81, tuple(adj))
    assert (
        cl.max_cliques(relabeled).size_histogram
        == cl.max_cliques(point_graph_vls).size_histogram
    )


def test_classification(vls, new, line_graph_vls, line_graph_new):
    rep = cl.max_cliques(line_graph_vls)
    stars, non_stars = cl.classify_line_cliques(vls, rep.cliques_of_size_6)
    assert (len(stars), len(non_stars)) == (81, 81)
    rep_new = cl.max_cliques(line_graph_new)
    stars_new, non_stars_new = cl.classify_line_cliques(new, rep_new.cliques_of_size_6)
    assert (len(stars_new), len(non_stars_new)) == (81, 27)
    # each point contributes exactly one star: its pencil
    assert set(vls.pencils) == set(stars)
    assert set(new.pencils) == set(stars_new)


@pytest.mark.parametrize("name, maximal, six", [("vls", 567, 162), ("new", 837, 108)])
def test_clique_census_agrees_with_networkx(request, name, maximal, six):
    nx = pytest.importorskip("networkx")
    g = request.getfixturevalue(name)
    point_graph = nx.Graph()
    point_graph.add_nodes_from(range(g.v))
    for m in g.lines:
        point_graph.add_edges_from(itertools.combinations(bits(m), 2))
    # pairwise intersections, so the pencil-built line graph is checked too
    line_graph = nx.Graph()
    line_graph.add_nodes_from(range(g.b))
    line_graph.add_edges_from(
        (i, j) for i, j in itertools.combinations(range(g.b), 2) if g.lines[i] & g.lines[j]
    )
    for ours, theirs in [(inc.point_graph(g), point_graph), (inc.line_graph(g), line_graph)]:
        found = sorted(mask_of(c) for c in nx.find_cliques(theirs))
        assert found == list(cl.max_cliques(ours).all_cliques)
        assert len(found) == maximal
        assert sum(m.bit_count() == 6 for m in found) == six


def test_star_at_point_zero(vls, line_graph_vls):
    rep = cl.max_cliques(line_graph_vls)
    stars, _ = cl.classify_line_cliques(vls, rep.cliques_of_size_6)
    assert vls.pencils[0] in stars


def test_negative_line_matching(vls, line_graph_vls):
    rep = cl.max_cliques(line_graph_vls)
    stars, non_stars = cl.classify_line_cliques(vls, rep.cliques_of_size_6)
    negs = con.negative_lines(vls)
    matching = cl.match_negative_lines(vls, non_stars, negs)
    assert len(matching) == 81
    assert sorted(matching.values()) == sorted(negs)
    # the clique for -S consists of the six 1-secants of -S
    import pg552.gf3space as gf3

    minus_s = gf3.negate_mask(con.S)
    clique = cl.one_secant_lines(vls, minus_s)
    assert matching[clique] == minus_s
    # star cliques never equal a 1-secant line set of any negative line
    secant_sets = {cl.one_secant_lines(vls, m) for m in negs}
    assert not secant_sets & set(stars)


def test_match_rejects_foreign_clique(vls, line_graph_vls):
    rep = cl.max_cliques(line_graph_vls)
    stars, _ = cl.classify_line_cliques(vls, rep.cliques_of_size_6)
    with pytest.raises(ValueError):
        cl.match_negative_lines(vls, [stars[0]], con.negative_lines(vls))


def test_negative_lines_may_come_as_an_iterator(vls, line_graph_vls):
    rep = cl.max_cliques(line_graph_vls)
    _, non_stars = cl.classify_line_cliques(vls, rep.cliques_of_size_6)
    negs = con.negative_lines(vls)
    matching = cl.match_negative_lines(vls, non_stars, iter(negs))
    assert matching == cl.match_negative_lines(vls, non_stars, negs)
    assert len(matching) == 81


def test_match_rejects_a_repeated_negative_line(vls, line_graph_vls):
    rep = cl.max_cliques(line_graph_vls)
    _, non_stars = cl.classify_line_cliques(vls, rep.cliques_of_size_6)
    negs = con.negative_lines(vls)
    with pytest.raises(ValueError, match="two negative lines share their 1-secant set"):
        cl.match_negative_lines(vls, non_stars, negs + negs[:1])


def test_match_rejects_a_missing_clique(vls, line_graph_vls):
    rep = cl.max_cliques(line_graph_vls)
    _, non_stars = cl.classify_line_cliques(vls, rep.cliques_of_size_6)
    with pytest.raises(ValueError, match="clique/negative-line matching is not a bijection"):
        cl.match_negative_lines(vls, non_stars[1:], con.negative_lines(vls))
