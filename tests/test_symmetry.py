"""Canonical labeling, automorphism groups, and the stabilizer chain.

The engine is cross-checked against brute-force oracles on small inputs:
automorphism counts by enumerating all vertex permutations, and group
orders by closing the generator set under composition.  The older kernels
and the brute-force recounts it is compared with live in ``references.py``.
The chain's kernel invariants, base change, membership and restriction,
and the group the search places without Schreier passes, are tested in
``test_groups.py``.
"""

import hashlib
import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (_FirstPathSearch, brute_elements, chain_contents, colored_graphs, conjugated,
                        conjugated_chain, form_key, is_automorphism, refine_reference,
                        relabel_incidence, relabeled_rows, relabeling, search_key)

from pg552 import construction as con
from pg552 import gf3space as gf3
from pg552 import graphs as gr
from pg552 import groups
from pg552 import incidence as inc
from pg552 import symmetry as sym
from pg552.bits import bits, mask_of, permute_mask


# --- stabilizer chain -------------------------------------------------------


def test_compose_and_inverse():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert groups.compose(p, q) == (2, 1, 0)
    assert groups.compose(p, groups.inverse(p)) == (0, 1, 2)
    assert permute_mask(0b011, p) == 0b110


def test_group_s3():
    g = groups.PermutationGroup(3, [(1, 0, 2), (0, 2, 1)])
    assert g.order() == 6
    assert g.is_transitive()
    assert g.contains((2, 1, 0))
    with pytest.raises(ValueError):
        g.add((0, 1))


def test_group_cyclic():
    g = groups.PermutationGroup(5, [(1, 2, 3, 4, 0)])
    assert g.order() == 5
    assert not g.contains((1, 0, 2, 3, 4))


def test_group_order_against_brute_force():
    rng = random.Random(31)
    for _ in range(20):
        degree = rng.randrange(2, 7)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            p = list(range(degree))
            rng.shuffle(p)
            gens.append(tuple(p))
        grp = groups.PermutationGroup(degree, gens)
        assert grp.order() == len(brute_elements(degree, gens))


def test_group_two_bases_agree():
    rng = random.Random(13)
    for _ in range(10):
        degree = rng.randrange(3, 8)
        p = list(range(degree))
        rng.shuffle(p)
        q = list(range(degree))
        rng.shuffle(q)
        gens = [tuple(p), tuple(q)]
        o1 = groups.PermutationGroup(degree, gens, base=tuple(range(degree))).order()
        o2 = groups.PermutationGroup(degree, gens, base=tuple(reversed(range(degree)))).order()
        assert o1 == o2 == len(brute_elements(degree, gens))


@pytest.mark.parametrize("base", [(-1,), (300,), (3,), (0, 3)])
def test_group_refuses_base_points_out_of_range(base):
    # -1 once indexed from the end of the padded chain (order 12 for S3),
    # and 300 ran past it (IndexError)
    with pytest.raises(ValueError, match="out of range 0..2"):
        groups.PermutationGroup(3, [(1, 0, 2), (0, 2, 1)], base=base)
    assert groups.PermutationGroup(3, [(1, 0, 2), (0, 2, 1)], base=(2, 0)).order() == 6


@pytest.mark.parametrize("degree, image", [(2, (1, 2)), (3, (0, 1, 3)), (3, (-1, 0, 1)),
                                           (2, (0, 0))])
def test_group_refuses_generators_that_are_no_permutations(degree, image):
    # (1, 2) has distinct images, one out of range: it once passed the
    # check and ended in a RecursionError
    with pytest.raises(ValueError, match="not a permutation of the right degree"):
        groups.PermutationGroup(degree).add(image)


@pytest.mark.parametrize("image", [(0, 1), (0, 1, 2, 3), ()])
def test_membership_refuses_a_tuple_of_another_length(image):
    # a short tuple was once padded with the identity, so (0, 1) was a member
    g = groups.PermutationGroup(3, [(1, 2, 0)])
    with pytest.raises(ValueError, match="not a permutation of the right degree"):
        g.contains(image)
    assert g.contains((2, 0, 1)) and not g.contains((1, 0, 2))


@pytest.mark.parametrize("image", [(0, 1, 100), (0, 1, 300), (0, 1, -1), (0.0, 1, 2),
                                   ("0", 1, 2), (0, 0, 1), (2, 2, 2)])
def test_membership_is_false_for_a_tuple_that_is_no_permutation(image):
    # S3 holds every permutation of the points; (0, 1, 300) and (0, 1, -1)
    # once raised bytes' ValueError, and (0.0, 1, 2) and ("0", 1, 2) a
    # TypeError, where (0, 1, 100) answered False
    g = groups.PermutationGroup(3, [(1, 0, 2), (0, 2, 1)])
    assert g.contains(image) is False
    assert g.contains((0, 1, 2)) and g.contains((2, 1, 0))


def test_orbits_and_stabilizer():
    # <(0 1), (2 3 4)> on 5 points
    g = groups.PermutationGroup(5, [(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)])
    assert g.orbits() == [[0, 1], [2, 3, 4]]
    assert not g.is_transitive()
    assert g.order() == 6
    assert g.stabilizer_order(0) == 3
    assert g.stabilizer_order(2) == 2


def v4():
    """The Klein four-group on 4 points."""
    return groups.PermutationGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])


@pytest.mark.parametrize("call, message", [
    # an IndexError from the orbit walk
    (lambda g: g.stabilizer_order(7), "point 7 out of range 0..3"),
    # a bit shift by -1: "negative shift count"
    (lambda g: g.stabilizer_order(-1), "point -1 out of range 0..3"),
    # a chain based at 9, outside the points
    (lambda g: g.with_base((9,), (1, 0, 2, 3)), "base point 9 out of range 0..3"),
    # a relabeling of 3 points, taken for one of 4
    (lambda g: g.with_base((0,), (1, 0, 2)), "relabeling of length 3 is not a permutation"),
], ids=["point-past-the-end", "negative-point", "base-point-past-the-end", "short-relabeling"])
def test_group_queries_refuse_points_out_of_range(call, message):
    g = v4()
    with pytest.raises(ValueError, match=message):
        call(g)
    assert g.stabilizer_order(3) == 1 and g.with_base((3,), (1, 0, 2, 3)).order() == 4


@pytest.mark.parametrize("stop, message", [
    (5, "stop 5 out of range 0..4"),
    (1, "image 1 out of range 0..0"),  # V4 moves point 0 out of the window
])
def test_restriction_refuses_a_window_the_group_does_not_keep(stop, message):
    with pytest.raises(ValueError, match=message):
        v4().restricted(stop)
    assert v4().restricted(4).order() == 4


def test_restriction_refuses_an_action_that_is_not_faithful():
    # (2 3) keeps the points 0 1 and fixes both, so the image has order 2,
    # not 4: the re-base once drew forever, short of the group's order
    g = groups.PermutationGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
    with pytest.raises(ValueError, match="not faithful: its image stalled at order 2 of 4"):
        g.restricted(2)
    assert g.restricted(4).order() == 4


def test_group_refuses_a_negative_degree():
    # accepted once, with order 1
    with pytest.raises(ValueError, match="degree -2 out of range 0..256"):
        groups.PermutationGroup(-2)
    assert groups.PermutationGroup(0).order() == 1


# --- refinement and canonical forms ----------------------------------------


def refined(adj, cells, active):
    """``refine`` from freshly built arrays of the cell list ``cells``;
    returns the refined cell list after checking the arrays it leaves."""
    n = len(adj)
    mask_at, cell_of, live = sym._partition(n, cells)
    live = sym.refine(adj, mask_at, cell_of, live, active)
    return partition_cells(n, mask_at, cell_of, live)


def partition_cells(n, mask_at, cell_of, live):
    """The cell list of the arrays ``(mask_at, cell_of, live)``, after
    checking that they describe one ordered partition of 0..n-1: a cell
    starts at each non-zero ``mask_at`` entry and covers as many positions
    as it has vertices, ``cell_of[v]`` is the start of v's cell for every
    vertex, and ``live`` is the union of the non-singleton cells."""
    cells = []
    union = nonsingleton = 0
    s = 0
    while s < n:
        cell = mask_at[s]
        size = cell.bit_count()
        assert size and not cell & union and not any(mask_at[s + 1 : s + size])
        for v in bits(cell):
            assert cell_of[v] == s
        union |= cell
        if size > 1:
            nonsingleton |= cell
        cells.append(cell)
        s += size
    assert union == (1 << n) - 1
    assert live == nonsingleton
    return cells


def coarsens(coarse, fine):
    """Whether each cell of the cell list ``coarse`` is the union of the
    next consecutive cells of ``fine``, as a refinement part way leaves it."""
    rest = iter(fine)
    for cell in coarse:
        union = 0
        while union != cell:
            part = next(rest, 0)
            if not part or part & ~cell:
                return False
            union |= part
    return next(rest, None) is None


def is_equitable(adj, cells):
    for a in cells:
        for b in cells:
            counts = {(adj[v] & b).bit_count() for v in bits(a)}
            if len(counts) != 1:
                return False
    return True


def test_refine_reaches_equitable_partition():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(2, 12)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        cells = [mask_of(range(n))]
        out = refined(adj, cells, cells)
        assert sorted(v for c in out for v in bits(c)) == list(range(n))
        assert is_equitable(adj, out)


def test_empty_splitter_splits_nothing():
    # on the path 0-1-2 the splitter {2} splits {0, 1, 2} into {0, 2}, {1};
    # the empty splitter must not be read as that one
    path = gr.Graph.from_edges(3, [(0, 1), (1, 2)]).adj
    whole = [0b111]
    assert refined(path, whole, [0b100]) == [0b101, 0b010]
    assert refined(path, whole, [0]) == refined(path, whole, []) == whole


def test_canonical_form_c5_group():
    c5 = gr.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    cf = sym.canonical_form(sym.ColoredGraph.from_graph(c5))
    assert cf.group.order() == 10  # dihedral


def test_canonical_form_relabel_stable():
    rng = random.Random(8)
    for _ in range(5):
        n = rng.randrange(2, 14)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
        ]
        g = gr.Graph.from_edges(n, edges)
        cert = sym.canonical_form(sym.ColoredGraph.from_graph(g)).certificate
        perm = list(range(n))
        rng.shuffle(perm)
        cert2 = sym.canonical_form(
            sym.ColoredGraph.from_graph(gr.Graph(n, relabeled_rows(g.adj, perm)))
        ).certificate
        assert cert == cert2


def test_canonical_form_distinguishes_same_degree_graphs():
    c6 = gr.Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    kk = gr.Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    f1 = sym.canonical_form(sym.ColoredGraph.from_graph(c6))
    f2 = sym.canonical_form(sym.ColoredGraph.from_graph(kk))
    assert f1.certificate != f2.certificate


def test_canonical_form_respects_colors():
    # a path 0-1-2; coloring the middle vs an end differently changes the class
    path = gr.Graph.from_edges(3, [(0, 1), (1, 2)])
    f_mid = sym.canonical_form(sym.ColoredGraph(3, path.adj, (0, 1, 0)))
    f_end = sym.canonical_form(sym.ColoredGraph(3, path.adj, (1, 0, 0)))
    assert f_mid.certificate != f_end.certificate
    assert f_mid.group.order() == 2
    assert f_end.group.order() == 1


def test_aut_graph_against_brute_force():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randrange(1, 8)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ]
        g = gr.Graph.from_edges(n, edges)
        assert sym.aut_graph(g).order() == brute_colored_aut_order(sym.ColoredGraph.from_graph(g))


def test_aut_single_line_on_three_points():
    g = inc.IncidenceStructure(3, [0b011])
    grp = sym.aut_incidence(g)
    assert grp.order() == 2  # swap the two points on the line, fix the third


def test_generators_preserve_line_set(aut_vls, vls, aut_new, new):
    for group, g in [(aut_vls, vls), (aut_new, new)]:
        line_group = sym.aut_incidence(g, on="lines")
        assert len(line_group.generators) == len(group.generators)
        for p, q in zip(group.generators, line_group.generators):
            images = [permute_mask(m, p) for m in g.lines]
            assert sorted(images) == list(g.lines)
            # line j goes to line q[j]
            assert images == [g.lines[j] for j in q]


def test_record_automorphism_rejects_non_automorphism(vls):
    search = sym._Search(sym.colored_incidence_graph(vls))
    n = search.n
    identity = tuple(range(n))
    points_swapped = (1, 0) + identity[2:]
    with pytest.raises(AssertionError, match="not an automorphism"):
        search._record_automorphism(identity, points_swapped)
    point_and_line_swapped = (81,) + identity[1:81] + (0,) + identity[82:]
    with pytest.raises(AssertionError, match="does not preserve colors"):
        search._record_automorphism(identity, point_and_line_swapped)


def test_is_isomorphic_relabeled(vls):
    rng = random.Random(21)
    perm = list(range(81))
    rng.shuffle(perm)
    assert sym.is_isomorphic(vls, relabel_incidence(vls, tuple(perm)))


def test_not_isomorphic(vls, new):
    assert not sym.is_isomorphic(vls, new)


def test_self_dual_witness_must_preserve_colors(new, monkeypatch):
    # send each point to the dual line that is its pencil and each line j to
    # dual point j: incidence is kept, but points and lines trade colors
    d = inc.dual(new)
    swap = tuple(d.v + d.lines.index(pc) for pc in new.pencils) + tuple(range(new.b))
    cg, cd = sym.colored_incidence_graph(new), sym.colored_incidence_graph(d)
    assert all(permute_mask(cg.adj[v], swap) == cd.adj[swap[v]] for v in range(cg.n))
    # hand that map to is_self_dual as the canonical labelings' quotient
    identity = tuple(range(cd.n))
    forms = {new: sym.CanonicalForm(swap, "certificate", None),
             d: sym.CanonicalForm(identity, "certificate", None)}
    monkeypatch.setattr(sym, "incidence_form", forms.__getitem__)
    with pytest.raises(AssertionError, match="colors"):
        sym.is_self_dual(new)


def test_self_dual_with_witness(vls):
    ok, witness = sym.is_self_dual(vls)
    assert ok
    assert witness is not None
    # the witness maps g-points to dual-points (= line indices of g) and
    # g-lines to dual-lines (= point pencils), preserving incidence into the
    # dual, i.e. reversing it in g
    d = inc.dual(vls)
    for p in range(81):
        assert witness[p] < 81
    for j in range(81):
        assert witness[81 + j] >= 81
    for j, m in enumerate(vls.lines):
        dual_line = d.lines[witness[81 + j] - 81]
        for p in bits(m):
            assert dual_line >> witness[p] & 1


def test_translation_checks(vls, new):
    full = gf3.span(gf3.UNIT)
    assert con.translation_check(new, con.N0)
    assert con.translation_check(vls, full)
    assert not con.translation_check(new, full)


def test_aut_vls_point_transitive(aut_vls):
    # all 81 translations are automorphisms, so one point orbit
    assert aut_vls.is_transitive()
    assert [len(o) for o in aut_vls.orbits()] == [81]


def test_colored_incidence_graph_shape(vls):
    cg = sym.colored_incidence_graph(vls)
    assert cg.n == 162
    assert cg.colors == (0,) * 81 + (1,) * 81
    for j, m in enumerate(vls.lines):
        for p in bits(m):
            assert cg.adj[p] >> (81 + j) & 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colored_graphs(), st.data())
def test_refine_is_equitable_and_finer(cg, data):
    order = data.draw(st.permutations(range(cg.n)))
    cuts = data.draw(st.sets(st.integers(1, cg.n - 1))) if cg.n > 1 else set()
    bounds = [0, *sorted(cuts), cg.n]
    cells = [mask_of(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    out = refined(cg.adj, cells, cells)
    assert is_equitable(cg.adj, out)
    # each input cell is split in place into consecutive output cells
    pos = 0
    for cell in cells:
        taken = 0
        while taken != cell:
            frag = out[pos]
            assert frag and not frag & ~cell and not frag & taken
            taken |= frag
            pos += 1
    assert pos == len(out)


def relabel(cg, perm):
    colors = [0] * cg.n
    for v in range(cg.n):
        colors[perm[v]] = cg.colors[v]
    return sym.ColoredGraph(cg.n, relabeled_rows(cg.adj, perm), tuple(colors))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colored_graphs(), st.data())
def test_certificate_invariant_under_relabeling(cg, data):
    perm = tuple(data.draw(st.permutations(range(cg.n))))
    f1 = sym.canonical_form(cg)
    f2 = sym.canonical_form(relabel(cg, perm))
    assert f1.certificate == f2.certificate
    assert f1.group.order() == f2.group.order()


def brute_colored_aut_order(cg):
    return sum(is_automorphism(cg, perm) for perm in itertools.permutations(range(cg.n)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(colored_graphs(max_n=7))
def test_group_order_matches_brute_force_count(cg):
    assert sym.canonical_form(cg).group.order() == brute_colored_aut_order(cg)


def test_colored_graph_rejects_a_wrong_colour_count():
    with pytest.raises(ValueError, match="adjacency/colors length mismatch"):
        sym.ColoredGraph(2, (0, 0), (0,))


def test_canonical_form_rejects_more_than_256_vertices():
    n = 257
    adj = tuple((1 << (i - 1) % n) | (1 << (i + 1) % n) for i in range(n))
    with pytest.raises(ValueError, match="256"):
        sym.canonical_form(sym.ColoredGraph(n, adj, (0,) * n))


def test_canonical_form_refuses_rows_it_cannot_decide(monkeypatch):
    def no_refinement(*args):
        raise AssertionError("refined rows it cannot decide")

    # vertex 0's row names vertex 2 of a 2-vertex graph, searched unseeded
    # or seeded by the form of a valid 2-vertex graph carried onto it
    source = sym.ColoredGraph(2, (0, 0), (0, 0))
    carried = sym.Carried(source, sym.canonical_form(source), (0, 1))
    monkeypatch.setattr(sym, "refine", no_refinement)
    cg = sym.ColoredGraph(2, (4, 0), (0, 0))
    for known in (None, carried):
        with pytest.raises(ValueError, match="vertex 0: neighbour out of range"):
            sym.canonical_form(cg, known)
    # two isomorphic digraphs; refinement from these rows tells them apart
    for adj, edge in [((116, 0, 64, 48, 0, 68, 52), (0, 2)),
                      ((114, 112, 0, 80, 0, 2, 34), (0, 1))]:
        with pytest.raises(ValueError, match=re.escape(f"asymmetric edge {edge}")):
            sym.canonical_form(sym.ColoredGraph(7, adj, (0,) * 7))


def test_canonical_form_names_the_asymmetric_edge_graph_names(monkeypatch):
    # past 16 vertices the rows are first compared with their transpose;
    # with one reverse edge missing, the search refuses the rows with the
    # message Graph gives, self-loops and colours or not
    monkeypatch.setattr(sym, "refine", None)  # refused before any refinement
    rng = random.Random(17)
    for n in (17, 40, 162):
        adj = [0] * n
        for i, j in itertools.combinations(range(n), 2):
            if rng.random() < 0.3:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        i = rng.randrange(n)
        j = rng.choice(list(bits(adj[i])))
        adj[j] ^= 1 << i
        with pytest.raises(ValueError) as e:
            gr.Graph(n, tuple(adj))
        assert str(e.value) == f"asymmetric edge ({i}, {j})"
        loops = [row | (rng.random() < 0.5) << v for v, row in enumerate(adj)]
        colors = tuple(rng.randrange(2) for _ in range(n))
        for rows in (adj, loops):
            with pytest.raises(ValueError) as f:
                sym.canonical_form(sym.ColoredGraph(n, tuple(rows), colors))
            assert str(f.value) == str(e.value)


@st.composite
def colored_graph_pairs(draw, max_n=8):
    """Two colored graphs on the same vertices, self-loops allowed: the
    second is the first with a few edges and colours changed, relabeled.
    With no change the two are isomorphic; a change may or may not keep
    them so."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    adj = [0] * n
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    colors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    first = sym.ColoredGraph(n, tuple(adj), tuple(colors))
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=2)):
        adj[i] ^= 1 << j
        if i != j:
            adj[j] ^= 1 << i
    for v, c in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2)),
                              max_size=1)):
        colors[v] = c
    changed = sym.ColoredGraph(n, tuple(adj), tuple(colors))
    return first, relabel(changed, tuple(draw(st.permutations(range(n)))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(colored_graph_pairs())
def test_equal_certificates_exactly_when_networkx_finds_an_isomorphism(pair):
    import networkx as nx

    def to_nx(cg):
        h = nx.Graph()
        h.add_nodes_from((v, {"color": c}) for v, c in enumerate(cg.colors))
        h.add_edges_from((v, u) for v in range(cg.n) for u in bits(cg.adj[v]) if u >= v)
        return h

    g1, g2 = pair
    same = sym.canonical_form(g1).certificate == sym.canonical_form(g2).certificate
    assert same == nx.is_isomorphic(
        to_nx(g1), to_nx(g2), node_match=lambda a, b: a["color"] == b["color"])


# --- certificate-bound pruning ----------------------------------------------


def test_counters_show_pruning_on_switched_geometry(new):
    cf = sym.canonical_form(sym.colored_incidence_graph(new))
    assert cf.pruned > 0
    assert cf.leaves + cf.pruned < cf.nodes
    assert sym.CanonicalForm(cf.labeling, cf.certificate, cf.group,
                             nodes=0, leaves=0, pruned=0) == cf


def chang_graph(switching_edges):
    """Seidel switching of the triangular graph T(8) with respect to a set
    of edges of K8: the three choices below give the three Chang graphs,
    srg(28, 12, 6, 4) with small automorphism groups."""
    pairs = list(itertools.combinations(range(8), 2))
    switched = {tuple(sorted(e)) for e in switching_edges}
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(pairs)), 2)
        if bool(set(pairs[i]) & set(pairs[j]))
        != ((pairs[i] in switched) != (pairs[j] in switched))
    ]
    return gr.Graph.from_edges(len(pairs), edges)


def subtree_leaves(adj, cells):
    """Every leaf below the cell list ``cells``, with no pruning of any
    kind, refining each child from scratch; the search's target rule is
    the first smallest non-singleton cell."""
    sizes = [cell.bit_count() for cell in cells]
    smallest = min((size for size in sizes if size > 1), default=0)
    if not smallest:
        yield cells
        return
    t = sizes.index(smallest)
    target = cells[t]
    for v in bits(target):
        child = list(cells)
        child[t : t + 1] = [1 << v, target & ~(1 << v)]
        yield from subtree_leaves(adj, refined(adj, child, [1 << v]))


def child_cells(adj, parent, v):
    """The cell list of the child that individualizes v below the cell
    list ``parent``, refined from scratch."""
    bit = 1 << v
    child = []
    for cell in parent:
        child += [bit, cell & ~bit] if cell & bit else [cell]
    return refined(adj, child, [bit])


class _CheckedSearch(sym._Search):
    """Enumerates the whole subtree of each node the bound prunes, and of
    each child whose refinement was aborted, refined afresh from its
    parent's cells."""

    checked = aborted = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.parents = []  # the cell lists of the nodes on the current path

    def _node(self, mask_at, cell_of, live, prefix):
        if live < 0:
            self.aborted += 1
            self._check_worse(child_cells(self.adj, self.parents[-1], prefix[-1]))
        self.parents.append(list(filter(None, mask_at)))
        super()._node(mask_at, cell_of, live, prefix)
        self.parents.pop()

    def _worse_below(self, mask_at, cell_of):
        pruned = super()._worse_below(mask_at, cell_of)
        if pruned:
            self.checked += 1
            self._check_worse(list(filter(None, mask_at)))
        return pruned

    def _check_worse(self, cells):
        for leaf in subtree_leaves(self.adj, cells):
            lab = [0] * self.n
            for pos, cell in enumerate(leaf):
                lab[cell.bit_length() - 1] = pos
            cert = self._certificate(tuple(lab))
            assert cert > self.best_cert
            assert cert != self.first_cert


class _UnprunedSearch(sym._Search):
    def _worse_below(self, mask_at, cell_of):
        return False


def pruning_cases():
    yield "chang-matching", sym.ColoredGraph.from_graph(
        chang_graph([(0, 1), (2, 3), (4, 5), (6, 7)])
    )
    yield "chang-8-cycle", sym.ColoredGraph.from_graph(
        chang_graph([(i, (i + 1) % 8) for i in range(8)])
    )
    yield "chang-3-and-5-cycles", sym.ColoredGraph.from_graph(
        chang_graph([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])
    )
    perm = list(range(81))
    random.Random(3).shuffle(perm)
    relabeled = relabel_incidence(con.build_new(), tuple(perm))
    yield "relabeled-switched-geometry", sym.colored_incidence_graph(relabeled)


def carried_cases():
    """Each graph of ``pruning_cases`` relabeled, with a seed that carries
    its own search's canonical form, as the certificate-stability claim
    seeds its searches."""
    rng = random.Random(5)
    for name, cg in pruning_cases():
        perm = tuple(rng.sample(range(cg.n), cg.n))
        yield f"{name}-carried", relabel(cg, perm), sym.Carried(cg, sym.canonical_form(cg), perm)


@pytest.mark.parametrize(
    "cg, known",
    [pytest.param(cg, None, id=name) for name, cg in pruning_cases()]
    + [pytest.param(cg, known, id=name) for name, cg, known in carried_cases()],
)
def test_pruned_subtrees_hold_only_worse_leaves(cg, known):
    search = _CheckedSearch(cg, known)
    cf = search.run()
    assert search.checked + search.aborted == cf.pruned > 0
    assert (search.aborted > 0) == (known is not None)  # only a carried search aborts
    ref = _UnprunedSearch(cg).run()
    assert ref.pruned == 0 and ref.leaves > cf.leaves
    assert seed_free(cf) == seed_free(ref)
    if known is None:
        assert cf.group.generators == ref.group.generators


def check_lowest_rows(adj, mask_at, cell_of, stop, leaves):
    """The lowest row of each cell that starts before ``stop``, counted
    here (a vertex v of it takes the first |N(v) ∩ D| positions of the
    range of each cell D), is ``_lowest`` of v's neighbours.  Each leaf's
    row at each position of the cell is at least that row, and reduces to
    it under ``_lowest`` once its bits are pushed down to the starts of
    their cells' ranges."""
    at = [s for s, cell in enumerate(mask_at) if cell for _ in range(cell.bit_count())]
    lows = []
    s = 0
    while s < stop:
        cell = mask_at[s]
        nbrs = adj[cell.bit_length() - 1]
        lo = 0
        for d, other in enumerate(mask_at):
            lo |= (1 << (nbrs & other).bit_count()) - 1 << d
        assert sym._lowest(bits(nbrs), cell_of) == lo
        lows.append((s, cell, lo))
        s += cell.bit_count()
    for leaf in leaves:
        lab = [0] * len(adj)
        for pos, cell in enumerate(leaf):
            lab[cell.bit_length() - 1] = pos
        for s, cell, lo in lows:
            for pos in range(s, s + cell.bit_count()):
                v = leaf[pos].bit_length() - 1
                assert cell >> v & 1
                row = permute_mask(adj[v], lab)
                assert sym._lowest(bits(row), at) == lo and row >= lo


def small_subtree(adj, cells, data, depth=0):
    """The cell list of a node below the equitable ``cells``, at least
    ``depth`` drawn individualizations deep, with at most 5! leaves below
    it by the product of its cells' factorials."""
    while True:
        live = sum(cell for cell in cells if cell & (cell - 1))
        room = math.prod(math.factorial(cell.bit_count()) for cell in cells)
        if not live or depth <= 0 and room <= 120:
            return cells
        cells = child_cells(adj, cells, data.draw(st.sampled_from(list(bits(live)))))
        depth -= 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colored_graphs(), st.data())
def test_lowest_row_bounds_every_leaf_below(cg, data):
    # the fact the certificate bound reads at a node and inside refine:
    # every leaf below a partition holds, at each position of a cell, a row
    # with the cell's neighbour counts, so at least the cell's lowest row
    adj, n = cg.adj, cg.n
    initial = sym._initial_cells(cg)
    cells = small_subtree(adj, refined(adj, initial, initial), data, data.draw(st.integers(0, 2)))
    mask_at, cell_of, _ = sym._partition(n, cells)
    check_lowest_rows(adj, mask_at, cell_of, n, subtree_leaves(adj, cells))
    # the singletons at the start of a drawn ordered partition whose
    # refinement was stopped part way, against the leaves below its end
    order = data.draw(st.permutations(range(n)))
    cuts = data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    bounds = [0, *(i for i, cut in enumerate(cuts, 1) if cut), n]
    cells = [mask_of(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    calls = data.draw(st.integers(1, n))
    seen = []

    def bound(mask_at, cell_of, stop):
        seen.append((list(mask_at), list(cell_of), stop))
        return len(seen) == calls

    sym.refine(adj, *sym._partition(n, cells), cells, bound)
    leaves = list(subtree_leaves(adj, small_subtree(adj, refined(adj, cells, cells), data)))
    for part_at, part_of, stop in seen:
        check_lowest_rows(adj, part_at, part_of, stop, leaves)


# --- cached pruning orbits --------------------------------------------------


# the largest group listed element by element: the switched geometry's
ELEMENT_LIMIT = 972


class _OrbitCheckedSearch(sym._Search):
    """Checks each node's pruning orbits against a reference that uses no
    stabilizer chain.  While the group found so far has at most
    ``ELEMENT_LIMIT`` elements, it lists them by closing the search's
    generators, each checked as an automorphism, under composition; the
    mask must then be the images of the processed siblings under the
    elements that fix the prefix pointwise.  Everywhere, the node's cached
    mask must equal one computed afresh."""

    checked = extended = listed = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.elements = (None, None)  # (generator count, elements or None)

    def _orbits(self, prefix, processed, cached):
        result = super()._orbits(prefix, processed, cached)
        assert result[2] == super()._orbits(prefix, processed, None)[2]
        self.checked += 1
        self.extended += cached is not None and cached[0] == result[0]
        gens = self.group.generators
        if self.elements[0] != len(gens):
            assert all(is_automorphism(self.cg, g) for g in gens)
            self.elements = len(gens), brute_elements(self.n, gens, ELEMENT_LIMIT)
        elements = self.elements[1]
        if elements is not None:
            images = 0
            for a in elements:
                if all(a[p] == p for p in prefix):
                    for u in bits(processed):
                        images |= 1 << a[u]
            assert result[2] == images
            self.listed += 1
        return result


def orbit_cases():
    yield from pruning_cases()
    yield "vls", sym.colored_incidence_graph(con.build_vls())
    yield "switched", sym.colored_incidence_graph(con.build_new())


@pytest.mark.parametrize(
    "cg", [pytest.param(cg, id=name) for name, cg in orbit_cases()]
)
def test_cached_pruning_orbits_equal_recomputed_ones(cg):
    search = _OrbitCheckedSearch(cg)
    cf = search.run()
    assert search.checked > 0 and search.extended > 0
    assert search.listed > 0 or cf.group.order() > ELEMENT_LIMIT
    ref = sym.canonical_form(cg)
    assert (cf.labeling, cf.certificate, cf.group.generators) == (
        ref.labeling, ref.certificate, ref.group.generators
    )


# --- partition arrays carried from node to child ----------------------------


class _ArrayCheckedSearch(sym._Search):
    """At every node, checks the carried arrays against the partition they
    describe and against a from-scratch refinement of the parent's cell
    list with the individualized vertex split off, which must refine them
    where ``refine`` was aborted, and checks that the children leave the
    node's arrays as they were."""

    checked = aborted = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.parents = []  # the cell lists of the nodes on the current path

    def _node(self, mask_at, cell_of, live, prefix):
        if live < 0:  # refine stopped part way, and returned no live mask
            self.aborted += 1
            nonsingleton = sum(cell for cell in filter(None, mask_at) if cell & (cell - 1))
            cells = partition_cells(self.n, mask_at, cell_of, nonsingleton)
        else:
            cells = partition_cells(self.n, mask_at, cell_of, live)
        if prefix:
            want = child_cells(self.adj, self.parents[-1], prefix[-1])
            assert coarsens(cells, want) if live < 0 else cells == want
            self.checked += 1
        saved = list(mask_at), list(cell_of), live
        self.parents.append(cells)
        super()._node(mask_at, cell_of, live, prefix)
        self.parents.pop()
        assert (mask_at, cell_of, live) == saved


@pytest.mark.parametrize(
    "cg, known",
    [pytest.param(cg, None, id=name) for name, cg in orbit_cases()]
    + [pytest.param(cg, known, id=name) for name, cg, known in carried_cases()],
)
def test_carried_partition_arrays_match_refinement_from_scratch(cg, known):
    search = _ArrayCheckedSearch(cg, known)
    cf = search.run()
    assert search.checked == cf.nodes - 1 > 0
    assert search.aborted <= cf.pruned and (search.aborted > 0) == (known is not None)
    ref = sym.canonical_form(cg)
    assert seed_free(cf) == seed_free(ref)
    if known is None:
        assert cf.group.generators == ref.group.generators


# --- pinned canonical forms -------------------------------------------------

# sha256 of repr((labeling, certificate, generators, group order)), recorded
# with the search of commit 4ffabe0, which pruned on orbits only along the
# first path and backjumped only from leaves equal to the first one.  The
# labelings and generators are what `aut`, `dual` and `report` print, so a
# change to the search that moves any of them changes their output.  Then
# the work counters (nodes, leaves, pruned) of the search, recorded after
# off-path orbit pruning took the whole pointwise stabilizer of the prefix,
# and those of the older rules at 4ffabe0.
PINNED_FORMS = {
    "incidence-vls": (
        lambda vls, new: sym.colored_incidence_graph(vls),
        "d39bfe46a52199c414303559182515432ce5ab23d10d8b6b215a595aeafd11b9",
        (28, 7, 0),
        (28, 7, 0),
    ),
    "incidence-switched": (
        lambda vls, new: sym.colored_incidence_graph(new),
        "7cfa310cbb1af0d7fc02d5f5f0313d90f66437fb9100a32cc2999226b2fd249a",
        (28, 9, 2),
        (101, 49, 15),
    ),
    "incidence-dual-vls": (
        lambda vls, new: sym.colored_incidence_graph(inc.dual(vls)),
        "485187e6e820ea2d3fc2875cf1afd9eea7425e5a8f3abd01a0f53c0afd331efe",
        (28, 7, 0),
        (28, 7, 0),
    ),
    "incidence-dual-switched": (
        lambda vls, new: sym.colored_incidence_graph(inc.dual(new)),
        "32e7eb80345169569da735161150f54b1c1b5165efc991002faa034073bb0924",
        (35, 10, 3),
        (126, 57, 25),
    ),
    "point-graph-vls": (
        lambda vls, new: sym.ColoredGraph.from_graph(inc.point_graph(vls)),
        "597c7f660918a1fb2bd1dfdcbd77e94f4eccc4f558f718681e19f0681b6ca070",
        (28, 8, 0),
        (28, 8, 0),
    ),
    "point-graph-switched": (
        lambda vls, new: sym.ColoredGraph.from_graph(inc.point_graph(new)),
        "123305a36888d81a3ed7e121e100d482f6c95bda9810ba5a3e0a63ada19e6dd3",
        (27, 10, 5),
        (131, 78, 23),
    ),
}


def digest(cf):
    return hashlib.sha256(repr(form_key(cf)).encode()).hexdigest()


@pytest.mark.parametrize("name", list(PINNED_FORMS))
def test_canonical_form_matches_pinned_digest(name, vls, new):
    build, want, counters, _ = PINNED_FORMS[name]
    cf = sym.canonical_form(build(vls, new))
    assert digest(cf) == want
    assert (cf.nodes, cf.leaves, cf.pruned) == counters


# --- the search against its older, first-path-only rules --------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colored_graphs())
def test_search_equals_first_path_search(cg):
    assert form_key(sym.canonical_form(cg)) == form_key(_FirstPathSearch(cg).run())


def relabeled_geometries(count):
    for name, g in [("vls", con.build_vls()), ("switched", con.build_new())]:
        rng = random.Random(name)
        for i in range(count):
            perm = tuple(rng.sample(range(g.v), g.v))
            yield f"{name}-{i}", g, relabel_incidence(g, perm), perm


def first_path_cases():
    yield from pruning_cases()
    for name, _, h, _ in relabeled_geometries(2):
        yield name, sym.colored_incidence_graph(h)


@pytest.mark.parametrize(
    "cg", [pytest.param(cg, id=name) for name, cg in first_path_cases()]
)
def test_search_equals_first_path_search_on_fixed_graphs(cg):
    assert form_key(sym.canonical_form(cg)) == form_key(_FirstPathSearch(cg).run())


@pytest.mark.parametrize("name", list(PINNED_FORMS))
def test_first_path_search_keeps_the_pinned_form_and_old_counters(name, vls, new):
    build, want, _, counters = PINNED_FORMS[name]
    cf = _FirstPathSearch(build(vls, new)).run()
    assert digest(cf) == want
    assert (cf.nodes, cf.leaves, cf.pruned) == counters


# --- seeded search ----------------------------------------------------------


def carried(g, h, perm):
    """The incidence-graph automorphisms of g carried over to
    ``h = relabel_incidence(g, perm)``, built from g's point action alone:
    the point map ``points`` sends line m of h to ``permute_mask(m, points)``."""
    inv = groups.inverse(perm)
    line_of = {m: j for j, m in enumerate(h.lines)}
    out = []
    for a in sym.aut_incidence(g).generators:
        points = tuple(perm[a[inv[x]]] for x in range(g.v))
        lines = tuple(h.v + line_of[permute_mask(m, points)] for m in h.lines)
        out.append(points + lines)
    return out


def carried_seed(g, perm):
    """The canonical form of g's incidence graph, as g's own search
    returned it, carried to ``relabel_incidence(g, perm)`` through the
    relabeling of g's incidence graph onto its incidence graph."""
    _, phi = relabeling(g, perm)
    return sym.Carried(sym.colored_incidence_graph(g), sym.incidence_form(g), phi)


def seed_free(cf):
    """What a seed may not change: the labeling, the certificate and the
    group order."""
    return cf.labeling, cf.certificate, cf.group.order()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colored_graphs(), st.data())
def test_seeded_search_finds_the_canonical_form(cg, data):
    # the source's form carried through a drawn relabeling, and the seeded
    # form carried once more through a second one: each seeded search
    # returns the unseeded one's labeling, certificate and group order,
    # and keeps the carried generators
    perm = tuple(data.draw(st.permutations(range(cg.n))))
    h = relabel(cg, perm)
    cf = sym.canonical_form(cg)
    want = seed_free(_FirstPathSearch(h).run())
    assert seed_free(sym.canonical_form(h)) == want
    seeded = sym.canonical_form(h, sym.Carried(cg, cf, perm))
    assert seed_free(seeded) == want
    assert seeded.group.generators == conjugated(cf.group.generators, perm)
    again = tuple(data.draw(st.permutations(range(cg.n))))
    h2 = relabel(h, again)
    reseeded = sym.canonical_form(h2, sym.Carried(h, seeded, again))
    assert seed_free(reseeded) == seed_free(sym.canonical_form(h2))
    assert reseeded.group.generators == conjugated(seeded.group.generators, again)


@pytest.mark.parametrize("name", list(PINNED_FORMS))
def test_seeded_search_on_pinned_graphs(name, vls, new):
    cg = PINNED_FORMS[name][0](vls, new)
    cf = sym.canonical_form(cg)
    seeded = sym.canonical_form(cg, sym.Carried(cg, cf, tuple(range(cg.n))))
    assert seed_free(seeded) == seed_free(cf)
    assert seeded.leaves <= cf.leaves


@pytest.mark.parametrize(
    "case", [pytest.param(c, id=c[0]) for c in relabeled_geometries(2)]
)
def test_seeded_search_on_relabeled_geometries(case):
    _, g, h, perm = case
    cg = sym.colored_incidence_graph(h)
    want = sym.incidence_form(g).certificate
    old = _FirstPathSearch(cg).run()
    assert old.certificate == want
    for known in (None, carried_seed(g, perm)):
        cf = sym.canonical_form(cg, known)
        assert seed_free(cf) == seed_free(old)
        assert cf.leaves <= old.leaves


def check_one_leaf(seed, cf):
    """A search seeded with a complete form reaches one leaf, and its group
    keeps the seed's order and the carried generators: it never grows."""
    group = seed.form.group
    assert cf.leaves == 1
    assert cf.group.order() == group.order()
    assert cf.group.generators == conjugated(group.generators, seed.phi)


def one_leaf_cases():
    yield from carried_cases()
    for name, g, h, perm in relabeled_geometries(2):
        yield name, sym.colored_incidence_graph(h), carried_seed(g, perm)


@pytest.mark.parametrize(
    "cg, seed", [pytest.param(cg, seed, id=name) for name, cg, seed in one_leaf_cases()]
)
def test_seeded_search_reaches_one_leaf(cg, seed):
    check_one_leaf(seed, sym.canonical_form(cg, seed))


@pytest.mark.parametrize(
    "cg, seed", [pytest.param(cg, seed, id=name) for name, cg, seed in one_leaf_cases()]
)
def test_seeded_search_renames_each_neighbour_list(cg, seed):
    # the source's lists renamed through phi hold each vertex's neighbours
    search = sym._Search(cg, seed)
    assert [sorted(search.nbrs[v]) for v in range(cg.n)] == [list(bits(row)) for row in cg.adj]
    assert cg.__dict__.get("members") is None  # the searched graph's own lists are never built


class _ShuffledSearch(sym._Search):
    """Reads every neighbour list in a shuffled order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rng = random.Random(self.n)
        self.nbrs = [bytes(rng.sample(list(m), len(m))) for m in self.nbrs]


@pytest.mark.parametrize(
    "cg, seed",
    [pytest.param(cg, seed, id=name) for name, cg, seed in one_leaf_cases()]
    + [pytest.param(cg, None, id=f"{name}-unseeded") for name, cg, _ in one_leaf_cases()],
)
def test_seeded_search_ignores_the_order_of_neighbour_lists(cg, seed):
    # renamed lists are not ascending: the certificate, the bound and the
    # orbit pruning must not read their order
    shuffled = _ShuffledSearch(cg, seed)
    assert shuffled.nbrs != list(sym._Search(cg, seed).nbrs)
    assert search_key(shuffled.run()) == search_key(sym.canonical_form(cg, seed))


@pytest.mark.parametrize(
    "case", [pytest.param(c, id=c[0]) for c in relabeled_geometries(1)]
)
def test_seeded_search_with_a_trivial_group_fails_at_its_second_leaf(case):
    # the source's labeling and certificate with the trivial group: the
    # carried path still reaches the least certificate first, but no orbit
    # skips a later leaf equal to it, which the search must report rather
    # than add to its group
    _, g, h, perm = case
    seed = carried_seed(g, perm)
    form = seed.form
    trivial = sym.CanonicalForm(form.labeling, form.certificate,
                                groups.PermutationGroup(form.group.degree))
    cg = sym.colored_incidence_graph(h)
    search = sym._Search(cg, sym.Carried(seed.source, trivial, seed.phi))
    with pytest.raises(AssertionError, match="not above its first"):
        search.run()
    assert search.leaves == 2 and search.group.order() == 1


def test_seeded_search_with_a_worse_labeling_fails_at_a_lower_leaf(new):
    # the switched geometry's own group with the labeling of its unseeded
    # search's first leaf, which is not its best: the carried path reaches
    # that leaf first, and the search must report the lower one it meets
    cg = sym.colored_incidence_graph(new)
    search = sym._Search(cg)
    cf = search.run()
    assert search.first_cert > cf.certificate
    worse = sym.CanonicalForm(search.first_lab, search.first_cert, cf.group)
    seeded = sym._Search(cg, sym.Carried(cg, worse, tuple(range(cg.n))))
    with pytest.raises(AssertionError, match="not above its first"):
        seeded.run()
    assert seeded.leaves == 2 and seeded.first_cert == search.first_cert


class _FirstPathRecordingSearch(sym._Search):
    """Records the group its first leaf seeds, before any map is added."""

    def _leaf(self, cell_of, prefix):
        first = self.first_cert is None
        super()._leaf(cell_of, prefix)
        if first:
            self.seeded = chain_contents(self.group._chain)


@pytest.mark.parametrize(
    "case", [pytest.param(c, id=c[0]) for c in relabeled_geometries(2)]
)
def test_seeding_with_a_carried_group(case):
    # The source's chain is re-based through phi, not conjugated and then
    # re-based: the search's generators must be the source's conjugated
    # ones, which g's point action alone gives, and its first group must
    # hold the elements that re-basing an explicitly conjugated chain would.
    _, g, h, perm = case
    cg = sym.colored_incidence_graph(h)
    seed = carried_seed(g, perm)
    group = seed.form.group
    known = conjugated(group.generators, seed.phi)
    assert known == carried(g, h, perm)
    search = _FirstPathRecordingSearch(cg, seed)
    by_seed = search.run()
    assert by_seed.group.generators == known
    assert seed_free(by_seed) == seed_free(sym.canonical_form(cg))
    assert by_seed.group is not group and group.order() == by_seed.group.order()
    explicit = conjugated_chain(group._chain, seed.phi)
    assert search.seeded == chain_contents(groups._rebase(explicit, tuple(search.base)))


@pytest.mark.parametrize(
    "case", [pytest.param(c, id=c[0]) for c in relabeled_geometries(1)]
)
def test_carried_relabeling_must_be_an_isomorphism(case, monkeypatch):
    def no_refinement(*args):
        raise AssertionError("refined under a relabeling it refuses")

    _, g, h, perm = case
    cg = sym.colored_incidence_graph(h)
    seed = carried_seed(g, perm)
    monkeypatch.setattr(sym, "refine", no_refinement)  # each refusal comes first
    identity = tuple(range(cg.n))
    assert not is_automorphism(seed.source, (1, 0) + identity[2:])
    swapped = (seed.phi[1], seed.phi[0]) + seed.phi[2:]
    with pytest.raises(ValueError, match="relabeling is not an isomorphism"):
        sym.canonical_form(cg, sym.Carried(seed.source, seed.form, swapped))
    # the point and the line that phi sends to h's vertices 0 and 81 trade
    # images, so the check meets the wrong colour at vertex 0 first
    point, line = seed.phi.index(0), seed.phi.index(81)
    recoloured = list(seed.phi)
    recoloured[point], recoloured[line] = 81, 0
    with pytest.raises(ValueError, match="relabeling does not preserve colors"):
        sym.canonical_form(cg, sym.Carried(seed.source, seed.form, tuple(recoloured)))
    with pytest.raises(ValueError, match="relabeling is not a permutation"):
        sym.canonical_form(cg, sym.Carried(seed.source, seed.form, seed.phi[:-1]))
    form = seed.form
    short = sym.CanonicalForm(form.labeling, form.certificate, groups.PermutationGroup(80))
    with pytest.raises(ValueError, match="carried group acts on 80 points"):
        sym.canonical_form(cg, sym.Carried(seed.source, short, seed.phi))


def test_seeded_search_refuses_a_carried_labeling_that_is_no_permutation(monkeypatch):
    # a labeling one vertex short, and one naming a vertex twice: both are
    # refused before any refinement, on the path 0-1-2 carried onto itself
    # and on a relabeled geometry
    path = sym.ColoredGraph(3, (2, 5, 2), (0, 0, 0))
    _, g, h, perm = next(relabeled_geometries(1))
    seed = carried_seed(g, perm)
    cases = [(path, sym.Carried(path, sym.canonical_form(path), (0, 1, 2))),
             (sym.colored_incidence_graph(h), seed)]
    monkeypatch.setattr(sym, "refine", None)
    for cg, known in cases:
        form = known.form
        for labeling in (form.labeling[:-1], (0, 0) + form.labeling[2:]):
            bad = sym.CanonicalForm(labeling, form.certificate, form.group)
            with pytest.raises(ValueError, match="^carried labeling is not a permutation of the vertices$"):
                sym.canonical_form(cg, sym.Carried(known.source, bad, known.phi))


# summed (nodes, leaves, pruned) of the first five seeded relabeled searches
# per geometry of the certificate-stability claim, recorded with the
# searches seeded by explicitly conjugated groups at commit 3ef1bc9; the
# switched geometry's recorded again (it was (76, 15, 16)) once the search
# descended the carried path first and aborted refinements
PINNED_CLAIM_WORK = {"vls": (35, 5, 0), "new": (65, 5, 25)}


def test_claim_search_work_is_pinned(vls, new):
    # the loop of cli._claim_isomorphism_and_duality with 5 relabelings
    rng = random.Random(20210522)
    for name, g in [("vls", vls), ("new", new)]:
        source, form = sym.colored_incidence_graph(g), sym.incidence_form(g)
        work = [0, 0, 0]
        for _ in range(5):
            perm = list(range(g.v))
            rng.shuffle(perm)
            h, phi = relabeling(g, perm)
            seed = sym.Carried(source, form, phi)
            cf = sym.canonical_form(sym.colored_incidence_graph(h), seed)
            assert cf.certificate == sym.incidence_form(g).certificate
            check_one_leaf(seed, cf)
            work = [a + b for a, b in zip(work, (cf.nodes, cf.leaves, cf.pruned))]
        assert tuple(work) == PINNED_CLAIM_WORK[name], name


class _PrefixRecordingSearch(sym._Search):
    """Records the prefix of every node it enters."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prefixes = []

    def _node(self, mask_at, cell_of, live, prefix):
        self.prefixes.append(tuple(prefix))
        super()._node(mask_at, cell_of, live, prefix)


@pytest.mark.parametrize(
    "case",
    [pytest.param(c, id=c[0]) for c in relabeled_geometries(2) if c[0].startswith("switched")],
)
def test_seeded_search_enters_one_prefix_per_orbit(case):
    # Seeded with the whole group, off-path pruning under the pointwise
    # stabilizer of a node's prefix enters a child only if no sibling
    # entered before it lies in its orbit, so each entered child is the
    # least of its orbit, or the carried child that is entered first; no
    # two entered sibling subtrees are equivalent.  Children whose
    # refinement was aborted are entered too.
    _, g, h, perm = case
    cg = sym.colored_incidence_graph(h)
    known = carried(g, h, perm)
    assert all(is_automorphism(cg, a) for a in known)
    elements = brute_elements(cg.n, known, ELEMENT_LIMIT)
    assert elements is not None and len(elements) == 972
    search = _PrefixRecordingSearch(cg, carried_seed(g, perm))
    cf = search.run()
    assert len(search.prefixes) == cf.nodes and cf.pruned > 0
    assert search.prefixes[0] == ()
    orbits = set()
    for prefix in search.prefixes[1:]:
        *parent, v = prefix
        orbit = {a[v] for a in elements if all(a[p] == p for p in parent)}
        assert v == min(orbit) or list(prefix) == search.carried[: len(prefix)]
        assert (tuple(parent), min(orbit)) not in orbits
        orbits.add((tuple(parent), min(orbit)))


class _SkipCheckedSearch(sym._Search):
    """A search that, wherever it takes pruning orbits, checks each
    generator it uses afresh as an automorphism of the graph, and rebuilds
    each vertex of the orbits as the image of a processed sibling under a
    product of those generators that fixes the prefix pointwise."""

    off_path = best_backjumps = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checked = set()

    def _orbits(self, prefix, processed, cached):
        result = super()._orbits(prefix, processed, cached)
        _, gens, mask = result
        for g in set(gens) - self.checked:
            assert is_automorphism(self.cg, g)
            self.checked.add(g)
        identity = tuple(range(self.n))
        maps = {p: identity for p in bits(processed)}
        queue = list(maps)
        while queue:
            u = queue.pop()
            for g in gens:
                if g[u] not in maps:
                    maps[g[u]] = groups.compose(maps[u], g)
                    queue.append(g[u])
        assert mask_of(maps) == mask
        for image, gamma in maps.items():
            assert any(gamma[p] == image for p in bits(processed))
            assert all(gamma[p] == p for p in prefix)
        if self.base[: len(prefix)] != prefix and mask & ~processed:
            self.off_path += 1
        return result

    def _record_automorphism(self, lab_a, lab_b):
        super()._record_automorphism(lab_a, lab_b)
        self.best_backjumps += lab_a is self.best_lab is not self.first_lab


def skip_cases():
    for name, cg in pruning_cases():
        yield name, cg, None
    for name, g, h, perm in relabeled_geometries(2):
        cg = sym.colored_incidence_graph(h)
        yield name, cg, None
        yield f"{name}-seeded", cg, carried_seed(g, perm)


def test_off_path_skips_are_images_under_checked_automorphisms():
    off_path = best_backjumps = 0
    for name, cg, known in skip_cases():
        search = _SkipCheckedSearch(cg, known)
        assert seed_free(search.run()) == seed_free(_FirstPathSearch(cg).run()), name
        off_path += search.off_path
        best_backjumps += search.best_backjumps
    assert off_path > 0 and best_backjumps > 0


# --- search kernels against their references --------------------------------


def both_refinements(refine, adj, mask_at, cell_of, live, active):
    """``refine`` and ``refine_reference`` on copies of one input: the two
    results, each as ``(mask_at, cell_of, live)``."""
    out = []
    for kernel in (refine, refine_reference):
        at, of = list(mask_at), list(cell_of)
        out.append((at, of, kernel(adj, at, of, live, list(active))))
    return out


@st.composite
def refine_inputs(draw):
    """A colored graph, a random ordered partition of its vertices and a
    list of splitters: cells and other non-empty masks, repeats allowed."""
    cg = draw(colored_graphs())
    order = draw(st.permutations(range(cg.n)))
    cuts = draw(st.sets(st.integers(1, cg.n - 1))) if cg.n > 1 else set()
    bounds = [0, *sorted(cuts), cg.n]
    cells = [mask_of(order[a:b]) for a, b in zip(bounds, bounds[1:])]
    masks = st.one_of(st.sampled_from(cells), st.integers(1, (1 << cg.n) - 1))
    active = draw(st.lists(masks, max_size=2 * len(cells) + 2))
    return cg, cells, active


@settings(max_examples=200, deadline=None, derandomize=True)
@given(refine_inputs())
def test_refine_matches_reference_on_random_partitions(case):
    cg, cells, active = case
    partition = sym._partition(cg.n, cells)
    for splitters in (active, cells, cells[::-1]):
        got, want = both_refinements(sym.refine, cg.adj, *partition, splitters)
        assert got == want


@pytest.mark.parametrize(
    "case", [pytest.param(c, id=c[0]) for c in relabeled_geometries(2)]
)
def test_refine_matches_reference_on_seeded_relabelings(case, monkeypatch):
    # every refinement of the search the certificate-stability claim runs,
    # in full against the reference; where the search's bound aborts it,
    # the full refinement must refine the partition it left
    name, g, h, perm = case
    real = sym.refine
    calls = aborted = 0

    def compared(adj, mask_at, cell_of, live, active, bound=None):
        nonlocal calls, aborted
        calls += 1
        got, want = both_refinements(real, adj, mask_at, cell_of, live, active)
        assert got == want
        live = real(adj, mask_at, cell_of, live, active, bound)
        if live < 0:
            aborted += 1
            assert coarsens(list(filter(None, mask_at)), list(filter(None, got[0])))
        else:
            assert (mask_at, cell_of, live) == got
        return live

    seed, want = carried_seed(g, perm), sym.incidence_form(g).certificate
    monkeypatch.setattr(sym, "refine", compared)
    cf = sym.canonical_form(sym.colored_incidence_graph(h), seed)
    assert cf.certificate == want
    assert calls == cf.nodes  # one refinement per node, the root's in run()
    assert aborted <= cf.pruned and (aborted > 0) == name.startswith("switched")


def set_closure(points, gens):
    """The closure of a point set under permutations, by sets."""
    closure = set(points)
    while True:
        grown = closure | {g[x] for g in gens for x in closure}
        if grown == closure:
            return closure
        closure = grown


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_permute_mask_and_orbit_closure_match_set_references(data):
    n = data.draw(st.integers(1, 40))
    mask = data.draw(st.integers(0, (1 << n) - 1))
    points = {i for i in range(n) if mask >> i & 1}
    # an injective table into a larger range, as translate_mask passes
    table = data.draw(st.permutations(range(n + data.draw(st.integers(0, 5)))))[:n]
    assert permute_mask(mask, table) == mask_of(table[i] for i in points)
    gens = [tuple(p) for p in data.draw(st.lists(st.permutations(range(n)), max_size=3))]
    want = mask_of(set_closure(points, gens))
    assert groups.orbit_closure(mask, gens) == want
    # the search passes identity-padded byte strings
    assert groups.orbit_closure(mask, [groups._pad(g) for g in gens]) == want
