"""Canonical labeling, automorphism groups, and the stabilizer chain.

The engine is cross-checked against brute-force oracles on small inputs:
automorphism counts by enumerating all vertex permutations, and group
orders by closing the generator set under composition.
"""

import dataclasses
import hashlib
import itertools
import random
import re
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg552 import construction as con
from pg552 import gf3space as gf3
from pg552 import graphs as gr
from pg552 import groups
from pg552 import incidence as inc
from pg552 import symmetry as sym
from pg552.bits import bits, mask_of, permute_mask


def relabel_incidence(g, perm):
    """The incidence structure with points renamed by ``perm``."""
    return inc.IncidenceStructure(g.v, (permute_mask(m, perm) for m in g.lines))


def test_compose_and_inverse():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert groups.compose(p, q) == (2, 1, 0)
    assert groups.compose(p, groups.inverse(p)) == (0, 1, 2)
    assert permute_mask(0b011, p) == 0b110


# --- stabilizer chain -------------------------------------------------------


def brute_elements(degree, gens):
    """Every element of the group as a byte string of images: the identity
    closed under right multiplication by the generators (``e.translate(g)``
    is e followed by g)."""
    tables = [bytes(g) + bytes(range(degree, 256)) for g in gens]
    elems = {bytes(range(degree))}
    frontier = list(elems)
    while frontier:
        nxt = []
        for e in frontier:
            for g in tables:
                h = e.translate(g)
                if h not in elems:
                    elems.add(h)
                    nxt.append(h)
        frontier = nxt
    return elems


def brute_order(degree, gens):
    return len(brute_elements(degree, gens))


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
        assert grp.order() == brute_order(degree, gens)


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
        assert o1 == o2 == brute_order(degree, gens)


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
        adj = [0] * n
        for i in range(n):
            adj[perm[i]] = permute_mask(g.adj[i], tuple(perm))
        cert2 = sym.canonical_form(
            sym.ColoredGraph.from_graph(gr.Graph(n, tuple(adj)))
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


# --- kernel invariants ------------------------------------------------------


IDENTITY = bytes(range(256))


def chain_levels(chain):
    while chain is not None and chain.basepoint is not None:
        yield chain
        chain = chain.stab


def check_stored_elements(chain):
    """Each level's transversal element maps the base point to its key,
    its stored inverse inverts it, and every element of its generating set
    fixes the earlier base points and, if it fixes the level's own, was
    passed on to the level below."""
    fixed = []
    for level in chain_levels(chain):
        assert level.inverses.keys() == level.transversal.keys()
        for p, u in level.transversal.items():
            assert u[level.basepoint] == p
            assert u.translate(level.inverses[p]) == IDENTITY
        for g in level.gens:
            assert all(g[b] == b for b in fixed)
            assert g[level.basepoint] != level.basepoint or g in level.stab.gens
        fixed.append(level.basepoint)


def test_stored_inverses_invert_transversals(aut_vls, aut_new):
    n = aut_vls.degree
    for grp in (aut_vls, aut_new):
        chains = [grp._chain]
        chains += [
            groups.PermutationGroup(n, grp.generators, base=b)._chain
            for b in (tuple(range(n)), tuple(reversed(range(n))))
        ]
        for chain in chains:
            check_stored_elements(chain)


def full_sift(chain, g):
    """The sift that walks every level of the chain: the residue of the
    byte-string permutation g, with no level skipped and no early stop."""
    level = chain
    while level is not None and level.basepoint is not None:
        u_inv = level.inverses.get(g[level.basepoint])
        if u_inv is None:
            return g
        g = g.translate(u_inv)
        level = level.stab
    return g


@st.composite
def permutation_groups(draw, max_n=12, max_gens=3):
    """(degree, generators, base prefix) of a random permutation group."""
    n = draw(st.integers(1, max_n))
    gens = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=max_gens))
    base = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return n, gens, tuple(base)


def full_bases(n):
    return [tuple(range(n)), tuple(reversed(range(n)))] + [
        tuple(random.Random(seed).sample(range(n), n)) for seed in (1, 2, 3)
    ]


def word(rng, gens, length=20):
    p = tuple(range(len(gens[0])))
    for _ in range(length):
        p = groups.compose(p, rng.choice(gens))
    return p


PINNED_GROUPS = {
    "aut-vls": lambda vls, new: sym.aut_incidence(vls),
    "aut-switched": lambda vls, new: sym.aut_incidence(new),
    "aut-point-graph-vls": lambda vls, new: sym.aut_graph(inc.point_graph(vls)),
    "aut-point-graph-switched": lambda vls, new: sym.aut_graph(inc.point_graph(new)),
}

# sha256 of repr([each level's (base point, sorted orbit)] for the chains
# under ``full_bases``).  These are invariants of the group and the base,
# the same for every complete chain, recorded with the stabilizer chain of
# commit b0be0c6, whose levels built Schreier generators from every element
# stored at or below them.
PINNED_ORBITS = {
    "aut-vls": "dc451df40e1a395b46fe7beb95e43f561cc3ebdaa0b09cc43f60bde902bb86d3",
    "aut-switched": "3b54c53ade8b0d10985c961163bcf4faed9589fcb09ec93651b776f9fa2cf40d",
    "aut-point-graph-vls": "476ce1f496949957df382249a0b3338882e6efe0ef59bf28cafe3ebfe4b418d9",
    "aut-point-graph-switched": "3b54c53ade8b0d10985c961163bcf4faed9589fcb09ec93651b776f9fa2cf40d",
}

# sha256 of repr([each level's (base point, transversal keys in insertion
# order, generators)] for the chains under ``full_bases``): the
# representation, which the order of insertion fixes, recorded with the
# chain in which a sift residue joins only the levels below the one whose
# Schreier generator gave it.
PINNED_CHAINS = {
    "aut-vls": "ab83b17ce36a3e54df2c18a224ea8a9f914e9f0d71e51380f462e114606a8141",
    "aut-switched": "16d2bf9ef921884b217dddf81bcea8d1af092be3106dcc5bb31f6b0bda2041b5",
    "aut-point-graph-vls": "bb74f08ebb6f25cd3adc10009451a5fe47d875d7e1a6362ca845885d7447bcda",
    "aut-point-graph-switched": "779097fdd0660bbbf788d19dfe70706e25fb24b4fd6be6b51ba7639a0cbbff62",
}


def pinned_chains(name, vls, new):
    """The group ``name`` of ``PINNED_GROUPS`` and its chains under
    ``full_bases``."""
    grp = PINNED_GROUPS[name](vls, new)
    n = grp.degree
    return grp, [groups.PermutationGroup(n, grp.generators, base=b)._chain for b in full_bases(n)]


@pytest.mark.parametrize("name", list(PINNED_ORBITS))
def test_chain_orbits_are_pinned(name, vls, new):
    _, chains = pinned_chains(name, vls, new)
    key = [[(lvl.basepoint, sorted(lvl.transversal)) for lvl in chain_levels(c)] for c in chains]
    assert hashlib.sha256(repr(key).encode()).hexdigest() == PINNED_ORBITS[name]


@pytest.mark.parametrize("name", list(PINNED_CHAINS))
def test_sift_residues_equal_full_walk_and_chains_are_pinned(name, vls, new):
    grp, chains = pinned_chains(name, vls, new)
    n, gens = grp.degree, grp.generators
    rng = random.Random(name)
    inputs = list(gens) + [word(rng, gens) for _ in range(100)]
    inputs += [tuple(rng.sample(range(n), n)) for _ in range(100)]
    for _ in range(100):
        p = list(word(rng, gens))
        i, j = rng.sample(range(n), 2)
        p[i], p[j] = p[j], p[i]
        inputs.append(tuple(p))
    members = 0
    for chain in chains:
        for p in inputs:
            padded = groups._pad(p)
            residue = chain.sift(padded)
            assert residue == full_sift(chain, padded)
            members += residue == IDENTITY
    assert members >= len(chains) * (len(gens) + 100)
    key = [
        [(lvl.basepoint, list(lvl.transversal), lvl.gens) for lvl in chain_levels(c)]
        for c in chains
    ]
    assert hashlib.sha256(repr(key).encode()).hexdigest() == PINNED_CHAINS[name]


def check_complete(chain):
    """Schreier's criterion at every level, under the conservative
    generating set: every element stored at that level or below.  Each
    orbit is the closure of the base point under that set, and every
    Schreier generator of the set sifts to the identity through the levels
    below, so, from the deepest level up, the stabilizer of each base point
    in the group of its level is the group of the levels below (Holt, Eick
    and O'Brien 2005, section 4.4)."""
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


@pytest.mark.parametrize("name", list(PINNED_GROUPS))
def test_pg552_chains_are_complete(name, vls, new):
    _, chains = pinned_chains(name, vls, new)
    for chain in chains:
        check_stored_elements(chain)
        check_complete(chain)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups(max_n=8, max_gens=4))
def test_random_chains_are_complete_and_exact(group):
    n, gens, base = group
    grp = groups.PermutationGroup(n, gens, base=base)
    check_stored_elements(grp._chain)
    check_complete(grp._chain)
    elements = brute_elements(n, gens)
    assert grp.order() == len(elements)
    rng = random.Random(repr(group))
    tests = [tuple(rng.sample(range(n), n)) for _ in range(50)]
    if gens:
        tests += [word(rng, gens, 5) for _ in range(50)]
    for p in tests:
        assert grp.contains(p) == (bytes(p) in elements)


# --- known-order base change and conjugation --------------------------------


def check_rebased(source, n, gens, base, phi=None):
    """``_rebase`` of the complete chain ``source`` onto ``base``, through
    the relabeling ``phi`` if given, against the deterministic chain of
    ``PermutationGroup(n, gens, base)``: the same order at every level of
    the base and the same orbit at every base point."""
    rebased = groups._rebase(source, base, None if phi is None else groups._pad(phi))
    want = groups.PermutationGroup(n, gens, base=base)._chain
    assert rebased.order() == source.order() == want.order()
    check_stored_elements(rebased)
    got_level, want_level = rebased, want
    for b in base:
        assert got_level.basepoint == want_level.basepoint == b
        assert got_level.transversal.keys() == want_level.transversal.keys()
        got_level, want_level = got_level.stab, want_level.stab
        assert got_level.order() == want_level.order()
    return rebased


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups(), st.data())
def test_rebase_keeps_the_order_and_every_orbit(group, data):
    n, gens, base = group
    source_base = tuple(data.draw(st.permutations(range(n))))
    source = groups.PermutationGroup(n, gens, base=source_base)._chain
    rebased = check_rebased(source, n, gens, base)
    assert chain_contents(groups._rebase(source, base)) == chain_contents(rebased)  # seeded


@pytest.mark.parametrize("name", list(PINNED_GROUPS))
def test_rebase_of_pg552_groups_under_random_bases(name, vls, new):
    grp = PINNED_GROUPS[name](vls, new)
    n = grp.degree
    for seed in (1, 2):
        base = tuple(random.Random(seed).sample(range(n), n))
        check_rebased(grp._chain, n, grp.generators, base)


def full_rescan_grow_orbit(level):
    """The orbit walk that rescans the whole orbit: every point, from the
    sorted old ones on, through every generator of the level."""
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups(), st.data())
def test_incremental_orbits_equal_full_rescans(group, data):
    # each level's orbit grows by its newest generator only; the points,
    # their order and every stored element are those of a full rescan
    n, gens, base = group
    onto = tuple(data.draw(st.permutations(range(n))))[: data.draw(st.integers(0, n))]

    def chains():
        chain = groups.PermutationGroup(n, gens, base=base)._chain
        return chain_contents(chain), chain_contents(groups._rebase(chain, onto))

    got = chains()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups._Chain, "_grow_orbit", full_rescan_grow_orbit)
        assert got == chains()


def recursive_insert(level, g):
    """Insertion as one recursion: append g at the level, pass it on to the
    level below if it fixes the base point, then grow the level's orbit and
    run its Schreier pass."""
    if level.basepoint is None:
        level._open(next(i for i in range(256) if g[i] != i))
    level.gens.append(g)
    if g[level.basepoint] == level.basepoint:
        level.stab.insert(g)
    level._grow_orbit()
    level._process_schreier()


def check_chains_equal_with(group, data, name, replacement):
    """The chains of ``group`` under its base and under a drawn one store
    what they store with ``_Chain.<name>`` replaced: every base point,
    transversal in insertion order, inverse and generating set."""
    n, gens, base = group
    other = tuple(data.draw(st.permutations(range(n))))[: data.draw(st.integers(0, n))]

    def chains():
        return [chain_contents(groups.PermutationGroup(n, gens, base=b)._chain)
                for b in (base, other)]

    got = chains()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups._Chain, name, replacement)
        assert got == chains()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups(), st.data())
def test_one_growth_walk_equals_the_recursive_insert(group, data):
    # placing an element and then running the passes of the levels it
    # joined, deepest first, stores what the recursion stores
    check_chains_equal_with(group, data, "insert", recursive_insert)


def two_translate_schreier_pass(level):
    """The Schreier pass that builds each Schreier generator in full, two
    translates, and discards it once it is built, if it is the identity."""
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups(), st.data())
def test_one_translate_schreier_test_builds_the_two_translate_chain(group, data):
    # a pair (p, s) is skipped when u_p s is the stored u_{s(p)}: exactly
    # the pairs whose Schreier generator is the identity, so the chain is
    # the one the pass that builds each generator in full stores
    check_chains_equal_with(group, data, "_process_schreier", two_translate_schreier_pass)


def recursive_order(level):
    """The product of the orbit lengths of every level of the chain."""
    if level.basepoint is None:
        return 1
    return len(level.transversal) * recursive_order(level.stab)


def check_orders(chain):
    """``order()`` of the chain and of every level below it is the product
    over every level, the levels with no generators included."""
    for level in [chain, *chain_levels(chain)]:
        assert level.order() == recursive_order(level)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups(), st.data())
def test_order_equals_the_product_over_every_level(group, data):
    # full-base chains, re-based chains, and restrictions: the action on
    # the first n points of the group acting on two copies of them
    n, gens, base = group
    full = tuple(data.draw(st.permutations(range(n))))
    grp = groups.PermutationGroup(n, gens, base=full)
    doubled = groups.PermutationGroup(2 * n, [g + tuple(n + x for x in g) for g in gens])
    restricted = doubled.restricted(n)
    assert restricted.order() == doubled.order() == grp.order()
    for chain in (grp._chain, groups._rebase(grp._chain, base), restricted._chain):
        check_orders(chain)


def check_stabilizer(grp, elements, prefix):
    """``stabilizer_gens(prefix)`` generates exactly the elements of
    ``elements``, the whole group, that fix each point of ``prefix``."""
    n = grp.degree
    got = brute_elements(n, [g[:n] for g in grp.stabilizer_gens(prefix)])
    assert got == {e for e in elements if all(e[p] == p for p in prefix)}, prefix


@settings(max_examples=150, deadline=None, derandomize=True)
@given(permutation_groups(max_n=7, max_gens=3), st.data())
def test_stabilizers_of_prefixes_are_exact(group, data):
    n, gens, base = group
    held = gens[-1:]  # joins the group between the calls
    grp = groups.PermutationGroup(n, gens[:-1], base=base)
    elements = brute_elements(n, grp.generators)
    on_base = [level.basepoint for level in chain_levels(grp._chain)]
    fork = data.draw(st.integers(0, len(on_base)))
    rest = [p for p in data.draw(st.permutations(range(n))) if p not in on_base[:fork]]
    off = on_base[:fork] + rest  # leaves the base after ``fork`` points
    walk = [off[:k] for k in range(len(off) + 1)]  # one point at a time
    walk += [on_base[:k] for k in range(len(on_base), -1, -1)]  # rejoins it
    walk += data.draw(st.lists(st.lists(st.integers(0, n - 1), unique=True), max_size=4))
    walk.append(off[: fork + 1])  # the last call keeps one re-based level
    for prefix in walk:
        check_stabilizer(grp, elements, prefix)
    for g in held:  # and ``add`` must drop it when the group grows
        grp.add(g)
        elements = brute_elements(n, gens)
        for prefix in reversed(walk):
            check_stabilizer(grp, elements, prefix)


def conjugated_chain(chain, phi):
    """The chain with each point x renamed ``phi[x]``, built explicitly:
    every stored element g, each level's generating set included, becomes
    phi^-1 g phi, and every base point and orbit point its image, in the
    same order."""
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


def chain_contents(chain):
    """Every stored element of a chain, level by level, in stored order."""
    return [
        (lvl.basepoint, lvl.gens, list(lvl.transversal.items()), list(lvl.inverses.items()))
        for lvl in chain_levels(chain)
    ]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups(), st.data())
def test_conjugate_group_equals_the_group_of_conjugated_generators(group, data):
    n, gens, base = group
    phi = tuple(data.draw(st.permutations(range(n))))
    inv = groups.inverse(phi)
    conjugated = [groups.compose(groups.compose(inv, g), phi) for g in gens]
    source = groups.PermutationGroup(n, gens, base=tuple(data.draw(st.permutations(range(n)))))
    explicit = conjugated_chain(source._chain, phi)
    check_stored_elements(explicit)
    rebased = check_rebased(source._chain, n, conjugated, base, phi)
    assert chain_contents(rebased) == chain_contents(groups._rebase(explicit, base))
    got = source.with_base(base, phi)
    assert chain_contents(got._chain) == chain_contents(rebased)
    want = groups.PermutationGroup(n, conjugated)
    assert got.generators == want.generators  # accepted at the same positions
    assert got.order() == want.order()
    rng = random.Random(repr(group))
    tests = [tuple(rng.sample(range(n), n)) for _ in range(20)]
    if conjugated:
        tests += [word(rng, conjugated, 5) for _ in range(20)]
    for p in tests:
        assert got.contains(p) == want.contains(p)


@st.composite
def colored_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    colors = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return sym.ColoredGraph(n, tuple(adj), tuple(colors))


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
    adj = [0] * cg.n
    colors = [0] * cg.n
    for v in range(cg.n):
        adj[perm[v]] = permute_mask(cg.adj[v], perm)
        colors[perm[v]] = cg.colors[v]
    return sym.ColoredGraph(cg.n, tuple(adj), tuple(colors))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colored_graphs(), st.data())
def test_certificate_invariant_under_relabeling(cg, data):
    perm = tuple(data.draw(st.permutations(range(cg.n))))
    f1 = sym.canonical_form(cg)
    f2 = sym.canonical_form(relabel(cg, perm))
    assert f1.certificate == f2.certificate
    assert f1.group.order() == f2.group.order()


def is_automorphism(cg, g):
    return all(
        cg.colors[g[v]] == cg.colors[v] and permute_mask(cg.adj[v], g) == cg.adj[g[v]]
        for v in range(cg.n)
    )


def brute_colored_aut_order(cg):
    return sum(is_automorphism(cg, perm) for perm in itertools.permutations(range(cg.n)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(colored_graphs(max_n=7))
def test_group_order_matches_brute_force_count(cg):
    assert sym.canonical_form(cg).group.order() == brute_colored_aut_order(cg)


def test_canonical_form_rejects_more_than_256_vertices():
    n = 257
    adj = tuple((1 << (i - 1) % n) | (1 << (i + 1) % n) for i in range(n))
    with pytest.raises(ValueError, match="256"):
        sym.canonical_form(sym.ColoredGraph(n, adj, (0,) * n))


def test_canonical_form_refuses_rows_it_cannot_decide(monkeypatch):
    def no_refinement(*args):
        raise AssertionError("refined rows it cannot decide")

    monkeypatch.setattr(sym, "refine", no_refinement)
    # vertex 0's row names vertex 2 of a 2-vertex graph
    with pytest.raises(ValueError, match="vertex 0: neighbour out of range"):
        sym.canonical_form(sym.ColoredGraph(2, (4, 0), (0, 0)))
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
    assert dataclasses.replace(cf, nodes=0, leaves=0, pruned=0) == cf


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


class _CheckedSearch(sym._Search):
    """Enumerates the whole subtree of each node the bound prunes."""

    checked = 0

    def _worse_below(self, mask_at, cell_of):
        pruned = super()._worse_below(mask_at, cell_of)
        if pruned:
            self.checked += 1
            for leaf in subtree_leaves(self.adj, list(filter(None, mask_at))):
                lab = [0] * self.n
                for pos, cell in enumerate(leaf):
                    lab[cell.bit_length() - 1] = pos
                cert = self._certificate(tuple(lab))
                assert cert > self.best_cert
                assert cert != self.first_cert
        return pruned


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


@pytest.mark.parametrize(
    "cg", [pytest.param(cg, id=name) for name, cg in pruning_cases()]
)
def test_pruned_subtrees_hold_only_worse_leaves(cg):
    search = _CheckedSearch(cg)
    cf = search.run()
    assert search.checked == cf.pruned > 0
    ref = _UnprunedSearch(cg).run()
    assert ref.pruned == 0 and ref.leaves > cf.leaves
    assert (cf.labeling, cf.certificate, cf.group.generators, cf.group.order()) == (
        ref.labeling, ref.certificate, ref.group.generators, ref.group.order()
    )


# --- cached pruning orbits --------------------------------------------------


def listed(cg, maps):
    """A seed for the search of ``cg`` from a list of its automorphisms,
    each checked first: the group they generate, carried onto ``cg`` by the
    identity."""
    maps = [tuple(g) for g in maps]
    for g in maps:
        assert sorted(g) == list(range(cg.n)) and is_automorphism(cg, g)
    return sym.Carried(cg, groups.PermutationGroup(cg.n, maps), tuple(range(cg.n)))


def group_elements(degree, gens, limit):
    """Every element of the group generated by ``gens`` (image tuples on
    0..degree-1), by closure under composition, or None if it has more than
    ``limit``."""
    identity = tuple(range(degree))
    elements = {identity}
    queue = [identity]
    while queue:
        e = queue.pop()
        for g in gens:
            h = groups.compose(e, g)
            if h not in elements:
                if len(elements) == limit:
                    return None
                elements.add(h)
                queue.append(h)
    return elements


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
            self.elements = len(gens), group_elements(self.n, gens, ELEMENT_LIMIT)
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
    list with the individualized vertex split off, and checks that the
    children leave the node's arrays as they were."""

    checked = 0

    def __init__(self, cg):
        super().__init__(cg)
        self.parents = []  # the cell lists of the nodes on the current path

    def _node(self, mask_at, cell_of, live, prefix):
        cells = partition_cells(self.n, mask_at, cell_of, live)
        if prefix:
            bit = 1 << prefix[-1]
            child = []
            for cell in self.parents[-1]:
                child += [bit, cell & ~bit] if cell & bit else [cell]
            assert cells == refined(self.adj, child, [bit])
            self.checked += 1
        saved = list(mask_at), list(cell_of), live
        self.parents.append(cells)
        super()._node(mask_at, cell_of, live, prefix)
        self.parents.pop()
        assert (mask_at, cell_of, live) == saved


@pytest.mark.parametrize(
    "cg", [pytest.param(cg, id=name) for name, cg in orbit_cases()]
)
def test_carried_partition_arrays_match_refinement_from_scratch(cg):
    search = _ArrayCheckedSearch(cg)
    cf = search.run()
    assert search.checked == cf.nodes - 1 > 0
    ref = sym.canonical_form(cg)
    assert (cf.labeling, cf.certificate, cf.group.generators) == (
        ref.labeling, ref.certificate, ref.group.generators
    )


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


def form_key(cf):
    return cf.labeling, cf.certificate, tuple(cf.group.generators), cf.group.order()


def digest(cf):
    return hashlib.sha256(repr(form_key(cf)).encode()).hexdigest()


@pytest.mark.parametrize("name", list(PINNED_FORMS))
def test_canonical_form_matches_pinned_digest(name, vls, new):
    build, want, counters, _ = PINNED_FORMS[name]
    cf = sym.canonical_form(build(vls, new))
    assert digest(cf) == want
    assert (cf.nodes, cf.leaves, cf.pruned) == counters


# --- the search against its older, first-path-only rules --------------------


class _FirstPathSearch(sym._Search):
    """The search under its older rules: orbit pruning only along the first
    path, and a backjump only from a leaf equal to the first one."""

    def _orbits(self, prefix, processed, cached):
        if self.base[: len(prefix)] == prefix:
            return super()._orbits(prefix, processed, cached)
        return len(self.group.generators), [], processed

    def _leaf(self, cell_of, prefix):
        super()._leaf(cell_of, prefix)
        if self.backjump is not None and self._certificate(tuple(cell_of)) != self.first_cert:
            self.backjump = None  # set by a leaf equal to the best one only


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


def carried_seed(g, h, perm):
    """g's incidence-graph automorphism group, as g's own search returned
    it, carried to ``h = relabel_incidence(g, perm)`` through the
    relabeling of g's incidence graph onto h's."""
    line_of = {m: j for j, m in enumerate(h.lines)}
    phi = perm + tuple(h.v + line_of[permute_mask(m, perm)] for m in g.lines)
    return sym.Carried(sym.colored_incidence_graph(g), sym.incidence_form(g).group, phi)


def conjugated_generators(seed):
    inv = groups.inverse(seed.phi)
    return [groups.compose(groups.compose(inv, a), seed.phi) for a in seed.group.generators]


def seed_free(cf):
    """What a seed may not change: the labeling, the certificate and the
    group order."""
    return cf.labeling, cf.certificate, cf.group.order()


def search_key(cf):
    return form_key(cf) + (cf.nodes, cf.leaves, cf.pruned)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(colored_graphs(), st.data())
def test_seeded_search_finds_the_canonical_form(cg, data):
    perm = tuple(data.draw(st.permutations(range(cg.n))))
    h = relabel(cg, perm)
    inv = groups.inverse(perm)
    cf = sym.canonical_form(cg)
    known = [groups.compose(groups.compose(inv, a), perm) for a in cf.group.generators]
    want = seed_free(_FirstPathSearch(h).run())
    unseeded = sym.canonical_form(h)
    assert seed_free(unseeded) == want
    assert search_key(unseeded) == search_key(sym.canonical_form(h, listed(h, [])))
    by_list = sym.canonical_form(h, listed(h, known))
    assert seed_free(by_list) == want
    by_seed = sym.canonical_form(h, sym.Carried(cg, cf.group, perm))
    assert search_key(by_seed) == search_key(by_list)


@pytest.mark.parametrize("name", list(PINNED_FORMS))
def test_seeded_search_on_pinned_graphs(name, vls, new):
    cg = PINNED_FORMS[name][0](vls, new)
    cf = sym.canonical_form(cg)
    seeded = sym.canonical_form(cg, listed(cg, cf.group.generators))
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
    for known in (None, listed(cg, carried(g, h, perm))):
        cf = sym.canonical_form(cg, known)
        assert seed_free(cf) == seed_free(old)
        assert cf.leaves <= old.leaves


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
    # re-based: the search must be the one seeded with the conjugated
    # generators as a list, counters included, and its first group must
    # hold the elements that re-basing an explicitly conjugated chain would.
    _, g, h, perm = case
    cg = sym.colored_incidence_graph(h)
    seed = carried_seed(g, h, perm)
    known = conjugated_generators(seed)
    assert known == carried(g, h, perm)
    search = _FirstPathRecordingSearch(cg, seed)
    by_seed = search.run()
    assert search_key(by_seed) == search_key(sym.canonical_form(cg, listed(cg, known)))
    assert seed_free(by_seed) == seed_free(sym.canonical_form(cg))
    assert by_seed.group is not seed.group and seed.group.order() == by_seed.group.order()
    explicit = conjugated_chain(seed.group._chain, seed.phi)
    assert search.seeded == chain_contents(groups._rebase(explicit, tuple(search.base)))


@pytest.mark.parametrize(
    "case", [pytest.param(c, id=c[0]) for c in relabeled_geometries(1)]
)
def test_carried_relabeling_must_be_an_isomorphism(case):
    _, g, h, perm = case
    cg = sym.colored_incidence_graph(h)
    seed = carried_seed(g, h, perm)
    identity = tuple(range(cg.n))
    assert not is_automorphism(seed.source, (1, 0) + identity[2:])
    swapped = (seed.phi[1], seed.phi[0]) + seed.phi[2:]
    with pytest.raises(ValueError, match="relabeling is not an isomorphism"):
        sym.canonical_form(cg, dataclasses.replace(seed, phi=swapped))
    # the point and the line that phi sends to h's vertices 0 and 81 trade
    # images, so the check meets the wrong colour at vertex 0 first
    point, line = seed.phi.index(0), seed.phi.index(81)
    recoloured = list(seed.phi)
    recoloured[point], recoloured[line] = 81, 0
    with pytest.raises(ValueError, match="relabeling does not preserve colors"):
        sym.canonical_form(cg, dataclasses.replace(seed, phi=tuple(recoloured)))
    with pytest.raises(ValueError, match="relabeling is not a permutation"):
        sym.canonical_form(cg, dataclasses.replace(seed, phi=seed.phi[:-1]))
    with pytest.raises(ValueError, match="carried group acts on 80 points"):
        sym.canonical_form(cg, dataclasses.replace(seed, group=groups.PermutationGroup(80)))


# summed (nodes, leaves, pruned) of the first five seeded relabeled searches
# per geometry of the certificate-stability claim, recorded with the
# searches seeded by explicitly conjugated groups at commit 3ef1bc9
PINNED_CLAIM_WORK = {"vls": (35, 5, 0), "new": (76, 15, 16)}


def test_claim_search_work_is_pinned(vls, new):
    # the loop of cli._claim_isomorphism_and_duality with 5 relabelings
    rng = random.Random(20210522)
    for name, g in [("vls", vls), ("new", new)]:
        source, group = sym.colored_incidence_graph(g), sym.incidence_form(g).group
        work = [0, 0, 0]
        for _ in range(5):
            perm = list(range(g.v))
            rng.shuffle(perm)
            masks = [permute_mask(m, perm) for m in g.lines]
            h = inc.IncidenceStructure(g.v, masks)
            line_of = {m: j for j, m in enumerate(h.lines)}
            phi = tuple(perm) + tuple(g.v + line_of[m] for m in masks)
            cf = sym.canonical_form(sym.colored_incidence_graph(h), sym.Carried(source, group, phi))
            assert cf.certificate == sym.incidence_form(g).certificate
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
    # Seeded with the whole group, off-path pruning under the prefix's
    # pointwise stabilizer enters a node only if its prefix is the least
    # of its orbit: no two entered sibling subtrees are equivalent.
    _, g, h, perm = case
    cg = sym.colored_incidence_graph(h)
    known = carried(g, h, perm)
    assert all(is_automorphism(cg, a) for a in known)
    elements = group_elements(cg.n, known, ELEMENT_LIMIT)
    assert elements is not None and len(elements) == 972
    search = _PrefixRecordingSearch(cg, listed(cg, known))
    cf = search.run()
    assert len(search.prefixes) == cf.nodes
    for prefix in search.prefixes:
        assert min(tuple(a[p] for p in prefix) for a in elements) == prefix


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
            assert all(
                self.colors[g[v]] == self.colors[v]
                and permute_mask(self.adj[v], g) == self.adj[g[v]]
                for v in range(self.n)
            )
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
        yield f"{name}-seeded", cg, listed(cg, carried(g, h, perm))


def test_off_path_skips_are_images_under_checked_automorphisms():
    off_path = best_backjumps = 0
    for name, cg, known in skip_cases():
        search = _SkipCheckedSearch(cg, known)
        assert seed_free(search.run()) == seed_free(_FirstPathSearch(cg).run()), name
        off_path += search.off_path
        best_backjumps += search.best_backjumps
    assert off_path > 0 and best_backjumps > 0


# --- search kernels against their references --------------------------------


def refine_reference(adj, mask_at, cell_of, live, active) -> int:
    """The plain form of ``refine``, which it must match on every input:
    a deque of splitters, a sorted list of split starts for every splitter,
    fragments built by a comprehension and a bit loop per fragment."""
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
    # every refinement of the search the certificate-stability claim runs
    _, g, h, perm = case
    real = sym.refine
    calls = 0

    def compared(adj, mask_at, cell_of, live, active):
        nonlocal calls
        calls += 1
        got, want = both_refinements(real, adj, mask_at, cell_of, live, active)
        assert got == want
        live = real(adj, mask_at, cell_of, live, active)
        assert (mask_at, cell_of, live) == got
        return live

    seed, want = carried_seed(g, h, perm), sym.incidence_form(g).certificate
    monkeypatch.setattr(sym, "refine", compared)
    cf = sym.canonical_form(sym.colored_incidence_graph(h), seed)
    assert cf.certificate == want
    assert calls == cf.nodes  # one refinement per node, the root's in run()


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


# --- the search's group, placed without Schreier passes ---------------------


def searched_with_passes(cg):
    """The unseeded search of ``cg`` with each automorphism added as the
    search once added it: sifted, then placed with the Schreier passes of
    the levels it joined.  Returns the form and the maps the search gave
    ``add_strong``."""
    given = []

    def add_with_passes(grp, g):
        given.append(tuple(g))
        padded = groups._pad(g)
        if grp._chain.sift(padded) == IDENTITY:
            return False
        grp.generators.append(tuple(g))
        grp._chain.insert(padded)
        grp._path = (None, [])
        return True

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groups.PermutationGroup, "add_strong", add_with_passes)
        return sym.canonical_form(cg), given


def check_search_group(cg):
    """The chain of the unseeded search of ``cg`` meets Schreier's
    criterion, and the search with the passes run builds it level by level
    and finds the same form with the same work."""
    cf = sym.canonical_form(cg)
    chain = cf.group._chain
    check_stored_elements(chain)
    check_complete(chain)
    old, given = searched_with_passes(cg)
    assert set(cf.group.generators) <= set(given)
    assert search_key(cf) == search_key(old)
    assert chain_contents(chain) == chain_contents(old.group._chain)


@st.composite
def twin_structures(draw, max_points=5, max_twins=3):
    """An incidence structure on a few points, each with up to
    ``max_twins`` twins: further points on exactly its lines."""
    k = draw(st.integers(1, max_points))
    lines = draw(st.lists(st.integers(1, (1 << k) - 1), unique=True, max_size=4))
    copies = [[p] for p in range(k)]
    v = k
    for p in range(k):
        for _ in range(draw(st.integers(0, max_twins))):
            copies[p].append(v)
            v += 1
    return inc.IncidenceStructure(
        v, [mask_of(x for p in bits(m) for x in copies[p]) for m in lines])


def interchangeable_cases():
    """Graphs whose searches record many automorphisms of large symmetric
    groups: ``pg n 0``, a structure with twin classes and its point graph."""
    for n in (1, 2, 3, 8, 20):
        yield f"pg-{n}-0", sym.colored_incidence_graph(inc.IncidenceStructure(n, []))
    twins = inc.IncidenceStructure(30, [mask_of((2, 3, 7, 8, 9)),
                                        mask_of((0, 2, 7, 8, 10, 11))])
    yield "pg-30-2-twins", sym.colored_incidence_graph(twins)
    yield "pg-30-2-twins-point-graph", sym.ColoredGraph.from_graph(inc.point_graph(twins))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(colored_graphs())
def test_search_group_is_complete_and_equals_the_one_built_with_passes(cg):
    check_search_group(cg)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(twin_structures())
def test_search_group_of_twin_points_is_complete(g):
    check_search_group(sym.colored_incidence_graph(g))
    check_search_group(sym.ColoredGraph.from_graph(inc.point_graph(g)))


@pytest.mark.parametrize(
    "cg", [pytest.param(cg, id=name) for name, cg in interchangeable_cases()]
)
def test_search_group_on_interchangeable_points(cg):
    check_search_group(cg)


def sift_inputs(rng, n, gens, count=30):
    """Members (the generators and words in them), random permutations and
    near-members (a word with two images swapped)."""
    inputs = list(gens) + [word(rng, gens) for _ in range(count)]
    inputs += [tuple(rng.sample(range(n), n)) for _ in range(count)]
    for _ in range(count):
        p = list(word(rng, gens))
        i, j = rng.sample(range(n), 2)
        p[i], p[j] = p[j], p[i]
        inputs.append(tuple(p))
    return inputs


@pytest.mark.parametrize("name", list(PINNED_GROUPS))
def test_sift_residues_equal_full_walk_off_the_pinned_bases(name, vls, new):
    # the group's own chain (re-based onto the points from the incidence
    # search's, or the point graph search's own), a re-base of it and a
    # renamed re-base, and the chain of the incidence search
    grp = PINNED_GROUPS[name](vls, new)
    n = grp.degree
    rng = random.Random(name)
    phi = tuple(rng.sample(range(n), n))
    renamed = grp.with_base(tuple(rng.sample(range(n), 3)), phi)
    rebased = groups._rebase(grp._chain, tuple(rng.sample(range(n), n)))
    form = sym.incidence_form(vls if name.endswith("vls") else new).group
    cases = [(grp._chain, grp), (rebased, grp), (renamed._chain, renamed), (form._chain, form)]
    for chain, owner in cases:
        inputs = sift_inputs(rng, owner.degree, owner.generators)
        members = 0
        for p in inputs:
            padded = groups._pad(p)
            residue = chain.sift(padded)
            assert residue == full_sift(chain, padded)
            members += residue == IDENTITY
        assert len(owner.generators) + 30 <= members < len(inputs)


def non_permutations(rng, n, count):
    """Tuples of length n that are no permutation of 0..n-1: a permutation
    with one entry repeated, or with one entry moved into n..255."""
    out = []
    for _ in range(count):
        p = rng.sample(range(n), n)
        if n > 1:
            q = list(p)
            i, j = rng.sample(range(n), 2)
            q[i] = q[j]
            out.append(tuple(q))
        if 0 < n < 256:
            q = list(p)
            q[rng.randrange(n)] = rng.randrange(n, 256)
            out.append(tuple(q))
    return out


def check_contains_equals_full_walk(grp, rng, count):
    """``contains``, which sifts the degree's bytes of an image, against
    the padded walk through every level, on members, random permutations,
    near-members and tuples of the right length that are no permutations;
    returns the number of members."""
    n = grp.degree
    if grp.generators:
        inputs = sift_inputs(rng, n, grp.generators, count)
    else:
        inputs = [tuple(rng.sample(range(n), n)) for _ in range(count)]
    inputs += non_permutations(rng, n, count)
    members = 0
    for p in inputs:
        want = full_sift(grp._chain, groups._pad(p)) == IDENTITY
        assert grp.contains(p) == want, p
        members += want
    return members


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups())
def test_contains_equals_the_padded_full_walk(group):
    n, gens, base = group
    grp = groups.PermutationGroup(n, gens, base=base)
    members = check_contains_equals_full_walk(grp, random.Random(repr(group)), 10)
    assert members >= len(grp.generators) + 10 * bool(grp.generators)


@pytest.mark.parametrize("name", list(PINNED_GROUPS))
def test_contains_of_the_pinned_groups_equals_the_padded_full_walk(name, vls, new):
    grp = PINNED_GROUPS[name](vls, new)
    members = check_contains_equals_full_walk(grp, random.Random(name), 30)
    assert members == len(grp.generators) + 30
    check_orders(grp._chain)


@pytest.mark.parametrize("degree, gens, order", [
    (0, [], 1),
    (256, [tuple(range(1, 256)) + (0,), tuple(range(255, -1, -1))], 512),  # dihedral
    (256, [tuple(range(253)) + (254, 255, 253), tuple(range(254)) + (255, 254)], 6),
], ids=["degree-0", "dihedral-256", "last-points-256"])
def test_contains_at_the_edge_degrees(degree, gens, order):
    # an empty image at 0, and nothing left to pad at 256
    grp = groups.PermutationGroup(degree, gens)
    assert grp.order() == order
    assert grp.contains(tuple(range(degree)))
    check_contains_equals_full_walk(grp, random.Random(degree), 20)


def restricted_generators(g, on):
    start, stop = (0, g.v) if on == "points" else (g.v, g.v + g.b)
    return [tuple(x - start for x in p[start:stop])
            for p in sym.incidence_form(g).group.generators]


def check_restriction(g, on):
    """``aut_incidence(g, on)`` against Schreier-Sims on the restricted
    generators of the incidence group: the same generators, order, orbits
    and members, and a complete chain."""
    got = sym.aut_incidence(g, on)
    gens = restricted_generators(g, on)
    want = groups.PermutationGroup(got.degree, gens)
    assert got.generators == want.generators
    assert got.order() == want.order()
    assert got.orbits() == want.orbits()
    check_stored_elements(got._chain)
    check_complete(got._chain)
    if gens and got.degree > 1:
        rng = random.Random(repr(g))
        for p in sift_inputs(rng, got.degree, gens, count=10):
            assert got.contains(p) == want.contains(p)
    return got, gens


@settings(max_examples=60, deadline=None, derandomize=True)
@given(twin_structures(max_twins=1))
def test_faithful_restrictions_keep_every_generator(g):
    got, gens = check_restriction(g, "points")
    assert got.generators == gens
    assert got.order() == sym.incidence_form(g).group.order()
    check_restriction(g, "lines")


@pytest.mark.parametrize("on", ["points", "lines"])
def test_restrictions_of_the_geometries_keep_every_generator(on, vls, new):
    for g in (vls, new):
        got, gens = check_restriction(g, on)
        assert got.generators == gens


def test_line_action_of_twin_points_is_not_faithful():
    # the lines 0 1 and 2 3: swapping 0 and 1 fixes both lines, so the line
    # group is the image, of order 2, of the point group of order 8
    g = inc.IncidenceStructure(4, [0b0011, 0b1100])
    assert sym.aut_incidence(g).order() == 8
    lines = sym.aut_incidence(g, "lines")
    assert lines.order() == 2 and lines.contains((1, 0))
    check_restriction(g, "lines")
