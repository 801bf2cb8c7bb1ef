"""Permutation groups: the kernel invariants of the Schreier–Sims
stabilizer chain, known-order base change and conjugation, membership and
restriction, and the group the canonical search places without Schreier
passes.

Group orders are cross-checked against closing the generator set under
composition, and each chain kernel against the older one it replaced; the
older kernels and the brute-force recounts live in ``references.py``.
"""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (IDENTITY, TEXTBOOK, brute_elements, chain_contents, chain_levels,
                        check_complete, colored_graphs, conjugated, conjugated_chain,
                        full_rescan_grow_orbit, recursive_insert, recursive_order, search_key,
                        sifted_members, two_translate_schreier_pass)

from pg552 import groups
from pg552 import incidence as inc
from pg552 import symmetry as sym
from pg552.bits import bits, mask_of


# --- kernel invariants ------------------------------------------------------


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
    inputs = sift_inputs(random.Random(name), n, gens, 100)
    members = sum(sifted_members(chain, inputs) for chain in chains)
    assert members >= len(chains) * (len(gens) + 100)
    key = [
        [(lvl.basepoint, list(lvl.transversal), lvl.gens) for lvl in chain_levels(c)]
        for c in chains
    ]
    assert hashlib.sha256(repr(key).encode()).hexdigest() == PINNED_CHAINS[name]


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups(), st.data())
def test_one_translate_schreier_test_builds_the_two_translate_chain(group, data):
    # a pair (p, s) is skipped when u_p s is the stored u_{s(p)}: exactly
    # the pairs whose Schreier generator is the identity, so the chain is
    # the one the pass that builds each generator in full stores
    check_chains_equal_with(group, data, "_process_schreier", two_translate_schreier_pass)


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups(), st.data())
def test_conjugate_group_equals_the_group_of_conjugated_generators(group, data):
    n, gens, base = group
    phi = tuple(data.draw(st.permutations(range(n))))
    renamed = conjugated(gens, phi)
    source = groups.PermutationGroup(n, gens, base=tuple(data.draw(st.permutations(range(n)))))
    explicit = conjugated_chain(source._chain, phi)
    check_stored_elements(explicit)
    rebased = check_rebased(source._chain, n, renamed, base, phi)
    assert chain_contents(rebased) == chain_contents(groups._rebase(explicit, base))
    got = source.with_base(base, phi)
    assert chain_contents(got._chain) == chain_contents(rebased)
    want = groups.PermutationGroup(n, renamed)
    assert got.generators == want.generators  # accepted at the same positions
    assert got.order() == want.order()
    rng = random.Random(repr(group))
    tests = [tuple(rng.sample(range(n), n)) for _ in range(20)]
    if renamed:
        tests += [word(rng, renamed, 5) for _ in range(20)]
    for p in tests:
        assert got.contains(p) == want.contains(p)


# --- least images ------------------------------------------------------------


def check_least_image(grp, elements, points):
    """``least_image(points)`` is an element of ``elements``, the whole
    group, whose images of ``points`` are the least over all of them."""
    g = grp.least_image(points)
    assert bytes(g) in elements
    assert tuple(g[p] for p in points) == min(tuple(e[p] for p in points) for e in elements)


@pytest.mark.parametrize("name", ["w2", "pg23", "net(3,3)", "net(4,3)"])
def test_least_image_on_textbook_groups(name, monkeypatch):
    grp = sym.aut_incidence(dict(TEXTBOOK)[name])
    n = grp.degree
    elements = brute_elements(n, grp.generators)
    on_base = [level.basepoint for level in chain_levels(grp._chain)]
    rng = random.Random(name)
    off_base = [tuple(rng.sample(range(n), k)) for k in range(n + 1)]
    for points in off_base:
        check_least_image(grp, elements, points)
    # points that start the chain's base are read off its transversals
    monkeypatch.setattr(groups, "_rebase", None)
    for points in [on_base[:k] for k in range(len(on_base) + 1)] + [on_base + [0, 1]]:
        check_least_image(grp, elements, points)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permutation_groups(max_n=8, max_gens=3), st.data())
def test_least_image_is_the_least_over_all_elements(group, data):
    n, gens, base = group
    grp = groups.PermutationGroup(n, gens, base=base)
    elements = brute_elements(n, gens)
    on_base = [level.basepoint for level in chain_levels(grp._chain)]
    cut = data.draw(st.integers(0, len(on_base)))
    off = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    for points in (on_base[:cut], on_base[:cut] + off, off):
        check_least_image(grp, elements, points)


@pytest.mark.parametrize("points", [(4,), (0, -1), (1, 2, 300)])
def test_least_image_refuses_points_out_of_range(points):
    grp = groups.PermutationGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    with pytest.raises(ValueError, match="point .* out of range 0..3"):
        grp.least_image(points)
    assert grp.least_image((3, 1)) == (3, 2, 1, 0)  # the one element sending 3 to 0


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


# --- membership and restriction ---------------------------------------------


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
        members = sifted_members(chain, inputs)
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
    return sifted_members(grp._chain, inputs, grp.contains)


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


def check_restriction(g, on):
    """``aut_incidence(g, on)`` against Schreier-Sims on the restricted
    generators of the incidence group: the same generators, order, orbits
    and members, and a complete chain."""
    got = sym.aut_incidence(g, on)
    start, stop = (0, g.v) if on == "points" else (g.v, g.v + g.b)
    gens = [tuple(x - start for x in p[start:stop])
            for p in sym.incidence_form(g).group.generators]
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


def test_aut_incidence_refuses_an_unknown_action():
    g = inc.IncidenceStructure(4, [0b0011, 0b1100])
    with pytest.raises(ValueError, match="unknown action 'blocks'"):
        sym.aut_incidence(g, on="blocks")
