"""Exact-cover geometry reconstruction and zero-sum weighting experiments."""

import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pg552 import cliques as cl
from pg552 import construction as con
from pg552 import geometric_search as gs
from pg552 import graphs as gr
from pg552 import incidence as inc
from pg552 import symmetry as sym
from pg552.bits import bits, mask_of


def test_exact_cover_knuth_example():
    # the classic 7-column instance with the unique solution {0, 3, 4}
    rows = [
        mask_of([2, 4, 5]),
        mask_of([0, 3, 6]),
        mask_of([1, 2, 5]),
        mask_of([0, 3]),
        mask_of([1, 6]),
        mask_of([3, 4, 6]),
    ]
    assert gs._exact_covers(7, tuple(rows)) == [(0, 3, 4)]


def test_exact_cover_no_solution():
    assert gs._exact_covers(3, (mask_of([0, 1]), mask_of([1, 2]))) == []


def test_exact_cover_beyond_recursion_limit():
    # 1100 singletons: one solution that chooses 1100 sets in turn
    assert gs._exact_covers(1100, tuple(1 << i for i in range(1100))) == [
        tuple(range(1100))
    ]


def covers_by_brute_force(universe_size, sets):
    """Every subset of the set indices whose sets are pairwise disjoint and
    cover 0..universe_size-1, tried one subset at a time."""
    full = (1 << universe_size) - 1
    found = []
    for r in range(len(sets) + 1):
        for chosen in itertools.combinations(range(len(sets)), r):
            union = 0
            for i in chosen:
                if union & sets[i]:
                    break
                union |= sets[i]
            else:
                if union == full:
                    found.append(chosen)
    return sorted(found)


@st.composite
def set_systems(draw):
    """Up to 12 nonempty sets over a universe of 1 to 10 elements, drawn
    small about half of the time so that covers are common."""
    n = draw(st.integers(1, 10))
    width = draw(st.integers(1, n))
    sets = draw(st.lists(st.integers(1, (1 << n) - 1), max_size=12))
    if draw(st.booleans()):
        sets = [s & ((1 << width) - 1) << draw(st.integers(0, n - width)) or 1
                for s in sets]
    return n, tuple(sets)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(set_systems())
def test_exact_covers_match_brute_force(system):
    n, sets = system
    assert gs._exact_covers(n, sets) == covers_by_brute_force(n, sets)


def test_edge_partition_k6_plus_isolated():
    k6 = mask_of(range(6))
    adj = [0] * 81
    for i in range(6):
        adj[i] = k6 & ~(1 << i)
    g = gr.Graph(81, tuple(adj))
    assert gs.edge_clique_partitions(g) == [(k6,)]


def test_edge_clique_partitions_cover_each_edge_once(point_graph_vls, point_graph_new):
    for g in (point_graph_vls, point_graph_new):
        edges = g.edges()
        assert len(edges) == 1215
        partitions = gs.edge_clique_partitions(g)
        assert partitions
        for cliques in partitions:
            covered = Counter()
            for c in cliques:
                assert c.bit_count() == 6
                covered.update(itertools.combinations(bits(c), 2))
            assert sorted(covered) == edges  # each a 15-edge clique of g
            assert set(covered.values()) == {1}


def test_all_geometries_on_vls(vls, point_graph_vls):
    sols = gs.all_geometries_on(point_graph_vls)
    assert len(sols) == 2  # brute-forced count, kept as a regression value
    line_sets = [s.lines for s in sols]
    assert vls.lines in line_sets
    assert tuple(con.negative_lines(vls)) in line_sets
    for s in sols:
        assert sym.is_isomorphic(s, vls)


def test_all_geometries_on_new(new, point_graph_new):
    sols = gs.all_geometries_on(point_graph_new)
    assert len(sols) == 1  # brute-forced count, kept as a regression value
    assert sols[0].lines == new.lines
    assert sym.is_isomorphic(sols[0], new)


def covers_by_lowest_edge(g):
    """Every partition of the edges of ``g`` into 6-cliques, by a second
    rule that shares no code with ``_exact_covers``: branch on the lowest
    uncovered edge (x, y), over every 6-clique through it whose 15 edges
    are all uncovered, found among the common neighbours of x and y
    without ``max_cliques``.  ``free[v]`` masks the neighbours u of v whose
    edge uv is uncovered.  Returns sorted tuples of clique masks, sorted."""
    solutions = []

    def search(free, chosen):
        x = next((v for v in range(g.n) if free[v]), None)
        if x is None:
            solutions.append(tuple(sorted(chosen)))
            return
        y = (free[x] & -free[x]).bit_length() - 1
        for rest in itertools.combinations(bits(free[x] & free[y]), 4):
            if all(free[a] >> b & 1 for a, b in itertools.combinations(rest, 2)):
                clique = mask_of((x, y) + rest)
                child = list(free)
                for v in bits(clique):
                    child[v] &= ~clique
                search(child, chosen + [clique])

    search(list(g.adj), [])
    return sorted(solutions)


def test_second_enumerator_recounts_the_geometries(point_graph_vls, point_graph_new):
    for g, count in ((point_graph_vls, 2), (point_graph_new, 1)):
        covers = covers_by_lowest_edge(g)
        assert len(covers) == count
        assert covers == sorted(gs.edge_clique_partitions(g))


def test_weighting_requires_zero_sum():
    with pytest.raises(ValueError):
        gs.Weighting((Fraction(1),) * 3)


def test_star_weighting_counts(vls, new):
    for g in (vls, new):
        w = gs.star_weighting(g, 0)
        assert sum(w.weights) == 0
        count, nonneg = gs.count_nonnegative_lines(g, w)
        assert count == 6
        assert nonneg == g.pencils[0]


def test_star_weighting_line_sums(vls):
    w = gs.star_weighting(vls, 0)
    for i, m in enumerate(vls.lines):
        expect = Fraction(75) if m & 1 else Fraction(-6)
        assert w.line_sum(m) == expect


def test_all_zero_weighting(vls):
    w = gs.Weighting((Fraction(0),) * 81)
    count, _ = gs.count_nonnegative_lines(vls, w)
    assert count == 81


def test_negation_inequality(vls):
    rng = random.Random(17)
    for _ in range(5):
        vals = [Fraction(rng.randrange(-9, 10)) for _ in range(80)]
        vals.append(-sum(vals))
        w = gs.Weighting(tuple(vals))
        neg = gs.Weighting(tuple(-x for x in vals))
        c1, _ = gs.count_nonnegative_lines(vls, w)
        c2, _ = gs.count_nonnegative_lines(vls, neg)
        assert c1 + c2 >= 81  # lines summing to exactly 0 are counted twice


def test_scaling_invariance(vls):
    w = gs.star_weighting(vls, 3)
    scaled = gs.Weighting(tuple(Fraction(7, 5) * x for x in w.weights))
    assert gs.count_nonnegative_lines(vls, w) == gs.count_nonnegative_lines(vls, scaled)


def _first_non_star(g):
    rep = cl.max_cliques(inc.line_graph(g))
    _, non_stars = cl.classify_line_cliques(g, rep.cliques_of_size_6)
    return non_stars


def test_mms_rejects_star(vls):
    rep = cl.max_cliques(inc.line_graph(vls))
    stars, _ = cl.classify_line_cliques(vls, rep.cliques_of_size_6)
    with pytest.raises(ValueError):
        gs.mms_counterexample_search(vls, stars[0])


def test_mms_witness_vls(vls):
    non_stars = _first_non_star(vls)
    w = gs.mms_counterexample_search(vls, non_stars[0])
    assert w is not None
    assert sum(w.weights) == 0
    count, nonneg = gs.count_nonnegative_lines(vls, w)
    assert count <= 6
    star_masks = set(vls.pencils)
    assert nonneg not in star_masks
    # this witness pins the 6 nonnegative lines to the chosen clique itself
    assert nonneg == non_stars[0]


def test_mms_witness_new(new):
    non_stars = _first_non_star(new)
    assert len(non_stars) == 27
    w = gs.mms_counterexample_search(new, non_stars[0])
    assert w is not None
    count, nonneg = gs.count_nonnegative_lines(new, w)
    assert count <= 6
    assert nonneg not in set(new.pencils)


def test_mms_deterministic(vls):
    non_stars = _first_non_star(vls)
    w1 = gs.mms_counterexample_search(vls, non_stars[0])
    w2 = gs.mms_counterexample_search(vls, non_stars[0])
    assert w1.weights == w2.weights


def test_mms_exhausted_reports_none(vls):
    non_stars = _first_non_star(vls)
    assert gs.mms_counterexample_search(vls, non_stars[0], bound=0) is None


def _grid_by_filtered_product(ncells, bound):
    for radius in range(bound + 1):
        rng = range(-radius, radius + 1)
        for values in itertools.product(rng, repeat=ncells - 1):
            if radius == 0 or max(map(abs, values)) == radius:
                yield values


def mms_by_fractions(g, clique, bound):
    """``mms_counterexample_search`` as a per-line ``Fraction`` sum at every
    point of the grid, filtered from the full product of each radius."""
    cells = gs._incidence_cells(g, clique)
    if len(cells) < 2:
        return None
    sizes = [c.bit_count() for c in cells]
    profiles = [tuple((m & c).bit_count() for c in cells) for m in g.lines]
    for values in _grid_by_filtered_product(len(cells), bound):
        forced = Fraction(-sum(s * x for s, x in zip(sizes, values)), sizes[-1])
        cell_w = [Fraction(x) for x in values] + [forced]
        if not any(cell_w):
            continue
        nonneg = sum(1 << i for i, prof in enumerate(profiles)
                     if sum(n * w for n, w in zip(prof, cell_w)) >= 0)
        if nonneg.bit_count() <= 6 and nonneg not in set(g.pencils):
            weights = [Fraction(0)] * g.v
            for c, w in zip(cells, cell_w):
                for p in bits(c):
                    weights[p] = w
            return gs.Weighting(tuple(weights))
    return None


def test_cell_value_grid_is_the_filtered_product():
    for ncells in (2, 3, 4):
        for bound in (0, 1, 2, 4):
            assert list(gs._cell_value_grid(ncells, bound)) == list(
                _grid_by_filtered_product(ncells, bound))


@pytest.mark.parametrize("name", ["vls", "new"])
def test_mms_matches_the_fraction_reference_on_both_geometries(name, request):
    g = request.getfixturevalue(name)
    for clique in _first_non_star(g)[:27]:  # all of new's, a third of vls's
        for bound in (0, 1, 3):
            assert gs.mms_counterexample_search(g, clique, bound) == mms_by_fractions(
                g, clique, bound)


@st.composite
def non_star_cliques(draw):
    """A small structure and a non-star 6-clique of its line graph: six
    distinct lines that meet pairwise, each pair in a drawn point, each
    line with one more drawn point, and no point on all six.  More lines
    may follow."""
    v = draw(st.integers(5, 10))
    point = st.integers(0, v - 1)
    six = [1 << draw(point) for _ in range(6)]
    for i, j in itertools.combinations(range(6), 2):
        p = draw(point)
        six[i] |= 1 << p
        six[j] |= 1 << p
    assume(len(set(six)) == 6 and not functools.reduce(int.__and__, six))
    more = draw(st.lists(st.integers(1, (1 << v) - 1), max_size=6))
    g = inc.IncidenceStructure(v, six + more)
    return g, sum(1 << g.lines.index(m) for m in six)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(non_star_cliques())
def test_mms_matches_the_fraction_reference(case):
    g, clique = case
    for bound in (0, 1, 3):
        assert gs.mms_counterexample_search(g, clique, bound) == mms_by_fractions(
            g, clique, bound)
