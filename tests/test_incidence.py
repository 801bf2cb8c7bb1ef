"""Incidence structures, pg verification, duals and the file format."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pg552 import graphs as gr
from pg552 import incidence as inc
from pg552 import symmetry as sym
from pg552.bits import bits, mask_of, permute_mask


def test_lines_sorted_and_deduplicated():
    g = inc.IncidenceStructure(4, [0b1100, 0b0011, 0b1100])
    assert g.lines == (0b0011, 0b1100)
    assert g.b == 2


def test_rejects_out_of_range_line():
    with pytest.raises(ValueError):
        inc.IncidenceStructure(3, [0b1001])


@st.composite
def incidence_structures(draw, max_v=12):
    """Structures on up to ``max_v`` points; points on no line occur often."""
    v = draw(st.integers(0, max_v))
    return inc.IncidenceStructure(v, draw(st.lists(st.integers(0, (1 << v) - 1), max_size=12)))


def pairwise_point_graph(g):
    """Reference point graph: join two points iff some line holds both."""
    adj = [0] * g.v
    for p in range(g.v):
        for q in range(p + 1, g.v):
            if any(m >> p & 1 and m >> q & 1 for m in g.lines):
                adj[p] |= 1 << q
                adj[q] |= 1 << p
    return gr.Graph(g.v, tuple(adj))


def pairwise_line_graph(g):
    """Reference line graph: join two lines iff their point masks meet."""
    adj = [0] * g.b
    for i in range(g.b):
        for j in range(i + 1, g.b):
            if g.lines[i] & g.lines[j]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return gr.Graph(g.b, tuple(adj))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(incidence_structures())
def test_pencils_transpose_lines(g):
    assert len(g.pencils) == g.v
    for p in range(g.v):
        for j, m in enumerate(g.lines):
            assert (m >> p & 1) == (g.pencils[p] >> j & 1)
    assert inc.line_graph(g) == pairwise_line_graph(g)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(incidence_structures())
def test_collinearity_rows_are_built_on_first_read(g):
    assert "collinearity" not in vars(g)
    assert g.collinearity == pairwise_point_graph(g).adj
    assert "collinearity" in vars(g)


def test_pencils_of_isolated_point():
    g = inc.IncidenceStructure(3, [0b011, 0b001])
    assert g.pencils == (0b11, 0b10, 0)


def test_equality_ignores_pencils():
    assert [f.name for f in dataclasses.fields(inc.IncidenceStructure) if f.compare] == [
        "v", "lines"
    ]
    assert "pencils" not in repr(inc.IncidenceStructure(2, [0b11]))
    # the cached collinearity rows are no field either: reading them
    # changes neither equality, nor the hash, nor the repr
    g, h = inc.IncidenceStructure(3, [0b011, 0b110]), inc.IncidenceStructure(3, [0b110, 0b011])
    assert g.collinearity == (0b010, 0b101, 0b010)
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert "collinearity" in vars(g) and "collinearity" not in vars(h)


def test_line_graph_is_pairwise_intersection(vls, new):
    for g in (vls, new):
        assert inc.line_graph(g) == pairwise_line_graph(g)


def test_double_dual_renames_points_by_pencil_rank(vls, new):
    # the dual's lines are the pencils sorted by mask value, so the double
    # dual is g with each point renamed by the rank of its pencil
    for g in (vls, new):
        rank = {pencil: r for r, pencil in enumerate(sorted(g.pencils))}
        perm = tuple(rank[pc] for pc in g.pencils)
        renamed = inc.IncidenceStructure(g.v, (permute_mask(m, perm) for m in g.lines))
        assert inc.dual(inc.dual(g)) == renamed


def test_partial_linear_space_vls(vls):
    # no two points of vls lie on two common lines: verify_pg finds no witness
    assert inc.verify_pg(vls).as_tuple() == (5, 5, 2, 81, 81)


def test_partial_linear_space_violation():
    # two lines sharing points 0 and 1
    g = inc.IncidenceStructure(10, [mask_of([0, 1, 2, 3, 4, 5]), mask_of([0, 1, 6, 7, 8, 9])])
    with pytest.raises(inc.PgViolation) as e:
        inc.verify_pg(g)
    assert e.value.reason == "two points on two common lines"
    assert e.value.witness == (0, 1, 0, 1)


def test_degrees_vls(vls):
    params = inc.verify_pg(vls)
    assert (params.s + 1, params.b) == (6, 81)  # line sizes {6: 81}
    assert (params.t + 1, params.v) == (6, 81)  # point degrees {6: 81}


def test_degrees_single_line():
    g = inc.IncidenceStructure(81, [mask_of(range(6))])
    with pytest.raises(inc.PgViolation) as e:
        inc.verify_pg(g)
    # line sizes {6: 1} are uniform, so the point degrees are what fails
    assert [m.bit_count() for m in g.lines] == [6]
    assert e.value.reason == "point degree not uniform"
    assert e.value.witness == {1: 6, 0: 75}


@st.composite
def uniform_structures(draw):
    """Unions of up to 12 lines from random parallel classes on up to 12
    points: degrees are uniform and two lines often share at most one
    point, so the alpha checks are reached."""
    size = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12 // size))
    classes = draw(st.lists(st.permutations(range(size * m)), min_size=1, max_size=12 // m))
    lines = [mask_of(c[i * size : (i + 1) * size]) for c in classes for i in range(m)]
    return inc.IncidenceStructure(size * m, lines)


def pairwise_verify(g):
    """Reference verification: the pairwise line scan that verify_pg once
    ran, then the degree checks and the alpha check on the collinearity
    graph.  Returns the parameters, or the reason and witness."""
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


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.one_of(incidence_structures(), uniform_structures()))
def test_verify_pg_matches_pairwise_reference(g):
    try:
        got = inc.verify_pg(g).as_tuple()
    except inc.PgViolation as e:
        got = e.reason, e.witness
    assert got == pairwise_verify(g)


def test_verify_pg_both_geometries(vls, new):
    # verify_pg reads the shared collinearity rows, so it leaves a fresh
    # structure with them cached, equal to the pairwise reference
    for g in (vls, new):
        fresh = inc.IncidenceStructure(g.v, g.lines)
        assert inc.verify_pg(fresh).as_tuple() == (5, 5, 2, 81, 81)
        assert vars(fresh)["collinearity"] == pairwise_point_graph(g).adj


def test_verify_pg_rejects_line_deleted(vls):
    g = inc.IncidenceStructure(81, vls.lines[1:])
    with pytest.raises(inc.PgViolation) as e:
        inc.verify_pg(g)
    assert "not uniform" in e.value.reason


def test_verify_pg_rejects_empty():
    with pytest.raises(inc.PgViolation):
        inc.verify_pg(inc.IncidenceStructure(3, []))


def test_verify_pg_no_external_pairs():
    g = inc.IncidenceStructure(6, [mask_of(range(6))])
    with pytest.raises(inc.PgViolation) as e:
        inc.verify_pg(g)
    assert "alpha undefined" in e.value.reason


def test_verify_pg_alpha_zero():
    g = inc.IncidenceStructure(12, [mask_of(range(6)), mask_of(range(6, 12))])
    with pytest.raises(inc.PgViolation) as e:
        inc.verify_pg(g)
    assert e.value.reason == "alpha is zero"


def test_dual_parameters(vls, new):
    assert inc.verify_pg(inc.dual(vls)).as_tuple() == (5, 5, 2, 81, 81)
    assert inc.verify_pg(inc.dual(new)).as_tuple() == (5, 5, 2, 81, 81)


def test_dual_swaps_s_and_t():
    # the six edges of K4 form a pg(1,2,2); its dual is a pg(2,1,2)
    k4_edges = inc.IncidenceStructure(
        4, [mask_of(e) for e in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
    )
    assert inc.verify_pg(k4_edges).as_tuple() == (1, 2, 2, 4, 6)
    assert inc.verify_pg(inc.dual(k4_edges)).as_tuple() == (2, 1, 2, 6, 4)


def test_dual_involution_up_to_isomorphism(vls):
    assert sym.is_isomorphic(inc.dual(inc.dual(vls)), vls)


def test_dual_degenerate():
    g = inc.IncidenceStructure(2, [0b11])
    d = inc.dual(g)
    assert (d.v, d.lines) == (1, (0b1,))


def test_point_graph_vls(point_graph_vls):
    assert all(row.bit_count() == 30 for row in point_graph_vls.adj)
    assert point_graph_vls.edge_count() == 1215


def test_point_graph_single_line():
    g = inc.IncidenceStructure(81, [mask_of(range(6))])
    pg = inc.point_graph(g)
    assert all(pg.adj[i].bit_count() == 5 for i in range(6))
    assert all(pg.adj[i] == 0 for i in range(6, 81))


def test_line_graph_is_point_graph_of_dual(vls, new):
    for g in (vls, new):
        assert inc.line_graph(g).adj == inc.point_graph(inc.dual(g)).adj


# --- file format ------------------------------------------------------------


def test_to_text_golden():
    g = inc.IncidenceStructure(4, [mask_of([0, 2]), mask_of([1, 3])])
    assert inc.to_text(g) == "pg 4 2\n0 2\n1 3\n"


def test_round_trip(tmp_path, vls, new):
    for g in (vls, new):
        path = str(tmp_path / "g.pg")
        inc.write_incidence(g, path)
        again = inc.read_incidence(path)
        assert again == g
        # writing what was read reproduces the file byte for byte
        assert inc.to_text(again) == inc.to_text(g)


def test_reader_header_line(vls):
    text = inc.to_text(vls)
    assert text.startswith("pg 81 81\n")


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "pg 4\n0 1\n",  # short header
        "pg 4 two\n0 1\n",  # non-integer count
        "dxf 4 1\n0 1\n",  # wrong magic
        "pg 4 2\n0 1\n",  # row count mismatch
        "pg 4 1\n0 1",  # missing trailing newline
        "pg 4 1\n0 4\n",  # out of range
        "pg 4 1\n1 0\n",  # not increasing
        "pg 4 1\n0 0\n",  # duplicate point
        "pg 4 1\n0  1\n",  # double space
        "pg 4 1\n0 x\n",  # non-integer point
        "pg 4 2\n0 1\n0 1\n",  # duplicate line
        # numbers are written as to_text writes them, and nothing else is read
        "pg 4 1\n0 +1\n",  # sign
        "pg 4 1\n0 01\n",  # leading zero
        "pg 12 1\n0 1_0\n",  # digit separator
        "pg 4 1\n0 \u0661\n",  # Arabic-Indic digit one
        "pg +3 1\n0 1\n",
        "pg -3 1\n0 1\n",
        "pg 4 01\n0 1\n",
        "pg 1_1 1\n0 1\n",
        "pg \u0664 1\n0 1\n",
    ],
)
def test_reader_rejects_malformed(text):
    with pytest.raises(ValueError):
        inc.from_text(text)


def test_reader_accepts_empty_structure():
    g = inc.from_text("pg 3 0\n")
    assert (g.v, g.lines) == (3, ())


@pytest.mark.parametrize("header", ["pg 4097 0", "pg 3 4097"])
def test_reader_refuses_header_above_cap(header):
    # refused before any row is read: these files have no rows at all
    with pytest.raises(ValueError, match="more than 4096"):
        inc.from_text(header + "\n")


def test_reader_accepts_header_at_cap():
    g = inc.from_text(f"pg {inc.MAX_SIZE} 0\n")
    assert (g.v, g.b) == (4096, 0)
