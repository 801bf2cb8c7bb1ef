"""Incidence structures, pg verification, duals and the file format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from references import (TEXTBOOK, pairwise_line_graph, pairwise_point_graph, pairwise_verify,
                        relabel_incidence, uniform_structures)

from pg552 import incidence as inc
from pg552 import symmetry as sym
from pg552.bits import mask_of


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
    assert inc.IncidenceStructure._compared == ("v", "lines")
    assert "pencils" not in repr(inc.IncidenceStructure(2, [0b11]))
    # the cached collinearity rows are no field either: reading them
    # changes neither equality, nor the hash, nor the repr
    g, h = inc.IncidenceStructure(3, [0b011, 0b110]), inc.IncidenceStructure(3, [0b110, 0b011])
    assert g.collinearity == (0b010, 0b101, 0b010)
    assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
    assert "collinearity" in vars(g) and "collinearity" not in vars(h)


def test_line_graph_is_pairwise_intersection(vls, new):
    for g in (vls, new, *dict(TEXTBOOK).values()):
        assert inc.line_graph(g) == pairwise_line_graph(g)


def test_double_dual_renames_points_by_pencil_rank(vls, new):
    # the dual's lines are the pencils sorted by mask value, so the double
    # dual is g with each point renamed by the rank of its pencil
    for g in (vls, new):
        rank = {pencil: r for r, pencil in enumerate(sorted(g.pencils))}
        perm = tuple(rank[pc] for pc in g.pencils)
        assert inc.dual(inc.dual(g)) == relabel_incidence(g, perm)


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
        "pg 3 2\n1 2\n0 1\n",  # rows out of mask order
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
