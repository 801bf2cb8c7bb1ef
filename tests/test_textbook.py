"""Textbook geometries as oracles: parameters, graphs and group orders that
no pg552 code produced, checked against the library's answers.  The
structures themselves, W(3), PG(2,3), W(2) and the nets, are built in
``references.py``."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from references import TEXTBOOK, net, pairwise_verify, pg23, uniform_structures, w2, w3

from pg552 import construction as con
from pg552 import graphs as gr
from pg552 import incidence as inc
from pg552 import symmetry as sym


def test_w3_is_a_generalized_quadrangle_of_order_3():
    assert inc.verify_pg(w3()).as_tuple() == (3, 3, 1, 40, 40)


def test_w3_point_and_line_graphs_are_srg_40_12_2_4():
    g = w3()
    want = gr.SrgParams(v=40, k=12, lam=2, mu=4)
    assert gr.srg_check(inc.point_graph(g)) == want
    assert gr.srg_check(inc.line_graph(g)) == want


def test_w3_automorphism_group_order():
    # GF(3) has no field automorphism but the identity, so the collineation
    # group of W(3) is PGSp(4,3), twice PSp(4,3) of order 25920
    assert sym.aut_incidence(w3()).order() == 51840


def test_w3_is_not_self_dual():
    # its dual is Q(4,3), with the same parameters and graphs; W(q) is
    # self-dual iff q is even (Payne & Thas 3.2.1)
    g = w3()
    assert sym.is_self_dual(g) == (False, None)
    assert not sym.is_isomorphic(g, inc.dual(g))


def bose(s, t, alpha):
    """The point graph of a pg(s, t, alpha) (Bose 1963): an
    srg(v, s(t+1), s-1+t(alpha-1), alpha(t+1)) on v = (s+1)(st+alpha)/alpha
    points, complete when alpha = s+1, where srg_check reports mu = 0."""
    complete = alpha == s + 1
    return gr.SrgParams(v=Fraction((s + 1) * (s * t + alpha), alpha), k=s * (t + 1),
                        lam=s - 1 + t * (alpha - 1), mu=0 if complete else alpha * (t + 1),
                        complete=complete)


def check_bose(g):
    """srg_check's answer on both graphs of g is the one verify_pg's
    parameters predict; the line graph is the point graph of the dual, a
    pg(t, s, alpha)."""
    s, t, alpha, _, _ = inc.verify_pg(g).as_tuple()
    assert gr.srg_check(inc.point_graph(g)) == bose(s, t, alpha)
    assert gr.srg_check(inc.line_graph(g)) == bose(t, s, alpha)


def test_graphs_of_partial_geometries_have_the_bose_parameters(vls, new):
    for g in (vls, new, *dict(TEXTBOOK).values()):
        check_bose(g)
    assert gr.srg_check(inc.point_graph(net(3, 4))) == gr.SrgParams(9, 8, 7, 0, complete=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(uniform_structures())
def test_accepted_uniform_structures_have_the_bose_parameters(g):
    try:
        inc.verify_pg(g)
    except inc.PgViolation:
        return
    check_bose(g)


def test_pg23_is_a_projective_plane_and_w2_a_generalized_quadrangle():
    assert inc.verify_pg(pg23()).as_tuple() == (3, 3, 4, 13, 13)
    assert inc.verify_pg(w2()).as_tuple() == (2, 2, 1, 15, 15)


def test_pg23_and_w2_automorphism_group_orders():
    # GF(3) has no field automorphism but the identity, so the collineation
    # group of PG(2,3) is PGL(3,3); that of W(2) is S_6 acting on the duads
    assert sym.aut_incidence(pg23()).order() == 5616
    assert sym.aut_incidence(w2()).order() == 720


def test_pg23_and_w2_are_self_dual():
    # a plane is dual to itself by u ↦ u^⊥, and W(q) is self-dual iff q is
    # even (Payne & Thas 3.2.1)
    for g in (pg23(), w2()):
        self_dual, witness = sym.is_self_dual(g)
        assert self_dual and witness is not None
        assert sym.is_isomorphic(g, inc.dual(g))


def disjoint_union(g):
    """Two copies of g side by side: the degrees stay uniform, but a point
    sees no point of a line of the other copy, so alpha fails there."""
    return inc.IncidenceStructure(2 * g.v, [*g.lines, *(m << g.v for m in g.lines)])


@pytest.mark.parametrize("g", [
    pytest.param(con.build_vls(), id="vls"),
    pytest.param(con.build_new(), id="new"),
    *(pytest.param(g, id=name) for name, g in TEXTBOOK),
    *(pytest.param(disjoint_union(g), id=f"{name}+{name}") for name, g in TEXTBOOK),
])
def test_verify_pg_matches_pairwise_reference_on_textbook_structures(g):
    # the reference's success path on every partial geometry above, and its
    # alpha witness on two copies of each
    try:
        got = inc.verify_pg(g).as_tuple()
    except inc.PgViolation as e:
        got = e.reason, e.witness
    assert got == pairwise_verify(g)
