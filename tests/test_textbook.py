"""Textbook geometries as oracles: parameters, graphs and group orders that
no pg552 code produced, checked against the library's answers."""

import itertools

from pg552 import gf3space as gf3
from pg552 import graphs as gr
from pg552 import incidence as inc
from pg552 import symmetry as sym
from pg552.bits import bits, mask_of


def symplectic_form(x, y):
    return (x[0] * y[2] - x[2] * y[0] + x[1] * y[3] - x[3] * y[1]) % 3


def w3():
    """The symplectic generalized quadrangle W(3) (Payne & Thas, *Finite
    Generalized Quadrangles*, 3.1.1): the 40 1-spaces of GF(3)^4 as points,
    and as lines the 2-spaces totally isotropic for the form
    x1 y3 - x3 y1 + x2 y4 - x4 y2."""
    points = gf3.enumerate_subspaces(1)
    lines = []
    for plane in gf3.enumerate_subspaces(2):
        vectors = [gf3.decode(i) for i in bits(plane)]
        if all(symplectic_form(x, y) == 0 for x, y in itertools.combinations(vectors, 2)):
            lines.append(mask_of(i for i, p in enumerate(points) if p & plane == p))
    return inc.IncidenceStructure(len(points), lines)


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
