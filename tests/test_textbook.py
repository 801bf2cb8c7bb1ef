"""Textbook geometries as oracles: parameters, graphs and group orders that
no pg552 code produced, checked against the library's answers."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from test_incidence import uniform_structures

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


def net(n, k):
    """The net of order n and degree k, a pg(n-1, k-1, k-1) on the points
    (x, y) mod n: the columns x = c and the lines y = ax + b of the slopes
    a = 0..k-2.  Two slopes differ by a unit when k - 1 is at most the least
    prime factor of n, so two lines meet at most once.  k = 2 gives the n×n
    grid; k = n + 1, for n prime, the affine plane AG(2, n), whose point
    graph is complete."""
    columns = [mask_of(range(n * c, n * c + n)) for c in range(n)]
    slopes = [mask_of(n * x + (a * x + b) % n for x in range(n))
              for a in range(k - 1) for b in range(n)]
    return inc.IncidenceStructure(n * n, columns + slopes)


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


# the nets of orders 2..7 from the cyclic group, every degree up to the
# least prime factor plus one
NETS = [(n, k) for n, p in [(2, 2), (3, 3), (4, 2), (5, 5), (6, 2), (7, 7)] for k in range(2, p + 2)]


def test_graphs_of_partial_geometries_have_the_bose_parameters(vls, new):
    for g in (vls, new, w3(), *(net(n, k) for n, k in NETS)):
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
