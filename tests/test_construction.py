"""The two geometries and their supporting objects: S, S', N0-cosets,
secant profiles, 2-ovoids, negative lines."""

import itertools
import random

import pytest
from references import E1, E2, E3, E4, ZERO, index, tadd, tneg, vector

from pg552 import construction as con
from pg552 import gf3space as gf3
from pg552 import incidence as inc
from pg552 import symmetry as sym
from pg552.bits import bits, mask_of


def test_s_is_standard_special_set():
    assert sorted(bits(con.S)) == [0, 1, 3, 9, 27, 80]


def test_special_set_prime_shares_e5():
    sp = con.S_PRIME
    assert sp.bit_count() == 6
    assert sp & 1  # contains 0
    assert sp >> 80 & 1  # same sixth element e5 = (2,2,2,2)
    total = ZERO
    for b in con.PRIME_BASIS:
        total = tadd(total, vector(b))
    assert tneg(total) == (2, 2, 2, 2)


def test_point_sets_recount_the_papers_coordinates():
    # S = {0, e1..e4, e5 = -(e1+..+e4)}, S' the same from the basis
    # -e1+e3, -e1+e3-e4, -e2+e4, -e2-e3+e4, and N0 = <e1, e2, e3-e4>,
    # all in tuples; test_gf3space recounts N1 = e3 + N0 and N2 = e3 + e4 + N0
    def special(basis):
        total = ZERO
        for b in basis:
            total = tadd(total, b)
        return mask_of(index(v) for v in (ZERO, *basis, tneg(total)))

    prime = [tadd(tneg(E1), E3), tadd(tadd(tneg(E1), E3), tneg(E4)),
             tadd(tneg(E2), E4), tadd(tadd(tneg(E2), tneg(E3)), E4)]
    assert [vector(b) for b in con.PRIME_BASIS] == prime
    assert con.S == special([E1, E2, E3, E4])
    assert con.S_PRIME == special(prime)
    multiples = [(ZERO, v, tadd(v, v)) for v in (E1, E2, tadd(E3, tneg(E4)))]
    n0 = {index(tadd(tadd(a, b), c)) for a, b, c in itertools.product(*multiples)}
    assert len(n0) == 27 and con.N0 == mask_of(n0)


def test_special_set_rejects_dependent_basis():
    with pytest.raises(ValueError):
        con.build_special_set([index(v) for v in (E1, E2, E3, tadd(E1, E2))])


def test_build_vls_line_count(vls):
    assert vls.v == 81
    assert vls.b == 81


def test_line_through_zero_is_s(vls):
    assert con.S in set(vls.lines)


def test_build_vls_any_basis_isomorphic(vls):
    rng = random.Random(11)
    for _ in range(2):
        while True:
            basis = [rng.randrange(81) for _ in range(4)]
            if gf3.span(basis) == gf3.FULL_MASK:
                break
        s = con.build_special_set(basis)
        other = inc.IncidenceStructure(81, (gf3.translate_mask(s, x) for x in range(81)))
        assert inc.verify_pg(other).as_tuple() == (5, 5, 2, 81, 81)
        assert sym.is_isomorphic(other, vls)


def test_build_new_line_split(vls, new):
    assert new.b == 81
    sprime_translates = {gf3.translate_mask(con.S_PRIME, x) for x in bits(con.N1)}
    in_new = [m for m in new.lines if m in sprime_translates]
    assert len(in_new) == 27
    shared = set(vls.lines) & set(new.lines)
    assert len(shared) == 54
    # the 27 replaced lines all differ from all lines of the original
    assert not sprime_translates & set(vls.lines)


def test_retained_lines_are_the_3_secants(vls, new):
    n0 = con.N0
    three_secants = {m for m in vls.lines if (m & n0).bit_count() == 3}
    assert set(vls.lines) & set(new.lines) == three_secants


def test_secant_profiles(vls, new):
    n0 = con.N0
    assert con.secant_profile(vls, n0) == {3: 54, 0: 27}
    # the replacement lines are again disjoint from N0 (recorded histogram)
    assert con.secant_profile(new, n0) == {3: 54, 0: 27}
    assert con.secant_profile(vls, gf3.FULL_MASK) == {6: 81}


def test_two_ovoids(vls):
    ovoids = con.find_2_ovoids(vls)
    assert len(ovoids) == 15  # brute-forced count over the 40 subspaces
    s = con.S
    for m in ovoids:
        assert (m & s).bit_count() == 2
        assert con.secant_profile(vls, m) == {2: 81}
    assert con.N0 not in ovoids
    # every |N ∩ S| = 2 subspace is a 2-ovoid
    twos = [m for m in gf3.enumerate_subspaces(3) if (m & s).bit_count() == 2]
    assert sorted(ovoids) == sorted(twos)


def test_negative_lines(vls):
    negs = con.negative_lines(vls)
    assert len(negs) == 81
    assert len(set(negs)) == 81
    minus_s = gf3.negate_mask(con.S)
    assert minus_s in negs
    assert minus_s not in set(vls.lines)


def test_negative_line_one_secants(vls, line_graph_vls):
    negs = con.negative_lines(vls)
    for m in negs[:9] + [gf3.negate_mask(con.S)]:
        one_secants = [i for i, l in enumerate(vls.lines) if (l & m).bit_count() == 1]
        assert len(one_secants) == 6
        for a in one_secants:
            for b in one_secants:
                if a != b:
                    assert line_graph_vls.adj[a] >> b & 1  # pairwise intersecting


def test_collinearity_difference_confined(point_graph_vls, point_graph_new):
    n1, n2 = con.N1, con.N2
    for x in range(81):
        for y in bits(point_graph_vls.adj[x] ^ point_graph_new.adj[x]):
            assert ((n1 >> x & 1) and (n1 >> y & 1)) or (
                (n2 >> x & 1) and (n2 >> y & 1)
            )


def test_collinear_n1_pair_common_neighbours(point_graph_new):
    n1 = con.N1
    pts = list(bits(n1))
    checked = 0
    for x in pts:
        for y in pts:
            if y <= x or not point_graph_new.adj[x] >> y & 1:
                continue
            common = point_graph_new.adj[x] & point_graph_new.adj[y]
            assert (common & n1).bit_count() == 3
            assert (common & ~n1).bit_count() == 6
            checked += 1
    assert checked > 0


def test_collinearity_is_difference_set_membership(vls, point_graph_vls):
    ds = gf3.difference_set(con.S)
    for x in range(81):
        for y in range(81):
            if x == y:
                continue
            edge = bool(point_graph_vls.adj[x] >> y & 1)
            diff = gf3.ADD[x][gf3.NEG[y]]
            assert edge == bool(ds >> diff & 1)
