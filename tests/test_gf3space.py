"""GF(3)^4 arithmetic, subspace enumeration, cosets and difference sets.

Expected values are derived with independent brute force (plain tuple
arithmetic mod 3) wherever they are not forced by a definition.
"""

import itertools

import pytest

from pg552 import gf3space as gf3
from pg552 import construction as con
from pg552.bits import bits, mask_of

E1, E2, E3, E4 = gf3.UNIT


def tadd(a, b):
    return tuple((x + y) % 3 for x, y in zip(a, b))


def tneg(a):
    return tuple(-x % 3 for x in a)


def vec_scale(c, a):
    return tuple(c * x % 3 for x in a)


def base3(v):
    return v[0] + 3 * v[1] + 9 * v[2] + 27 * v[3]


def test_encode_zero_and_units():
    assert gf3.encode((0, 0, 0, 0)) == 0
    assert gf3.encode(E1) == 1


def test_encode_e5():
    # e5 = -(e1+e2+e3+e4), computed independently and base-3 encoded
    e5 = tneg(tadd(tadd(E1, E2), tadd(E3, E4)))
    assert e5 == (2, 2, 2, 2)
    assert base3(e5) == 80
    assert gf3.encode(e5) == 80


def test_encode_matches_base3_everywhere():
    for v in itertools.product(range(3), repeat=4):
        assert gf3.encode(v) == base3(v)


def test_encode_decode_bijection():
    seen = {gf3.encode(gf3.decode(i)) for i in range(gf3.NPOINTS)}
    assert seen == set(range(gf3.NPOINTS))


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        gf3.decode(81)
    with pytest.raises(ValueError):
        gf3.decode(-1)


def test_encode_rejects_bad_coords():
    with pytest.raises(ValueError):
        gf3.encode((0, 0, 3, 0))
    with pytest.raises(ValueError):
        gf3.encode((0, 0, 0))


def test_vec_add_neg():
    assert gf3.vec_add(E1, gf3.vec_neg(E1)) == (0, 0, 0, 0)
    # -e1 + e3 is the first basis vector of the replacement set
    assert gf3.vec_add(gf3.vec_neg(E1), E3) == (2, 0, 1, 0)
    # e3 + e4 represents the second nontrivial coset of N0
    assert gf3.vec_add(E3, E4) == (0, 0, 1, 1)


def test_index_tables_match_tuple_arithmetic():
    # every entry, against this file's arithmetic and the module's vectors
    for i, a in enumerate(gf3.ALL_VECTORS):
        for j, b in enumerate(gf3.ALL_VECTORS):
            assert gf3.ADD[i][j] == base3(tadd(gf3.decode(i), gf3.decode(j)))
            assert gf3.ADD[i][j] == gf3.encode(gf3.vec_add(a, b))
        assert gf3.NEG[i] == base3(tneg(gf3.decode(i))) == gf3.encode(gf3.vec_neg(a))
    assert len(gf3.ADD) == len(gf3.NEG) == 81


def test_span_empty():
    z = gf3.span([])
    assert z == 1  # just the zero vector: dimension 0


def test_span_n0():
    n0 = gf3.span([E1, E2, gf3.vec_add(E3, gf3.vec_neg(E4))])
    assert n0.bit_count() == 3**3


def test_span_dependent_vectors():
    s = gf3.span([E1, vec_scale(2, E1)])
    assert s.bit_count() == 3**1


def test_span_idempotent():
    # the span of all 27 members of N0 is N0 again
    assert gf3.span(gf3.decode(i) for i in bits(con.N0)) == con.N0


def test_span_closure():
    sub = gf3.span([E1, gf3.vec_add(E2, E3)])
    pts = list(bits(sub))
    for x in pts:
        assert gf3.NEG[x] in set(pts)
        for y in pts:
            assert gf3.ADD[x][y] in set(pts)


def gaussian_binomial(n, k, q=3):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("dim,count", [(0, 1), (1, 40), (2, 130), (3, 40), (4, 1)])
def test_enumerate_subspaces_counts(dim, count):
    assert gaussian_binomial(4, dim) == count
    subs = gf3.enumerate_subspaces(dim)
    assert len(subs) == count
    assert len(set(subs)) == count


def test_enumerate_subspaces_dim1_brute_force():
    # independent enumeration: one line through 0 per pair {v, 2v}
    lines = set()
    for v in itertools.product(range(3), repeat=4):
        if v == (0, 0, 0, 0):
            continue
        members = frozenset({0, base3(v), base3(tadd(v, v))})
        lines.add(members)
    assert len(lines) == 40
    subs = gf3.enumerate_subspaces(1)
    assert {frozenset(bits(s)) for s in subs} == lines


def test_enumerate_subspaces_dim4_is_v():
    (full,) = gf3.enumerate_subspaces(4)
    assert full == gf3.FULL_MASK


def test_enumerate_subspaces_sorted_and_valid():
    subs = gf3.enumerate_subspaces(3)
    assert subs == sorted(subs)
    for s in subs:
        assert s.bit_count() == 27
        assert s & 1  # contains 0


def test_enumerate_subspaces_rejects_bad_dim():
    with pytest.raises(ValueError):
        gf3.enumerate_subspaces(5)


def test_cosets_partition():
    cos = [con.N0, con.N1, con.N2]
    assert all(c.bit_count() == 27 for c in cos)
    union = 0
    for c in cos:
        assert union & c == 0
        union |= c
    assert union == gf3.FULL_MASK


def test_coset_of_e3_is_n1():
    # independent construction of e3 + N0 and e3 + e4 + N0 with tuple arithmetic
    n0 = [gf3.decode(x) for x in bits(con.N0)]
    assert con.N1 == mask_of(base3(tadd(E3, v)) for v in n0)
    assert con.N2 == mask_of(base3(tadd(tadd(E3, E4), v)) for v in n0)
    assert con.N1 != con.N2


def test_difference_set_of_singleton_is_empty():
    assert gf3.difference_set(1 << 17) == 0


def test_difference_set_of_s():
    # independent brute force over the 30 ordered pairs
    pts = [gf3.decode(i) for i in bits(con.S)]
    expect = {base3(tadd(x, tneg(y))) for x in pts for y in pts if x != y}
    ds = gf3.difference_set(con.S)
    assert set(bits(ds)) == expect
    assert ds.bit_count() == 30  # the point-graph degree s(t+1)
    assert not ds & 1  # never contains 0
    assert gf3.negate_mask(ds) == ds  # closed under negation


def test_difference_set_identities():
    ds = gf3.difference_set(con.S)
    dsp = gf3.difference_set(con.S_PRIME)
    n0 = con.N0
    n12 = con.N1 | con.N2
    assert ds & dsp & n0 == 0
    assert ds & n12 == dsp & n12
    assert dsp.bit_count() == 30


def test_intersection_sizes_with_cosets():
    s, sp = con.S, con.S_PRIME
    cosets = (con.N0, con.N1, con.N2)
    assert [(n & s).bit_count() for n in cosets] == [3, 3, 0]
    assert [(n & sp).bit_count() for n in cosets] == [3, 3, 0]
    assert s.bit_count() == 6


def test_all_3dim_subspaces_meet_s_in_1_to_4():
    dist = {}
    for sub in gf3.enumerate_subspaces(3):
        c = (sub & con.S).bit_count()
        dist[c] = dist.get(c, 0) + 1
    assert set(dist) == {1, 2, 3, 4}
    # brute-forced distribution, kept as a regression value
    assert dist == {1: 5, 2: 15, 3: 10, 4: 10}


def test_zero_combinations_over_s():
    # a linear combination over S = {0, e1..e5} vanishes iff the e-part has
    # equal coefficients; checked over all 3^6 coefficient tuples
    s_vectors = [(0, 0, 0, 0), E1, E2, E3, E4, (2, 2, 2, 2)]
    for coeffs in itertools.product(range(3), repeat=6):
        total = (0, 0, 0, 0)
        for c, v in zip(coeffs, s_vectors):
            total = tadd(total, tuple(c * x % 3 for x in v))
        vanishes = total == (0, 0, 0, 0)
        uniform = len(set(coeffs[1:])) == 1
        assert vanishes == uniform, coeffs


def test_translate_and_negate_masks():
    s = con.S
    # translating by x then by -x is the identity
    x = 47
    assert gf3.translate_mask(gf3.translate_mask(s, x), gf3.NEG[x]) == s
    assert gf3.negate_mask(gf3.negate_mask(s)) == s
