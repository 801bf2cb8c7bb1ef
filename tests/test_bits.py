"""Bit-sliced counts against a naive count at each position."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pg552.bits import count_is, count_planes


def decoded(planes, p):
    return sum((plane >> p & 1) << j for j, plane in enumerate(planes))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, (1 << 40) - 1), max_size=40), st.data())
def test_count_planes_and_count_is_agree_with_a_naive_count(rows, data):
    members = data.draw(st.integers(0, (1 << len(rows)) - 1))
    shift = data.draw(st.integers(0, 40))
    c = data.draw(st.integers(0, 45))
    full = data.draw(st.integers(0, (1 << 40) - 1))
    counts = [sum(rows[i] >> p & 1 for i in range(len(rows)) if members >> i & 1)
              for p in range(40)]
    planes = count_planes(rows, members)
    assert [decoded(planes, p) for p in range(40)] == counts
    assert count_is(planes, c, full) == sum(
        1 << p for p in range(40) if full >> p & 1 and counts[p] == c)
    # the identity srg_check's row counts read: shifting the planes shifts
    # every count, so they count the shifted rows
    shifted = [plane >> shift for plane in planes]
    assert [decoded(shifted, p) for p in range(40)] == counts[shift:] + [0] * shift
    assert count_is(shifted, c, full) == count_is(
        count_planes([row >> shift for row in rows], members), c, full)
